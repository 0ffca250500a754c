"""Content-addressed trace cache.

Synthesizing a trace is by far the most expensive step of every
experiment run, yet its output is a pure function of the
:class:`~repro.synthesis.synthesizer.SynthesisConfig` (and of the
synthesis code itself).  This module memoizes that function on disk:
traces are stored as columnar ``.npz`` archives, or as ``.shards``
directories for out-of-core runs, under a key derived from

* every content-affecting config field (``jobs`` is deliberately
  *excluded* -- the worker count never changes the trace, only the shard
  count does, and the *effective* shard count is part of the key);
* the wiring fingerprint (the default model/universe/population stack;
  custom wiring bypasses the cache entirely);
* a schema/code version stamp, bumped whenever the synthesizer's output
  for a fixed config changes, so stale entries can never be mistaken for
  fresh ones.

The default cache root honours ``REPRO_P2P_CACHE`` and falls back to
``~/.cache/repro-p2p/traces`` (under ``XDG_CACHE_HOME`` when set).
A warm hit replays a multi-minute synthesis in the time it takes to
load a few ``.npz`` arrays (or to open a sharded entry's manifest) -- the
experiment CLI and benchmarks lean on this to make "run everything
again" cheap.  The synthesizer is imported only on a miss, so a hit
never loads it or the agent, client and monitor layers it drives.
JSON lines remain the interchange format (``synthesize --out``,
``compare``), not a cache format.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import warnings
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from repro import __version__
from repro.measurement.columnar import ColumnarTrace
from repro.measurement.shards import ShardedTrace

from .config import SynthesisConfig, shard_windows

if TYPE_CHECKING:
    from repro.measurement.trace import Trace

__all__ = [
    "TRACE_CACHE_VERSION",
    "TraceCache",
    "default_cache_dir",
    "load_or_synthesize",
    "load_or_synthesize_columnar",
    "load_or_synthesize_sharded",
    "trace_cache_key",
]

#: Bump whenever synthesis output changes for an unchanged config (new
#: RNG derivation, schema change, distribution fix, ...).  Stamped into
#: every cache key alongside the package version.
#: v2: columnar ``.npz`` became the preferred on-disk entry format.
#: v3: the columnar synthesis backend became the default; it consumes
#: random draws in a different (batched) order than the event engine, so
#: traces for a fixed config changed realization.
TRACE_CACHE_VERSION = 3

#: Fingerprint of the default component wiring (paper WorkloadModel +
#: seed-derived QueryUniverse/PeerPopulation/UserBehavior).  Runs with
#: caller-supplied components are not cacheable under this scheme.
_DEFAULT_WIRING = "paper-default"


def default_cache_dir() -> Path:
    """Resolve the cache root: ``$REPRO_P2P_CACHE`` wins, then
    ``$XDG_CACHE_HOME/repro-p2p/traces``, then ``~/.cache/repro-p2p/traces``."""
    env = os.environ.get("REPRO_P2P_CACHE")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-p2p" / "traces"


def effective_shard_count(config: SynthesisConfig) -> int:
    """Shard count a default-wiring :class:`TraceSynthesizer` will use.

    Mirrors the synthesizer's single-shard fallback for slot-capped
    configs; part of the cache key because the shard count (unlike the
    worker count) determines trace content.
    """
    n = len(shard_windows(config))
    if n > 1 and config.max_slots is not None:
        return 1
    return n


def trace_cache_key(config: SynthesisConfig) -> str:
    """Content hash addressing the trace this config synthesizes.

    Two configs share a key exactly when they are guaranteed to produce
    byte-identical traces under the current code version.
    """
    fields = dataclasses.asdict(config)
    # jobs/shard_days shape *how* the trace is computed; the effective
    # shard count is what decides content.
    fields.pop("jobs", None)
    fields.pop("shard_days", None)
    payload = {
        "config": fields,
        "n_shards": effective_shard_count(config),
        "wiring": _DEFAULT_WIRING,
        "cache_version": TRACE_CACHE_VERSION,
        "package_version": __version__,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()
    ).hexdigest()
    return digest[:32]


#: Exceptions treated as "corrupt entry" on a cache read: interrupted
#: writes from older non-atomic writers, disk trouble, truncated zips.
_CORRUPT_ENTRY_ERRORS = (
    ValueError, KeyError, TypeError, json.JSONDecodeError, OSError,
    zipfile.BadZipFile,
)


class TraceCache:
    """Directory of content-addressed serialized traces.

    Entries are columnar ``<key>.npz`` archives
    (:meth:`~repro.measurement.columnar.ColumnarTrace.save_npz`) -- a
    warm read is a handful of array loads -- and ``<key>.shards``
    directories for sharded runs.  Writes go through a temporary file +
    rename, so readers never see partial entries.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, config: SynthesisConfig) -> Path:
        """Where the entry for ``config`` lives."""
        return self.root / f"{trace_cache_key(config)}.npz"

    def contains(self, config: SynthesisConfig) -> bool:
        return self.path_for(config).exists()

    def load(self, config: SynthesisConfig) -> Optional[Trace]:
        """The cached trace for ``config`` as records, or None on a miss."""
        return self._read(config, lambda path: ColumnarTrace.load_npz(path).to_trace())

    def load_columnar(self, config: SynthesisConfig) -> Optional[ColumnarTrace]:
        """The cached trace as columns, or None on a miss.

        The fast path for array-based analysis: no dataclass records are
        materialized.
        """
        return self._read(config, ColumnarTrace.load_npz)

    def _read(self, config: SynthesisConfig, reader):
        """``reader(path)`` of the entry, or None on a miss.

        A corrupt entry (interrupted write from an older, non-atomic
        writer; disk trouble) is treated as a miss and removed.
        """
        path = self.path_for(config)
        if not path.exists():
            return None
        try:
            return reader(path)
        except _CORRUPT_ENTRY_ERRORS:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - race/permissions
                pass
        return None

    def store(self, config: SynthesisConfig, trace: Trace) -> Path:
        """Serialize a record ``trace`` under ``config``'s key; returns the path."""
        return self.store_columnar(config, ColumnarTrace.from_trace(trace))

    def store_columnar(self, config: SynthesisConfig, trace: ColumnarTrace) -> Path:
        """Serialize an already-columnar ``trace`` under ``config``'s key.

        The columnar synthesis engine hands its arrays straight to
        ``save_npz`` with no per-record objects in between.
        """
        path = self.path_for(config)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            trace.save_npz(tmp)
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on failed replace
                tmp.unlink()
        return path

    # -- sharded entries ------------------------------------------------------

    def shards_path_for(self, config: SynthesisConfig) -> Path:
        """Directory a sharded entry for ``config`` lives in."""
        return self.root / f"{trace_cache_key(config)}.shards"

    def load_sharded(self, config: SynthesisConfig) -> Optional[ShardedTrace]:
        """The cached sharded trace for ``config``, or None on a miss.

        A directory without a readable manifest (interrupted writer,
        version skew, disk trouble) is treated as a miss and removed --
        the manifest is written last, so its validity marks the entry
        complete.
        """
        path = self.shards_path_for(config)
        if not path.is_dir():
            return None
        try:
            return ShardedTrace.open(path)
        except _CORRUPT_ENTRY_ERRORS:
            shutil.rmtree(path, ignore_errors=True)
            return None

    def adopt_sharded(self, config: SynthesisConfig, sharded: ShardedTrace) -> ShardedTrace:
        """Copy an existing shard directory in as the entry for ``config``.

        Used to publish an already-synthesized sharded trace (e.g. one
        living in a temporary directory) to a cache that worker processes
        will read.  Copies into a temp sibling then renames, so readers
        never see a partial entry; an entry that appears concurrently
        wins.
        """
        path = self.shards_path_for(config)
        existing = self.load_sharded(config)
        if existing is not None:
            return existing
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = Path(f"{path}.tmp.{os.getpid()}")
        try:
            shutil.copytree(sharded.root, tmp)
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on failed replace
                shutil.rmtree(tmp, ignore_errors=True)
        return ShardedTrace.open(path)

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        if not self.root.exists():
            return 0
        removed = 0
        for entry in sorted(self.root.glob("*.npz")):
            entry.unlink()
            removed += 1
        for entry in sorted(self.root.glob("*.shards")):
            if entry.is_dir():
                shutil.rmtree(entry)
                removed += 1
        return removed


def _synthesizer(config: SynthesisConfig):
    """The synthesizer for a miss, imported here so a hit never loads it."""
    from .synthesizer import TraceSynthesizer

    return TraceSynthesizer(config)


def load_or_synthesize(
    config: SynthesisConfig,
    cache: Optional[TraceCache] = None,
    use_cache: bool = True,
) -> Trace:
    """The trace for ``config``: from cache when warm, else synthesized
    (and stored for next time).

    Only default-wiring synthesis is cacheable; callers overriding the
    model/universe/population must call :class:`TraceSynthesizer`
    directly.  ``use_cache=False`` degrades to plain synthesis.
    """
    if not use_cache:
        return _synthesizer(config).run()
    cache = cache or TraceCache()
    trace = cache.load(config)
    if trace is None:
        return load_or_synthesize_columnar(config, cache=cache).to_trace()
    return trace


def load_or_synthesize_columnar(
    config: SynthesisConfig,
    cache: Optional[TraceCache] = None,
    use_cache: bool = True,
) -> ColumnarTrace:
    """The columnar trace for ``config``: warm ``.npz`` entries load as
    plain array bundles, and a cold synthesis on the columnar engine
    feeds the cache without ever materializing per-record objects.
    """
    if not use_cache:
        return _synthesizer(config).run_columnar()
    cache = cache or TraceCache()
    trace = cache.load_columnar(config)
    if trace is None:
        trace = _synthesizer(config).run_columnar()
        try:
            cache.store_columnar(config, trace)
        except OSError as exc:
            # An unwritable cache must not discard a finished synthesis.
            warnings.warn(
                f"could not write trace cache entry ({exc}); continuing uncached",
                RuntimeWarning,
                stacklevel=2,
            )
    return trace


def load_or_synthesize_sharded(
    config: SynthesisConfig,
    cache: Optional[TraceCache] = None,
    use_cache: bool = True,
    workdir: Optional[Union[str, Path]] = None,
) -> ShardedTrace:
    """The sharded on-disk trace for ``config``: opened from cache when
    warm, else synthesized shard by shard *directly into* the cache entry
    (through a temp directory + rename, so concurrent readers never see a
    partial entry).

    Unlike the in-memory loaders a sharded trace always lives on disk
    somewhere; with ``use_cache=False`` the caller must supply the
    ``workdir`` to synthesize into.
    """
    if not use_cache:
        if workdir is None:
            raise ValueError("workdir is required when use_cache=False")
        return _synthesizer(config).run_sharded(Path(workdir))
    cache = cache or TraceCache()
    sharded = cache.load_sharded(config)
    if sharded is not None:
        return sharded
    path = cache.shards_path_for(config)
    tmp = Path(f"{path}.tmp.{os.getpid()}")
    try:
        cache.root.mkdir(parents=True, exist_ok=True)
        _synthesizer(config).run_sharded(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        if workdir is not None:
            warnings.warn(
                f"could not write sharded cache entry ({exc}); "
                f"synthesizing uncached into {workdir}",
                RuntimeWarning,
                stacklevel=2,
            )
            return _synthesizer(config).run_sharded(Path(workdir))
        raise
    finally:
        if tmp.exists():
            shutil.rmtree(tmp, ignore_errors=True)
    return ShardedTrace.open(path)
