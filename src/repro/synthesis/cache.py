"""Content-addressed trace cache.

Synthesizing a trace is by far the most expensive step of every
experiment run, yet its output is a pure function of the
:class:`~repro.synthesis.synthesizer.SynthesisConfig` (and of the
synthesis code itself).  This module memoizes that function on disk:
every entry is a ``<key>.shards`` directory, the
:class:`~repro.measurement.shards.ShardedTrace` a run synthesizes into
(one shard, ``jobs`` shards, or the ``shard_days`` plan), under a key
derived from

* every content-affecting config field (``jobs`` is deliberately
  *excluded* -- the worker count never changes the trace, only the shard
  count does, and the shard count is part of the key);
* the wiring fingerprint (the default model/universe/population stack;
  a caller-supplied population bypasses the cache entirely);
* a schema/code version stamp, bumped whenever the synthesizer's output
  for a fixed config changes, so stale entries can never be mistaken for
  fresh ones.

The default cache root honours ``REPRO_P2P_CACHE`` and falls back to
``~/.cache/repro-p2p/traces`` (under ``XDG_CACHE_HOME`` when set).
A warm hit replays a multi-minute synthesis in the time it takes to
open the entry's manifest; its shards are memory-mapped as they are
read.  The synthesizer is imported only on a miss, so a hit never loads
it or the agent, client and monitor layers it drives.  JSON lines
remain the interchange format (``synthesize --out``, ``compare``), not
a cache format.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import warnings
from pathlib import Path
from typing import Optional, Union

from repro import __version__
from repro.measurement.shards import ShardedTrace

from .config import SynthesisConfig, shard_windows

__all__ = [
    "TRACE_CACHE_VERSION",
    "TraceCache",
    "default_cache_dir",
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
#: v4: columnar schema v2 (keyword and user-agent codes into sorted
#: vocabularies); entries of earlier versions are never read.
#: v5: columnar schema v3 (``uint8`` hops and TTL); every entry is a
#: ``.shards`` directory.
TRACE_CACHE_VERSION = 5

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


def trace_cache_key(config: SynthesisConfig) -> str:
    """Content hash addressing the trace this config synthesizes.

    Two configs share a key exactly when they are guaranteed to produce
    byte-identical traces under the current code version.
    """
    fields = dataclasses.asdict(config)
    # jobs/shard_days shape *how* the trace is computed; the shard count
    # is what decides content.
    fields.pop("jobs", None)
    fields.pop("shard_days", None)
    payload = {
        "config": fields,
        "n_shards": len(shard_windows(config)),
        "wiring": _DEFAULT_WIRING,
        "cache_version": TRACE_CACHE_VERSION,
        "package_version": __version__,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()
    ).hexdigest()
    return digest[:32]


#: Exceptions treated as "corrupt entry" on a cache read: an unreadable
#: or incomplete manifest (interrupted writer, version skew, disk trouble).
_CORRUPT_ENTRY_ERRORS = (ValueError, KeyError, TypeError, json.JSONDecodeError, OSError)


class TraceCache:
    """Directory of content-addressed sharded traces.

    Each entry is a ``<key>.shards`` directory
    (:class:`~repro.measurement.shards.ShardedTrace`); writers fill a
    temporary sibling and rename it, so readers never see a partial
    entry.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root) if root is not None else default_cache_dir()

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
        """Delete every cache entry, ``.npz`` files older versions wrote
        included; returns the number removed."""
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


def load_or_synthesize_sharded(
    config: SynthesisConfig,
    cache: Optional[TraceCache] = None,
    use_cache: bool = True,
    workdir: Optional[Union[str, Path]] = None,
) -> ShardedTrace:
    """The sharded on-disk trace for ``config``: opened from cache when
    warm, else synthesized shard by shard *directly into* the cache entry
    (through a temp directory + rename, so concurrent readers never see a
    partial entry).  When another process completes the same entry
    first, the rename fails and that entry is returned.

    A sharded trace always lives on disk somewhere; with
    ``use_cache=False`` the caller must supply the ``workdir`` to
    synthesize into.
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
        # A writer that finished the same entry first wins the race.
        sharded = cache.load_sharded(config)
        if sharded is not None:
            return sharded
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
