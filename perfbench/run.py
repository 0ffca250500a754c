#!/usr/bin/env python3
"""Benchmark: the paper pipeline, the workload stream and the overlay flood.

Run from the repository root::

    python3 perfbench/run.py --workload paper-pipeline --seed 20040315 \\
        --seconds 36 --trace 0

``--workload all`` runs every workload in turn.  Each workload repeats,
for ``--seconds``, the user commands it models, every command in a
fresh process (``child.py``), so the first-call costs a CLI user pays
on every run stay in the numbers.  Every metric is printed by name with
its unit; the last line of a workload's output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Untraced
(``--trace 0``) the metrics are the end-to-end ones, every one a median
over the run's repetitions; traced (``--trace 1``) they are the
per-layer ones, taken from the traced repetitions of a run that
alternates traced and untraced ones.

Workloads (the seed is ``--seed``; the defaults reproduce the paper's):

``paper-pipeline`` (default seed 20040315)
    ``synthesize --stream`` of half a day at the paper's rate (1.26
    conn/s, two 6-hour shards) into an empty cache, ``run_streaming``
    over the cached shards (rules 1-5 and the Fig. 1-11 reducers), then
    ``experiment all --stream`` on the warm cache.  The only workload that runs
    synthesis, spill, shard reads, filtering, reducers, record views
    and fitting.
``workload-stream`` (default seed 404)
    ``serve`` broadcasts the Fig. 12 stream to two subscribers in this
    process, which decode every frame: once unthrottled (measures the
    generator, which dominates the server) and once paced by the token
    bucket well below the unthrottled rate, with STAMP probes (measures
    frames stalled behind window generation on the event loop: the last
    frame queued before each window is generated waits for it).  The subscribers are the repository's load-test client,
    ``run_loadtest``.  The paced phase feeds per-layer metrics only, so
    it runs in traced runs.
``overlay-flood`` (default seed 11)
    ``overlay`` on the columnar engine over a generated one-hour
    workload: the only workload that runs ``repro.gnutella``.

End-to-end metrics, the same names on every workload (the result line
must carry every one of them on every workload):

``setup_s``
    Launch -> first layer call, median per command, summed over the
    commands of a repetition (paper-pipeline: 3 commands;
    workload-stream: server launch -> accepting subscribers;
    overlay-flood: launch -> input workload generated).  Besides the
    full repetitions, an untraced run makes set-up-only launches of
    each command (stopped at the first layer call), so the median
    rests on many samples spread over the whole run.
``peak_rss_mb``
    Peak RSS of the workload's largest process (experiments, server,
    overlay).

Wall-clock stage times are printed by name above the result line --
``synthesize_s``, ``analyze_s``, ``experiments_s`` and
``stream_rss_mb``; ``events_per_s`` (events delivered to both
subscribers over the unthrottled broadcast span); ``simulate_s``; and
``work_s``, the workload's stage time under one name (the pipeline's
three stages, the unthrottled broadcast span, ``simulate_s``) -- and
kept in the per-layer set with ``service.frame_p99_ms``, but carry no
bound.  One rule picks the bounded metrics: a metric's spread over ten
runs (IQR/median) must stay under a third of its bound, and no bound
may exceed 0.25.  The 2-vCPU host this was built on runs the same code
up to 1.7 times slower from one minute to the next; there, over two
ten-run series, the stage times spread 0.05-0.25 and the RSS figures
at most 0.04.  ``setup_s`` is the exception, kept whatever its spread
(0.09-0.25 there) so that work moved into set-up shows; the medians of
two interleaved sets of five runs stayed within 0.09 of each other.

Shards go to ``.perfbench-work/`` inside the checkout and are flushed
with ``fsync`` between commands, outside every timed region, so
writeback of one stage does not land in the next.  Every child runs
with NumPy/BLAS thread pools capped at one thread and ``jobs=1``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = ROOT / "perfbench" / "child.py"
WORK = ROOT / ".perfbench-work"
TRACES = ROOT / ".perfbench-traces"
CHILD_TIMEOUT_S = 60
#: A traced run needs at least one traced and one untraced repetition.
MIN_REPS = 2

WORKLOADS = ("paper-pipeline", "workload-stream", "overlay-flood")
DEFAULT_SEEDS = {"paper-pipeline": 20040315, "workload-stream": 404, "overlay-flood": 11}

SCALES = {
    "bench": {
        # Half a day in two 6-hour shards keeps four or more repetitions
        # in a run; the multi-shard path is the one the 40-day run takes.
        "paper-pipeline": {"days": 0.5, "rate": 1.26, "shard_hours": 6.0},
        # A traced run makes two or more paced broadcasts of 512 stamped
        # frames: at least 1,000 latencies, so ten lie beyond the p99.
        # About one frame in 30 waits for a window to be generated, so the
        # p99 falls among the stalled frames.
        "workload-stream": {
            "peers": 20000, "window_seconds": 900.0, "batch_sessions": 2048,
            "frames": 256, "paced_frames": 512, "paced_rate": 150000.0,
            "paced_burst": 10000.0, "buffer_frames": 16, "clients": 2,
            "min_stamped_frames": 1000,
        },
        "overlay-flood": {"peers": 3000, "hours": 1.0, "ttl": 4, "delta": 30.0},
    },
    # A few seconds per repetition; the self-test runs this scale.
    "tiny": {
        "paper-pipeline": {"days": 0.05, "rate": 1.26, "shard_hours": 0.6},
        "workload-stream": {
            "peers": 2000, "window_seconds": 900.0, "batch_sessions": 512,
            "frames": 8, "paced_frames": 8, "paced_rate": 200000.0,
            "paced_burst": 4000.0, "buffer_frames": 16, "clients": 2,
            "min_stamped_frames": 16,
        },
        "overlay-flood": {"peers": 150, "hours": 0.25, "ttl": 4, "delta": 30.0},
    },
}

#: Recorded outputs of the default seeds at bench scale.  Every other
#: seed is held to the self-consistency checks alone.
EXPECTED = {
    ("bench", "paper-pipeline", 20040315): {
        "connections": 55446, "hop1_queries": 81143,
        "table2": {
            "initial_queries": 81143, "initial_sessions": 55446,
            "rule1_removed_queries": 21199, "rule2_removed_queries": 41425,
            "rule3_removed_queries": 3169, "rule3_removed_sessions": 39003,
            "final_queries": 15350, "final_sessions": 16443,
            "rule4_removed_queries": 6484, "rule5_removed_queries": 1002,
            "final_interarrival_queries": 7864,
        },
    },
    ("bench", "workload-stream", 404): {
        "unthrottled_events": 836158,
        "unthrottled_digest": "34280d144fba59b0bd4bd82f653a065eb501f7ee5aae245311a005e55e0e9403",
        "paced_events": 1635794,
        "paced_digest": "7f066c9738b32ab2a0acbf81164ec719ef542d6867c48dcbfc919ed6fd37b5d8",
    },
    ("bench", "overlay-flood", 11): {
        "rounds": 121, "queries": 7003, "messages": 11311459, "hits": 51574,
        "peers": 16235,
    },
}

EXPERIMENT_IDS = (
    "T1", "T2", "T3", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9",
    "F10", "F11", "TA1", "TA2", "TA3", "TA4", "TA5", "FA1", "G1", "X1", "X2",
    "X3", "X4", "C1",
)
COMMANDS = ("synthesize", "analyze", "experiments", "serve", "overlay")

#: Per-layer metrics: name -> unit.  Counts marked exact must repeat
#: exactly across the traced repetitions of a run.
PER_LAYER = {
    "synthesis.shard_s": "s", "synthesis.connections": "count",
    "synthesis.queries": "count",
    "measurement.spill_s": "s", "measurement.npz_write_s": "s",
    "measurement.spill_bytes": "bytes",
    "measurement.load_s": "s", "filtering.filter_s": "s",
    "filtering.queries_in": "count", "filtering.queries_kept": "count",
    "analysis.reduce_s": "s",
    "measurement.concat_s": "s", "experiments.records_s": "s",
    "experiments.record_filter_s": "s",
    **{f"experiments.{eid}_s": "s" for eid in EXPERIMENT_IDS},
    "core.fitting_s": "s", "core.fitting_calls": "count",
    "core.generate_s": "s", "core.windows": "count", "core.events": "count",
    "service.encode_s": "s", "service.decode_s": "s", "service.read_wait_s": "s",
    "service.frames": "count", "service.bytes": "bytes",
    "service.frame_p50_ms": "ms", "service.frame_p99_ms": "ms",
    "service.frame_samples": "count",
    "service.backpressure_waits": "count", "service.buffered_frames_peak": "count",
    "service.schedule_slip_s": "s", "service.clients_incomplete": "count",
    "gnutella.flood_s": "s", "gnutella.churn_s": "s", "gnutella.rest_s": "s",
    "gnutella.rounds": "count", "gnutella.queries": "count",
    "gnutella.messages": "count", "gnutella.hits": "count",
    **{f"runtime.{cmd}_cpu_s": "s" for cmd in COMMANDS},
    **{f"runtime.{cmd}_wall_s": "s" for cmd in COMMANDS},
    "runtime.synthesize_s": "s", "runtime.analyze_s": "s",
    "runtime.experiments_s": "s", "runtime.stream_rss_mb": "MiB",
    "service.events_per_s": "events/s", "gnutella.simulate_s": "s",
    "trace.overhead_pct": "%", "trace.spans": "count",
}
EXACT_COUNTS = (
    "synthesis.connections", "synthesis.queries", "measurement.spill_bytes",
    "filtering.queries_in", "filtering.queries_kept", "core.fitting_calls",
    "core.windows", "core.events", "service.frames", "service.bytes",
    "gnutella.rounds", "gnutella.queries", "gnutella.messages", "gnutella.hits",
    "trace.spans",
)
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MiB"}


def median(values):
    return statistics.median(values) if values else None


class Failure(Exception):
    """An operation whose output check failed."""


class Launcher:
    """Starts ``child.py`` processes and collects their results."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def spec(self, command: str, argv=None, **extra) -> Path:
        self.count += 1
        spec = {
            "command": command, "argv": argv or [],
            "result": str(self.work / f"result-{self.count}.json"),
            "run_id": f"{command}-{self.count}", **extra,
        }
        path = self.work / f"spec-{self.count}.json"
        path.write_text(json.dumps(spec))
        return path

    def start(self, spec_path: Path, stdout=subprocess.DEVNULL):
        # stderr goes to a file: a pipe nobody drains while subscribers
        # read could fill and stall the server.
        with open(spec_path.with_suffix(".stderr"), "wb") as err:
            launch_ns = time.monotonic_ns()
            return subprocess.Popen(
                [sys.executable, str(CHILD), str(spec_path), str(launch_ns)],
                stdout=stdout, stderr=err, cwd=str(ROOT),
            )

    def finish(self, proc, spec_path: Path) -> dict:
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise Failure(f"{spec_path.name}: timed out after {CHILD_TIMEOUT_S} s")
        spec = json.loads(spec_path.read_text())
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.exists():
            err = spec_path.with_suffix(".stderr").read_text(errors="replace")
            tail = err.strip().splitlines()[-5:]
            raise Failure(f"{spec['command']} exited {proc.returncode}: {' | '.join(tail)}")
        result = json.loads(result_path.read_text())
        if "first" not in result["marks"]:
            raise Failure(f"{spec['command']} never reached its first layer call")
        if "layer_s" in result:
            check_layer_times(result)
        return result

    def run(self, command: str, argv=None, **extra) -> dict:
        path = self.spec(command, argv, **extra)
        return self.finish(self.start(path), path)


def setup_of(result: dict) -> float:
    return (result["marks"]["first"] - result["launch_ns"]) / 1e9


def work_of(result: dict) -> float:
    return (result["marks"]["end"] - result["marks"]["first"]) / 1e9


def wall_of(result: dict) -> float:
    return (result["marks"]["end"] - result["launch_ns"]) / 1e9


def check_layer_times(result: dict) -> None:
    """A stage's layer self times sum to no more than its duration.

    The stage marks are clocked apart from the spans, so layer time
    spent before a stage starts, or outside it, shows here.
    """
    for stage, duration in (("setup", setup_of(result)), ("work", work_of(result))):
        layers = result["layer_s"][stage]
        if layers > duration + 1e-6:
            raise Failure(f"{result['command']}: layer self times {layers:.4f} s exceed "
                          f"the {stage} stage's {duration:.4f} s")


def fsync_tree(root: Path) -> None:
    for path in sorted(root.rglob("*")):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


class Workload:
    """Repetitions of one workload, their checks and their metrics."""

    #: The user commands a repetition runs, in order.
    commands: tuple = ()
    #: Rounds of set-up-only launches after each untraced repetition.
    setup_rounds = 0

    def __init__(self, scale_name: str, seed: int, launcher: Launcher, traced_run: bool):
        self.traced_run = traced_run
        self.scale_name = scale_name
        self.scale = SCALES[scale_name][self.name]
        self.seed = seed
        self.launcher = launcher
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = {}
        self.setups = {command: [] for command in self.commands}
        self.work = []  # untraced stage times, one per repetition
        self.rss = []  # untraced peak RSS of the largest process, in MiB
        self.traced_reps = []  # per-layer dicts, one per traced repetition
        self.untraced_run_s = []
        self.traced_run_s = []
        self.notes = {}  # extra run-record fields
        self.trace_spans = []  # every span of the traced repetitions

    def operation(self, label: str, fn, *args, **kwargs):
        """Run one user-visible operation; a failed check is a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Failure as exc:
            self.failed += 1
            self.errors.append(f"{label}: {exc}")
            return None

    def same(self, key: str, value) -> None:
        """Exact outputs repeat across repetitions and match recorded ones."""
        expected = EXPECTED.get((self.scale_name, self.name, self.seed), {})
        if key in expected and expected[key] != value:
            raise Failure(f"{key} = {value!r}, recorded {expected[key]!r}")
        first = self.reference.setdefault(key, value)
        if first != value:
            raise Failure(f"{key} = {value!r} differs from an earlier repetition ({first!r})")

    def sizes(self) -> dict:
        return dict(self.scale)

    def launch_args(self, command: str):
        """``(argv, extra spec fields)`` of one launch of ``command``."""
        raise NotImplementedError

    def setup_round(self) -> None:
        """One set-up-only launch of each command."""
        for command in self.commands:
            argv, extra = self.launch_args(command)
            result = self.operation(f"{command} set-up", self.launcher.run, command, argv,
                                    setup_only=True, **extra)
            if result is not None:
                self.setups[command].append(setup_of(result))

    def setup_s(self):
        if not all(self.setups.values()):
            return None
        return sum(median(samples) for samples in self.setups.values())

    def has_samples(self) -> bool:
        return bool(self.work) and self.setup_s() is not None

    def raw_samples(self) -> dict:
        return {**{f"{cmd}.setup": v for cmd, v in self.setups.items()},
                "work": self.work, "rss": self.rss}

    def layers_of(self, results) -> dict:
        """Sum self times and counts over one repetition's children."""
        out = {}
        for result in results:
            for name, value in result.get("self_s", {}).items():
                if name.startswith("runtime."):
                    continue  # the command's root span, reported as wall time
                key = f"{name}_s"
                out[key] = out.get(key, 0.0) + value
            for name, value in result.get("counts", {}).items():
                out[name] = out.get(name, 0) + value
            out["trace.spans"] = out.get("trace.spans", 0) + len(result["spans"])
            self.trace_spans.extend(result["spans"])
            cmd = result["command"]
            out[f"runtime.{cmd}_cpu_s"] = out.get(f"runtime.{cmd}_cpu_s", 0.0) + result["cpu_s"]
            out[f"runtime.{cmd}_wall_s"] = out.get(f"runtime.{cmd}_wall_s", 0.0) + wall_of(result)
        return out

    def per_layer(self) -> dict:
        values = {name: 0 for name in PER_LAYER}
        reps = self.traced_reps
        self.attempted += 1  # the exact counts repeat across traced repetitions
        differing = []
        for name in PER_LAYER:
            samples = [rep[name] for rep in reps if name in rep]
            if not samples:
                continue
            if name in EXACT_COUNTS:
                if len(set(samples)) != 1:
                    differing.append(f"{name} {samples}")
                values[name] = samples[0]
            else:
                values[name] = median(samples)
        if differing:
            self.failed += 1
            self.errors.append("counts differ across repetitions: " + "; ".join(differing))
        if self.traced_run_s and self.untraced_run_s:
            values["trace.overhead_pct"] = 100.0 * (
                median(self.traced_run_s) / median(self.untraced_run_s) - 1.0
            )
        values.update(self.extra_layers())
        return values

    def extra_layers(self) -> dict:
        return {}


class PaperPipeline(Workload):
    name = "paper-pipeline"
    commands = ("synthesize", "analyze", "experiments")
    setup_rounds = 2

    def __init__(self, *args):
        super().__init__(*args)
        self.stage_s = {cmd: [] for cmd in self.commands}
        self.stream_rss = []

    def launch_args(self, command: str, cache: Path = None):
        cache = cache or self.launcher.work / "cache-setup"
        if command == "analyze":
            return None, {"scale": {**self.scale, "seed": self.seed, "cache_dir": str(cache)}}
        s = self.scale
        head = ["synthesize"] if command == "synthesize" else ["experiment", "all"]
        return [*head, "--stream", "--days", repr(s["days"]), "--rate", repr(s["rate"]),
                "--seed", str(self.seed), "--shard-hours", repr(s["shard_hours"]),
                "--cache-dir", str(cache)], {}

    def _launch(self, command: str, cache: Path, traced: bool) -> dict:
        argv, extra = self.launch_args(command, cache)
        return self.launcher.run(command, argv, trace=traced, **extra)

    def _synthesize(self, cache: Path, traced: bool) -> dict:
        result = self._launch("synthesize", cache, traced)
        match = re.search(r"synthesized (\d+) connections, (\d+) hop-1 queries",
                          result["stdout"])
        if match is None:
            raise Failure("synthesize printed no summary line")
        self.same("connections", int(match.group(1)))
        self.same("hop1_queries", int(match.group(2)))
        fsync_tree(cache)
        return result

    def _analyze(self, cache: Path, traced: bool) -> dict:
        result = self._launch("analyze", cache, traced)
        self.same("table2", result["captured"]["table2"])
        return result

    def _experiments(self, cache: Path, traced: bool, table2) -> dict:
        result = self._launch("experiments", cache, traced)
        ran = re.findall(r"^== (\w+):", result["stdout"], flags=re.M)
        if tuple(ran) != EXPERIMENT_IDS:
            raise Failure(f"experiment all ran {ran}")
        if result["captured"].get("table2") != table2:
            raise Failure("Table 2 of the experiments stage differs from the streamed one")
        return result

    def rep(self, index: int, traced: bool) -> None:
        cache = self.launcher.work / f"cache-{index}"
        try:
            synth = self.operation("synthesize", self._synthesize, cache, traced)
            if synth is None:
                return
            analyze = self.operation("analyze", self._analyze, cache, traced)
            if analyze is None:
                return
            table2 = analyze["captured"]["table2"]
            exps = self.operation("experiments", self._experiments, cache, traced, table2)
            if exps is None:
                return
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        results = {"synthesize": synth, "analyze": analyze, "experiments": exps}
        total = sum(work_of(result) for result in results.values())
        (self.traced_run_s if traced else self.untraced_run_s).append(total)
        if traced:
            self.traced_reps.append(self.layers_of(results.values()))
            return
        for command, result in results.items():
            self.setups[command].append(setup_of(result))
            self.stage_s[command].append(work_of(result))
        self.work.append(total)
        self.rss.append(exps["peak_rss_mb"])
        self.stream_rss.append(max(synth["peak_rss_mb"], analyze["peak_rss_mb"]))

    def extra_layers(self) -> dict:
        out = {f"runtime.{cmd}_s": median(self.stage_s[cmd]) or 0 for cmd in self.commands}
        out["runtime.stream_rss_mb"] = median(self.stream_rss) or 0
        return out

    def details(self) -> list:
        return [
            ("setup_s", self.setup_s(), "s"),
            ("synthesize_s", median(self.stage_s["synthesize"]), "s"),
            ("analyze_s", median(self.stage_s["analyze"]), "s"),
            ("experiments_s", median(self.stage_s["experiments"]), "s"),
            ("work_s", median(self.work), "s"),
            ("stream_rss_mb", median(self.stream_rss), "MiB"),
            ("peak_rss_mb", median(self.rss), "MiB"),
        ]

    def raw_samples(self) -> dict:
        return {**super().raw_samples(), **{f"{cmd}.work": v for cmd, v in self.stage_s.items()}}


class WorkloadStream(Workload):
    name = "workload-stream"
    commands = ("serve",)
    setup_rounds = 3

    def __init__(self, *args):
        super().__init__(*args)
        self.events_per_s = []
        self.latencies_ns = []  # one per distinct stamped frame
        self.max_threads = 0
        # The paced phase feeds only per-layer metrics, so untraced runs
        # spend their time on unthrottled broadcasts (more samples).
        self.paced_phase = self.traced_run

    def launch_args(self, command: str, paced: bool = False):
        s = self.scale
        argv = ["serve", "--peers", str(s["peers"]), "--seed", str(self.seed),
                "--window-seconds", repr(s["window_seconds"]),
                "--batch-sessions", str(s["batch_sessions"]),
                "--buffer-frames", str(s["buffer_frames"]),
                "--start-clients", str(s["clients"])]
        if paced:
            argv += ["--frames", str(s["paced_frames"]), "--rate", repr(s["paced_rate"]),
                     "--burst", repr(s["paced_burst"]), "--stamps"]
        else:
            argv += ["--frames", str(s["frames"])]
        return argv, {}

    def _broadcast(self, paced: bool, traced: bool):
        from subscriber import subscribe

        launcher = self.launcher
        path = launcher.spec("serve", self.launch_args("serve", paced)[0], trace=traced)
        proc = launcher.start(path, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline().decode()
            if not line.startswith("PORT "):
                raise Failure(f"serve did not report a port (got {line!r})")
            report, probe = subscribe("127.0.0.1", int(line.split()[1]), self.scale["clients"],
                                      traced, timeout=CHILD_TIMEOUT_S)
        except (Failure, OSError, ValueError, EOFError) as exc:
            proc.kill()
            proc.wait()
            raise Failure(f"subscribing failed: {exc!r}") from exc
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        server = launcher.finish(proc, path)
        latencies = self._check(paced, report, probe, server)
        return server, report, probe, latencies

    def _check(self, paced: bool, report: dict, probe, server: dict) -> list:
        phase = "paced" if paced else "unthrottled"
        clients = report["per_client"]
        if report["complete_clients"] != len(clients):
            raise Failure(f"{len(clients) - report['complete_clients']} {phase} "
                          f"subscriber(s) saw no END frame")
        produced = server["captured"]["server"]["events_produced"]
        for client in clients:
            if client["events"] != produced:
                raise Failure(f"{phase}: delivered {client['events']} events, produced {produced}")
        if len(probe.digests) != len(clients):
            raise Failure(f"{phase}: {len(probe.digests)} of {len(clients)} streams ended")
        for digest in probe.digests:
            self.same(f"{phase}_digest", digest)
        self.same(f"{phase}_events", produced)
        self.max_threads = max(self.max_threads, probe.threads)
        self.notes.update(subscriber_threads=self.max_threads, subscriber_connections=len(clients))
        if self.max_threads > len(os.sched_getaffinity(0)):
            raise Failure(f"subscriber process ran {self.max_threads} threads, more than the CPUs")
        # One latency per stamped frame: until every subscriber decoded it.
        per_client = probe.latencies_ns
        seqs = sorted(set.intersection(*(set(lat) for lat in per_client))) if per_client else []
        return [max(lat[seq] for lat in per_client) for seq in seqs]

    @staticmethod
    def _span_s(report: dict) -> float:
        clients = report["per_client"]
        return (max(c["finished_ns"] for c in clients)
                - min(c["started_ns"] for c in clients)) / 1e9

    def rep(self, index: int, traced: bool) -> None:
        fast = self.operation("unthrottled broadcast", self._broadcast, False, traced)
        paced = None
        if self.paced_phase:
            paced = self.operation("paced broadcast", self._broadcast, True, traced)
        if fast is None or (self.paced_phase and paced is None):
            return
        fast_server, fast_report, fast_probe, _ = fast
        span = self._span_s(fast_report)
        (self.traced_run_s if traced else self.untraced_run_s).append(span)
        if paced is not None:
            self.latencies_ns.extend(paced[3])
        if traced:
            paced_server, paced_report, paced_probe, _ = paced
            layers = self.layers_of([fast_server, paced_server])
            clients = fast_report["per_client"] + paced_report["per_client"]
            decode = (fast_probe.decode_ns + paced_probe.decode_ns) / 1e9
            busy = sum((c["finished_ns"] - c["started_ns"]) / 1e9 for c in clients)
            # The bucket starts full, so the first burst leaves at once.
            ideal = max(paced_server["captured"]["server"]["events_produced"]
                        - self.scale["paced_burst"], 0) / self.scale["paced_rate"]
            stats = [fast_server["captured"]["server"], paced_server["captured"]["server"]]
            layers.update({
                "service.decode_s": decode,
                "service.read_wait_s": busy - decode,
                "service.frames": sum(c["frames"] for c in clients),
                "service.bytes": sum(c["bytes"] for c in clients),
                "service.backpressure_waits": sum(st["backpressure_waits"] for st in stats),
                "service.buffered_frames_peak": max(st["buffered_frames_peak"] for st in stats),
                "service.schedule_slip_s": self._span_s(paced_report) - ideal,
                "service.clients_incomplete": sum(1 for c in clients if not c["complete"]),
            })
            self.traced_reps.append(layers)
        else:
            self.setups["serve"].append(setup_of(fast_server))
            self.rss.append(fast_server["peak_rss_mb"])
            self.work.append(span)
            self.events_per_s.append(fast_report["events_total"] / span)

    @staticmethod
    def _percentile_ms(latencies_ns, q):
        import numpy as np

        if not latencies_ns:
            return 0
        return float(np.percentile(np.asarray(latencies_ns, dtype=np.float64), q)) / 1e6

    def extra_layers(self) -> dict:
        samples = self.latencies_ns
        self.attempted += 1  # enough stamped frames for the p99
        if len(samples) < self.scale["min_stamped_frames"]:
            self.failed += 1
            self.errors.append(f"{len(samples)} stamped frames decoded, fewer than "
                               f"{self.scale['min_stamped_frames']}")
        return {
            "service.events_per_s": median(self.events_per_s) or 0,
            "service.frame_p50_ms": self._percentile_ms(samples, 50),
            "service.frame_p99_ms": self._percentile_ms(samples, 99),
            "service.frame_samples": len(samples),
        }

    def details(self) -> list:
        return [
            ("setup_s", self.setup_s(), "s"),
            ("events_per_s", median(self.events_per_s), "events/s"),
            ("work_s", median(self.work), "s"),
            ("peak_rss_mb", median(self.rss), "MiB"),
        ]


class OverlayFlood(Workload):
    name = "overlay-flood"
    commands = ("overlay",)
    setup_rounds = 2

    def launch_args(self, command: str):
        s = self.scale
        return ["overlay", "--peers", str(s["peers"]), "--hours", repr(s["hours"]),
                "--seed", str(self.seed), "--ttl", str(s["ttl"]), "--delta", repr(s["delta"])], {}

    def _overlay(self, traced: bool) -> dict:
        result = self.launcher.run("overlay", self.launch_args("overlay")[0], trace=traced)
        for key, value in result["captured"]["overlay"].items():
            self.same(key, value)
        return result

    def rep(self, index: int, traced: bool) -> None:
        result = self.operation("overlay", self._overlay, traced)
        if result is None:
            return
        marks = result["marks"]
        simulate_s = (marks["simulated"] - marks["simulate"]) / 1e9
        (self.traced_run_s if traced else self.untraced_run_s).append(simulate_s)
        if traced:
            layers = self.layers_of([result])
            layers["gnutella.rest_s"] = (simulate_s - layers.get("gnutella.flood_s", 0.0)
                                         - layers.get("gnutella.churn_s", 0.0))
            overlay = result["captured"]["overlay"]
            for key in ("rounds", "queries", "messages", "hits"):
                layers[f"gnutella.{key}"] = overlay[key]
            self.traced_reps.append(layers)
        else:
            self.setups["overlay"].append(setup_of(result))
            self.work.append(simulate_s)
            self.rss.append(result["peak_rss_mb"])

    def extra_layers(self) -> dict:
        return {"gnutella.simulate_s": median(self.work) or 0}

    def details(self) -> list:
        return [
            ("setup_s", self.setup_s(), "s"),
            ("simulate_s", median(self.work), "s"),
            ("work_s", median(self.work), "s"),
            ("peak_rss_mb", median(self.rss), "MiB"),
        ]


WORKLOAD_TYPES = {cls.name: cls for cls in (PaperPipeline, WorkloadStream, OverlayFlood)}


def measure(workload: Workload, seconds: float, traced: bool) -> int:
    """Repeat until the next repetition would overrun ``seconds``.

    A traced run alternates untraced and traced repetitions, so the
    tracing overhead is measured against untraced ones of the same run.
    An untraced run follows each repetition with set-up-only launches.
    """
    start = time.monotonic()
    durations = []
    index = 0
    while True:
        rep_start = time.monotonic()
        workload.rep(index, traced and index % 2 == 1)
        if not traced:
            for _ in range(workload.setup_rounds):
                workload.setup_round()
        durations.append(time.monotonic() - rep_start)
        index += 1
        if workload.failed and workload.attempted == workload.failed:
            break
        elapsed = time.monotonic() - start
        if index >= MIN_REPS and elapsed + median(durations) > seconds:
            break
    return index


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="all: every workload in turn, each --seconds long")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench",
                        help="input sizes (tiny: the self-test's)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(SRC))
    if args.workload != "all":
        return run_workload(args)
    for name in WORKLOADS:
        run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    return 0


def run_workload(args) -> int:
    """Measure one workload and print its metrics and result line."""
    from record import host_probe, run_record

    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOAD_TYPES[args.workload](args.scale, args.seed, Launcher(work),
                                             bool(args.trace))
    try:
        probe_before = host_probe()
        reps = measure(workload, args.seconds, bool(args.trace))
        probe_after = host_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    record = run_record(ROOT, args.workload, args.seed, workload.sizes())
    record.update({
        "scale": args.scale, "seconds": args.seconds, "trace": args.trace,
        "repetitions": reps, "held_out_seed": args.seed != DEFAULT_SEEDS[args.workload],
        "probe_before_s": probe_before, "probe_after_s": probe_after,
        "errors": workload.errors, "samples": workload.raw_samples(),
        "outputs": workload.reference, **workload.notes,
    })
    if workload.trace_spans:
        TRACES.mkdir(exist_ok=True)
        trace_file = TRACES / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        trace_file.write_text(json.dumps(workload.trace_spans))
        record["trace_file"] = str(trace_file.relative_to(ROOT))

    if args.trace:
        values = workload.per_layer() if workload.traced_reps else {}
        units = PER_LAYER
        for name, value in values.items():
            print(f"{args.workload} {name} {value} {PER_LAYER[name]}")
    else:
        values = {}
        units = END_TO_END
        if workload.has_samples():
            # Every workload's details include each end-to-end metric.
            for name, value, unit in workload.details():
                print(f"{args.workload} {name} {value} {unit}")
                if name in END_TO_END:
                    values[name] = value
    if len(values) != len(units) or any(v is None for v in values.values()):
        workload.failed = max(workload.failed, 1)
        values = {name: values.get(name) or 0 for name in units}
    for error in workload.errors:
        print(f"FAILED {error}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": workload.failed == 0,
        "attempted": max(workload.attempted, 1),
        "failed": workload.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
