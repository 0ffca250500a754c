"""Run one user command in a fresh process and report how it went.

Usage (by ``run.py``, never by hand)::

    python3 perfbench/child.py SPEC.json LAUNCH_NS

``LAUNCH_NS`` is the parent's ``time.monotonic_ns()`` taken just before
it started this process; CLOCK_MONOTONIC is system-wide on Linux, so
``first call - launch`` is the set-up time the user pays (interpreter
start, imports, argument parsing).  The command is the real CLI entry
(``repro.cli.main``) except ``analyze``, which opens the cached shards
and runs ``run_streaming`` the way ``experiment T2 F1 ... F11 --stream``
does, without the experiment layer.

Untraced, the only wrappers are markers (two clock reads) and result
captures.  Traced (``"trace": true``), every layer entry point in
``LAYERS`` is also wrapped in a span.  With ``"setup_only": true`` the
process stops at the first layer call, so it measures set-up alone.
The result -- marks, process CPU and peak RSS, captured outputs and,
when traced, per-layer self times and counts, and the layer self time
spent in set-up and in the stage after it -- is written as JSON to
``spec["result"]``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from repro.core.runtime import peak_rss_mb  # noqa: E402
from tracer import Tracer, observe_wrapper, replace_everywhere, span_wrapper  # noqa: E402

_REDUCERS = (
    "StreamingGeographic", "StreamingSharedFiles", "StreamingQueryLoad",
    "StreamingPassiveFraction", "StreamingPassiveDurations", "StreamingActive",
    "StreamingPopularity",
)
_FITTERS = (
    "fit_lognormal", "fit_lognormal_truncated", "fit_lognormal_discrete",
    "fit_weibull", "fit_weibull_truncated", "fit_pareto", "fit_zipf",
    "fit_zipf_body_tail", "fit_spliced",
)


def _count_shard(tracer, args, kwargs, part):
    tracer.counts["synthesis.connections"] += int(part.n_connections)
    tracer.counts["synthesis.queries"] += int(part.n_queries)


def _count_npz(tracer, args, kwargs, _):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tracer.counts["measurement.spill_bytes"] += os.path.getsize(path)


def _count_filter(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["filtering.queries_in"] += int(result.report.initial_queries)
        tracer.counts["filtering.queries_kept"] += int(result.report.final_queries)


def _count_generate(tracer, args, kwargs, workload):
    tracer.counts["core.windows"] += 1
    tracer.counts["core.events"] += int(workload.n_sessions + workload.n_queries)


def _count_fit(tracer, args, kwargs, _):
    tracer.counts["core.fitting_calls"] += 1


def _experiment_span(args, kwargs):
    return f"experiments.{args[0] if args else kwargs['experiment_id']}"


#: (span name, module, attribute path, counter hook).  Every entry must
#: resolve: a renamed entry point fails the run instead of going unseen.
LAYERS = (
    ("synthesis.shard", "repro.synthesis.columnar_engine", "ColumnarShardEngine.run", _count_shard),
    ("measurement.spill", "repro.measurement.shards", "ShardWriter.append", None),
    ("measurement.npz_write", "repro.measurement.columnar", "ColumnarTrace.save_npz", _count_npz),
    ("measurement.load", "repro.measurement.shards", "ShardedTrace.load_shard", None),
    ("measurement.concat", "repro.measurement.shards", "ShardedTrace.concat", None),
    ("filtering.filter", "repro.filtering.streaming", "StreamingFilter.push", _count_filter),
    ("filtering.filter", "repro.filtering.streaming", "StreamingFilter.finish", _count_filter),
    *(
        ("analysis.reduce", "repro.analysis.streaming", f"{cls}.{method}", None)
        for cls in _REDUCERS
        for method in ("update", "finalize")
    ),
    ("experiments.records", "repro.measurement.columnar", "ColumnarTrace.to_trace", None),
    ("experiments.record_filter", "repro.filtering.pipeline", "apply_filters", None),
    (_experiment_span, "repro.experiments.registry", "run_experiment", None),
    *(("core.fitting", "repro.core.fitting", name, _count_fit) for name in _FITTERS),
    ("core.generate", "repro.core.generator_columnar", "generate_columnar_workload", _count_generate),
    ("service.encode", "repro.service.stream", "encode_batch", None),
    ("gnutella.flood", "repro.gnutella.columnar_overlay", "flood_queries", None),
    ("gnutella.churn", "repro.gnutella.topology", "CSRTopology.add_nodes", None),
    ("gnutella.churn", "repro.gnutella.topology", "CSRTopology.connect", None),
    ("gnutella.churn", "repro.gnutella.topology", "CSRTopology.remove_nodes", None),
)

#: Modules each command needs before its first layer call; importing them
#: up front keeps every import inside the measured set-up time.
IMPORTS = {
    "synthesize": ("repro.cli", "repro.synthesis", "repro.measurement.shards"),
    "analyze": ("repro.synthesis", "repro.analysis.streaming", "repro.analysis.summary"),
    "experiments": ("repro.cli", "repro.experiments", "repro.analysis.streaming"),
    "serve": ("repro.cli", "repro.service"),
    "overlay": ("repro.cli", "repro.gnutella.columnar_overlay", "repro.gnutella.overlay_bench"),
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(f"{module_name}.{path} is not defined")
    return owner, attr


def _install_spans(tracer: Tracer) -> None:
    for layer in LAYERS:
        # Import every layer module, so replace_everywhere sees all the
        # modules that imported an entry point by name.
        importlib.import_module(layer[1])
    for name, module_name, path, count in LAYERS:
        owner, attr = _resolve(module_name, path)
        replace_everywhere(owner, attr, span_wrapper(tracer, name, count))


class SetupDone(BaseException):
    """Stops a set-up-only run at its first layer call."""


class Run:
    """Marks and captures of one command execution."""

    def __init__(self, setup_only: bool = False) -> None:
        self.setup_only = setup_only
        self.marks: dict = {}
        self.captured: dict = {}

    def mark(self, name: str) -> None:
        self.marks.setdefault(name, time.monotonic_ns())

    def first_call(self, *_) -> None:
        """Set-up ends here (usable as a ``before`` or an ``after`` hook)."""
        self.mark("first")
        if self.setup_only:
            raise SetupDone


def _analyze(run: Run, scale: dict) -> int:
    """Open the cached shards and run the streaming filter + reducers."""
    from repro.analysis.streaming import run_streaming
    from repro.analysis.summary import table2_comparison
    from repro.synthesis import SynthesisConfig, TraceCache

    config = SynthesisConfig(
        days=scale["days"], mean_arrival_rate=scale["rate"], seed=scale["seed"],
        shard_days=scale["shard_hours"] / 24.0,
    )
    sharded = TraceCache(scale["cache_dir"]).load_sharded(config)
    if sharded is None:
        print("no cached shards for this configuration", file=sys.stderr)
        return 1
    analysis = run_streaming(sharded)
    table2 = {row: values["ours"] for row, values in table2_comparison(analysis.report).items()}
    run.captured["table2"] = table2
    run.captured["active_sessions"] = len(analysis.active.views())
    print(f"analyzed {sharded.n_connections} connections in {sharded.n_shards} shard(s)")
    for row, value in table2.items():
        print(f"  {row}: {value}")
    return 0


def _install_markers(run: Run, command: str) -> None:
    """The markers and captures every run needs, traced or not."""
    if command == "synthesize":
        import repro.synthesis as synthesis

        replace_everywhere(synthesis, "load_or_synthesize_sharded",
                           observe_wrapper(before=run.first_call))
    elif command == "analyze":
        from repro.synthesis import TraceCache

        replace_everywhere(TraceCache, "load_sharded", observe_wrapper(before=run.first_call))
    elif command == "experiments":
        import repro.experiments.registry as registry

        def keep_t2(args, kwargs, result):
            if result.experiment_id == "T2":
                run.captured["table2"] = {row["measure"]: row["ours"] for row in result.rows}

        replace_everywhere(registry, "run_experiment",
                           observe_wrapper(before=run.first_call, after=keep_t2))
    elif command == "serve":
        from repro.service import WorkloadStreamServer

        def ready(args, kwargs, _):
            run.first_call()  # accepting subscribers
            sys.__stdout__.write(f"PORT {args[0].port}\n")
            sys.__stdout__.flush()

        def keep_stats(args, kwargs, stats):
            run.captured["server"] = stats.snapshot()

        replace_everywhere(WorkloadStreamServer, "start", observe_wrapper(after=ready))
        replace_everywhere(WorkloadStreamServer, "serve", observe_wrapper(after=keep_stats))
    elif command == "overlay":
        import repro.gnutella.columnar_overlay as overlay
        import repro.gnutella.overlay_bench as overlay_bench

        def simulated(args, kwargs, result):
            run.mark("simulated")
            run.captured["overlay"] = {
                "rounds": int(result.n_rounds),
                "queries": int(result.n_queries),
                "messages": int(result.messages_total),
                "hits": int(result.query_hits.sum()),
                "peers": int(result.peers_simulated),
            }

        # Set-up ends once the input workload is generated.
        replace_everywhere(overlay_bench, "overlay_workload",
                           observe_wrapper(after=run.first_call))
        replace_everywhere(overlay, "simulate_workload",
                           observe_wrapper(before=lambda: run.mark("simulate"), after=simulated))
    else:
        raise ValueError(f"unknown command {command!r}")


def _layer_s_by_stage(tracer: Tracer, root: int, first_ns: int) -> dict:
    """Layer self time (root span excluded) of the spans that start in
    set-up and of those that start after it."""
    out = {"setup": 0.0, "work": 0.0}
    for index, self_ns in enumerate(tracer.span_self_ns()):
        if index != root:
            stage = "setup" if tracer.spans[index][1] < first_ns else "work"
            out[stage] += self_ns / 1e9
    return out


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    launch_ns = int(argv[2])
    command = spec["command"]
    run = Run(setup_only=spec.get("setup_only", False))
    for name in IMPORTS[command]:
        importlib.import_module(name)
    tracer = Tracer(run_id=spec.get("run_id", "run")) if spec.get("trace") else None
    if tracer is not None:
        _install_spans(tracer)
    _install_markers(run, command)

    out = io.StringIO()
    root = tracer.open(f"runtime.{command}") if tracer is not None else None
    try:
        with contextlib.redirect_stdout(out):
            if command == "analyze":
                rc = _analyze(run, spec["scale"])
            else:
                from repro.cli import main as cli_main

                rc = cli_main(spec["argv"])
    except SetupDone:
        rc = 0
    run.mark("end")
    if tracer is not None:
        tracer.close(root)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "command": command,
        "rc": rc,
        "launch_ns": launch_ns,
        "marks": run.marks,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": peak_rss_mb(),
        "captured": run.captured,
        "stdout": out.getvalue(),
    }
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        result["layer_s"] = _layer_s_by_stage(tracer, root, run.marks.get("first", launch_ns))
        result["spans"] = tracer.export()
    Path(spec["result"]).write_text(json.dumps(result))
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
