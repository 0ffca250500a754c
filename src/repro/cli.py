"""Command-line interface: synthesize traces and reproduce experiments.

Usage examples::

    repro-p2p synthesize --days 2 --rate 0.3 --out trace.jsonl
    repro-p2p experiment F5 F6 --days 2 --rate 0.3
    repro-p2p experiment all
    repro-p2p generate --peers 200 --hours 4 --out workload.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-p2p",
        description=(
            "Reproduction of 'Characterizing the Query Behavior in Peer-to-Peer "
            "File Sharing Systems' (IMC 2004)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synthesize", help="synthesize a measurement trace")
    _add_scale_args(synth)
    synth.add_argument("--out", help="write the trace as JSON lines to this path")

    exp = sub.add_parser("experiment", help="run paper-reproduction experiments")
    exp.add_argument("ids", nargs="+", help="experiment ids (T1, F5, TA2, ...) or 'all'")
    _add_scale_args(exp)
    exp.add_argument("--analysis-jobs", type=_positive_int, default=1,
                     help="worker processes for the experiment fan-out (the trace "
                          "is synthesized once and shared via the cache file)")

    figs = sub.add_parser("figures", help="render the paper's figures as SVG")
    figs.add_argument("--outdir", default="figures", help="output directory")
    _add_scale_args(figs)

    cmp_parser = sub.add_parser(
        "compare", help="compare two archived traces' headline measures"
    )
    cmp_parser.add_argument("trace_a", help="first trace (JSONL)")
    cmp_parser.add_argument("trace_b", help="second trace (JSONL)")
    cmp_parser.add_argument("--tolerance", type=float, default=0.10,
                            help="max CCDF gap considered 'close'")

    lint = sub.add_parser(
        "lint", help="run the determinism/parallel-safety linter (repro.lint)"
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", dest="output_format",
                      help="report format (sarif for code-scanning upload)")
    lint.add_argument("--select", metavar="CODES",
                      help="comma-separated rule codes to run (default: all)")
    lint.add_argument("--ignore", metavar="CODES",
                      help="comma-separated rule codes to skip")
    lint.add_argument("--baseline", metavar="PATH",
                      help="baseline file overriding the pyproject setting")
    lint.add_argument("--no-baseline", action="store_true",
                      help="ignore any baseline; report every finding")
    lint.add_argument("--write-baseline", action="store_true",
                      help="write current findings to the baseline file "
                           "instead of failing on them")
    lint.add_argument("--root", metavar="DIR",
                      help="project root (default: nearest pyproject.toml)")

    ov = sub.add_parser(
        "overlay",
        help="flood a generated workload through the Gnutella overlay simulator",
    )
    ov.add_argument("--peers", type=int, default=200, help="steady-state peer count")
    ov.add_argument("--hours", type=float, default=0.5, help="simulated hours of churn")
    ov.add_argument("--seed", type=int, default=11)
    ov.add_argument("--jobs", type=_positive_int, default=1,
                    help="worker processes for the columnar flood fan-out "
                         "(output is identical for any value)")
    ov.add_argument("--ttl", type=int, default=4, help="query flood TTL")
    ov.add_argument("--delta", type=float, default=30.0, metavar="SECONDS",
                    help="churn round width in simulated seconds (part of the "
                         "simulation identity)")

    serve = sub.add_parser(
        "serve",
        help="stream the Fig. 12 workload to subscribers over TCP "
             "(one broadcast, then exit; see docs/SERVICE.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks an ephemeral port, printed "
                            "on startup)")
    serve.add_argument("--peers", type=int, default=2000,
                       help="steady-state peer count behind the stream")
    serve.add_argument("--seed", type=int, default=404)
    serve.add_argument("--window-seconds", type=float, default=900.0,
                       help="generation window width in simulated seconds")
    serve.add_argument("--batch-sessions", type=int, default=2048,
                       help="sessions per data frame")
    serve.add_argument("--frames", type=_positive_int, default=64,
                       help="data frames in the broadcast")
    serve.add_argument("--jobs", type=_positive_int, default=1,
                       help="generator worker processes (stream bytes are "
                            "identical for any value)")
    serve.add_argument("--rate", type=float, default=None, metavar="EVENTS_PER_S",
                       help="token-bucket offered-load cap in events/second "
                            "(default: as fast as subscribers drain)")
    serve.add_argument("--burst", type=float, default=None, metavar="EVENTS",
                       help="token-bucket burst capacity (default: one "
                            "second of --rate)")
    serve.add_argument("--buffer-frames", type=_positive_int, default=16,
                       help="per-client queue budget; a full queue pauses "
                            "generation (backpressure, never growth)")
    serve.add_argument("--start-clients", type=_positive_int, default=1,
                       help="subscribers to wait for before streaming")
    serve.add_argument("--stamps", action="store_true",
                       help="interleave STAMP latency probes (makes the "
                            "stream nondeterministic; see docs/SERVICE.md)")

    lt = sub.add_parser(
        "loadtest",
        help="drive N concurrent subscribers against a running serve "
             "instance and report aggregate throughput/latency",
    )
    lt.add_argument("--host", default="127.0.0.1")
    lt.add_argument("--port", type=int, required=True)
    lt.add_argument("--clients", type=_positive_int, default=4)
    lt.add_argument("--json", dest="json_out", metavar="PATH",
                    help="also write the full report as JSON to this path")

    gen = sub.add_parser("generate", help="generate a synthetic workload (Fig. 12)")
    gen.add_argument("--peers", type=int, default=200, help="steady-state peer count")
    gen.add_argument("--hours", type=float, default=1.0, help="workload length in hours")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--jobs", type=_positive_int, default=1,
                     help="worker processes for the columnar shard fan-out "
                          "(output is identical for any value)")
    gen.add_argument("--out", help="write the workload to this path: .npz for the "
                                   "compressed columnar archive, anything else for "
                                   "JSON lines (streamed, one session per line)")

    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--days", type=float, default=2.0, help="trace length in days")
    parser.add_argument("--rate", type=float, default=0.35, help="mean connections/second")
    parser.add_argument("--seed", type=int, default=20040315)
    parser.add_argument("--scenario", choices=("smoke", "laptop", "bench", "paper"),
                        help="named preset overriding --days/--rate")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="synthesis worker processes (shards the trace window)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="trace cache directory (default: $REPRO_P2P_CACHE or "
                             "~/.cache/repro-p2p/traces)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always synthesize fresh; do not read or write the cache")
    parser.add_argument("--stream", action="store_true",
                        help="out-of-core pipeline: synthesize into time-ordered "
                             "shards and analyze with single-pass streaming "
                             "reducers (bounded memory; identical output)")
    parser.add_argument("--shard-hours", type=float, default=24.0, metavar="H",
                        help="shard width for --stream, in trace hours "
                             "(default: 24, one shard per day)")
    parser.add_argument("--max-rss-mb", type=float, metavar="MB",
                        help="fail (exit 3) if the process's peak resident set "
                             "exceeds this many MiB")


def _scale_config(args):
    from dataclasses import replace

    from repro.synthesis import SynthesisConfig, scenario_config

    jobs = getattr(args, "jobs", 1)
    if getattr(args, "scenario", None):
        config = scenario_config(args.scenario, seed=args.seed, jobs=jobs)
    else:
        config = SynthesisConfig(
            days=args.days, mean_arrival_rate=args.rate, seed=args.seed, jobs=jobs
        )
    if getattr(args, "stream", False):
        config = replace(config, shard_days=args.shard_hours / 24.0)
    return config


def _check_rss(args) -> int:
    """Enforce ``--max-rss-mb``; returns the process exit code (0 or 3)."""
    from repro.core import peak_rss_mb

    limit = getattr(args, "max_rss_mb", None)
    if limit is None:
        return 0
    peak = peak_rss_mb()
    if peak > limit:
        print(f"peak RSS {peak:.0f} MiB exceeds --max-rss-mb {limit:g}",
              file=sys.stderr)
        return 3
    print(f"peak RSS {peak:.0f} MiB (budget {limit:g} MiB)")
    return 0


def _trace_cache(args):
    """The CLI's cache selection: None when disabled, else a TraceCache."""
    from repro.synthesis import TraceCache

    if getattr(args, "no_cache", False):
        return None
    return TraceCache(getattr(args, "cache_dir", None))


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "synthesize":
        return _cmd_synthesize(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadtest":
        return _cmd_loadtest(args)
    if args.command == "overlay":
        return _cmd_overlay(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def _cmd_synthesize(args) -> int:
    if args.stream:
        return _cmd_synthesize_stream(args)
    from repro.synthesis import TraceSynthesizer, load_or_synthesize

    config = _scale_config(args)
    cache = _trace_cache(args)
    if cache is None:
        trace = TraceSynthesizer(config).run()
    else:
        # load() distinguishes a usable entry from a missing/corrupt one,
        # so the hit/miss line reflects what actually happened.
        trace = cache.load(config)
        if trace is None:
            print(f"trace cache miss: {cache.path_for(config)}")
            trace = load_or_synthesize(config, cache=cache)
        else:
            print(f"trace cache hit: {cache.path_for(config)}")
    print(
        f"synthesized {trace.n_connections} connections, "
        f"{trace.hop1_query_count()} hop-1 queries over {trace.duration_days:g} days"
    )
    for name, value in sorted(trace.counters.items()):
        print(f"  {name}: {value}")
    if args.out:
        trace.to_jsonl(args.out)
        print(f"trace written to {args.out}")
    return _check_rss(args)


def _cmd_synthesize_stream(args) -> int:
    """``synthesize --stream``: shards on disk, never the full trace in RAM."""
    import tempfile

    from repro.synthesis import load_or_synthesize_sharded

    config = _scale_config(args)
    cache = _trace_cache(args)
    hit = cache is not None and cache.load_sharded(config) is not None
    if not hit:
        # This run synthesizes, so the engine loads here with the
        # command's other modules: the synthesis stage then times
        # synthesis, not compiling the engine's imports.
        import repro.synthesis.synthesizer  # noqa: F401
    workdir = None
    try:
        if cache is None:
            workdir = tempfile.mkdtemp(prefix="repro-p2p-stream-")
            sharded = load_or_synthesize_sharded(config, use_cache=False, workdir=workdir)
        else:
            print(f"trace cache {'hit' if hit else 'miss'}: "
                  f"{cache.shards_path_for(config)}")
            sharded = load_or_synthesize_sharded(config, cache=cache)
        print(
            f"synthesized {sharded.n_connections} connections, "
            f"{sharded.hop1_query_count()} hop-1 queries over "
            f"{sharded.duration_days:g} days in {sharded.n_shards} shard(s)"
        )
        for name, value in sorted(sharded.counters.items()):
            print(f"  {name}: {value}")
        if args.out:
            # Explicit opt-out of bounded memory: concatenation is
            # byte-identical to the single-file synthesis output.
            sharded.concat().to_trace().to_jsonl(args.out)
            print(f"trace written to {args.out}")
        return _check_rss(args)
    finally:
        if workdir is not None:
            import shutil

            shutil.rmtree(workdir, ignore_errors=True)


def _cmd_experiment(args) -> int:
    from repro.experiments import ALL_EXPERIMENTS, ExperimentContext, run_many

    ids = list(ALL_EXPERIMENTS) if "all" in args.ids else args.ids
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; known: {sorted(ALL_EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    ctx = ExperimentContext(
        _scale_config(args), cache=_trace_cache(args) or False, stream=args.stream
    )
    for result in run_many(ids, ctx, jobs=args.analysis_jobs):
        print(result.render())
        print()
    return _check_rss(args)


def _cmd_figures(args) -> int:
    from repro.experiments import ExperimentContext
    from repro.viz import render_all

    ctx = ExperimentContext(
        _scale_config(args), cache=_trace_cache(args) or False, stream=args.stream
    )
    paths = render_all(ctx, args.outdir)
    for path in paths:
        print(path)
    print(f"rendered {len(paths)} figures into {args.outdir}")
    return _check_rss(args)


def _cmd_compare(args) -> int:
    from repro.core.validation import compare_models
    from repro.filtering import apply_filters
    from repro.measurement import Trace

    def measures(path):
        trace = Trace.from_jsonl(path)
        filtered = apply_filters(trace.sessions)
        durations = [s.duration for s in filtered.sessions if s.is_passive]
        counts = [float(s.query_count) for s in filtered.sessions if not s.is_passive]
        gaps = filtered.interarrival_times()
        return durations, counts, gaps

    dur_a, cnt_a, gap_a = measures(args.trace_a)
    dur_b, cnt_b, gap_b = measures(args.trace_b)
    verdicts = compare_models(
        {
            "passive session duration": (dur_a, dur_b),
            "queries per active session": (cnt_a, cnt_b),
            "query interarrival time": (gap_a, gap_b),
        },
        tolerance=args.tolerance,
    )
    divergent = 0
    for verdict in verdicts:
        print(f"  {verdict}")
        divergent += 0 if verdict.close else 1
    print(f"{len(verdicts) - divergent}/{len(verdicts)} measures within tolerance")
    return 1 if divergent else 0


def _cmd_lint(args) -> int:
    from repro.lint import (
        find_project_root,
        format_json,
        format_sarif,
        format_text,
        load_config,
        run_lint,
        write_baseline_file,
    )

    root = find_project_root(args.root)
    config = load_config(root).with_overrides(
        select=_codes_arg(args.select),
        ignore=_codes_arg(args.ignore),
        baseline=args.baseline,
    )
    baseline = {} if (args.no_baseline or args.write_baseline) else None
    report = run_lint(args.paths, root, config=config, baseline=baseline,
                      cwd=Path.cwd())
    if args.write_baseline:
        if not config.baseline:
            print("no baseline path configured (pyproject or --baseline)",
                  file=sys.stderr)
            return 2
        out = write_baseline_file(report, root / config.baseline)
        print(f"baseline with {len(report.findings)} finding(s) written to {out}")
        return 0
    if args.output_format == "json":
        print(format_json(report))
    elif args.output_format == "sarif":
        print(format_sarif(report))
    else:
        print(format_text(report))
    return report.exit_code


def _codes_arg(text: Optional[str]) -> Optional[List[str]]:
    """``--select``/``--ignore`` comma lists, normalized; None passes through."""
    if text is None:
        return None
    return [c.strip().upper() for c in text.split(",") if c.strip()]


def _cmd_generate(args) -> int:
    from repro.core import SyntheticWorkloadGenerator, to_npz

    generator = SyntheticWorkloadGenerator(n_peers=args.peers, seed=args.seed, jobs=args.jobs)
    workload = generator.generate_columnar(args.hours * 3600.0)
    n_active = int((~workload.session_passive).sum())
    print(
        f"generated {workload.n_sessions} sessions ({n_active} active, "
        f"{workload.n_queries} queries) from {args.peers} steady-state peers"
    )
    if args.out:
        if args.out.endswith(".npz"):
            to_npz(workload, args.out)
        else:
            # Stream one session at a time through the canonical JSONL
            # schema (workload_io.session_record), so from_jsonl reads
            # the file back without the full session list in memory.
            from repro.core import to_jsonl

            to_jsonl(workload.iter_sessions(), args.out)
        print(f"workload written to {args.out}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import ServerConfig, StreamConfig, WorkloadStreamServer

    stream = StreamConfig(
        n_peers=args.peers,
        seed=args.seed,
        window_seconds=args.window_seconds,
        batch_sessions=args.batch_sessions,
        n_frames=args.frames,
        jobs=args.jobs,
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        buffer_frames=args.buffer_frames,
        start_clients=args.start_clients,
        rate_events_per_s=args.rate,
        burst_events=args.burst,
        stamps=args.stamps,
    )

    async def _run() -> int:
        server = WorkloadStreamServer(stream, config)
        await server.start()
        print(f"serving workload stream on {args.host}:{server.port} "
              f"(waiting for {config.start_clients} subscriber(s))",
              flush=True)
        stats = await server.serve()
        print(f"broadcast complete: {stats.frames_produced} frames, "
              f"{stats.events_produced} events, {stats.bytes_produced} bytes "
              f"to {stats.clients_accepted} client(s) "
              f"({stats.clients_completed} complete, "
              f"{stats.clients_dropped} dropped, "
              f"{stats.backpressure_waits} backpressure pauses)")
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        print("interrupted", file=sys.stderr)
        return 130


def _cmd_loadtest(args) -> int:
    from repro.service import LoadtestConfig, run_loadtest_sync

    report = run_loadtest_sync(
        LoadtestConfig(host=args.host, port=args.port, clients=args.clients)
    )
    print(f"{report['clients']} client(s): {report['events_total']} events "
          f"({report['frames_total']} data frames, {report['bytes_total']} "
          f"bytes) in {report['seconds']} s")
    print(f"  aggregate throughput: {report['events_per_second']} events/s, "
          f"{report['mib_per_second']} MiB/s")
    latency = report["latency"]
    if latency:
        print(f"  end-to-end latency: p50 {latency['p50_ms']} ms, "
              f"p95 {latency['p95_ms']} ms, p99 {latency['p99_ms']} ms "
              f"({latency['samples']} samples)")
    else:
        print("  end-to-end latency: no STAMP probes (serve without --stamps)")
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"  report written to {args.json_out}")
    if report["complete_clients"] != report["clients"]:
        print(f"only {report['complete_clients']}/{report['clients']} clients "
              f"saw the END frame", file=sys.stderr)
        return 1
    return 0


def _cmd_overlay(args) -> int:
    from dataclasses import replace

    from repro.gnutella.columnar_overlay import OverlayConfig, simulate_workload
    from repro.gnutella.overlay_bench import overlay_workload

    run_seconds = args.hours * 3600.0
    workload = overlay_workload(args.peers, run_seconds, seed=args.seed)
    config = replace(OverlayConfig(), ttl=args.ttl, delta_seconds=args.delta)
    result = simulate_workload(workload, run_seconds, config=config, jobs=args.jobs)
    print(
        f"simulated {result.peers_simulated} peers over {run_seconds:g} s "
        f"in {result.n_rounds} rounds (backend={result.backend})"
    )
    print(
        f"  {result.n_queries} queries flooded: {result.messages_total} "
        f"messages, {int(result.query_hits.sum())} hits"
    )
    print(
        f"  monitor: {result.hop1_session.size} hop-1 captures, "
        f"{result.keepalive_pings} keepalive pings / "
        f"{result.keepalive_pongs} pongs"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
