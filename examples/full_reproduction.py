"""Full reproduction in one script: synthesize, filter, characterize.

Walks the complete pipeline of the paper --

1. synthesize a measurement trace (the substitute for 40 days of live
   Gnutella measurement),
2. apply filter rules 1-5 (Section 3.3) and print the Table 2 accounting,
3. run every per-figure/table experiment and print paper-vs-measured rows.

Run:  python examples/full_reproduction.py [--days DAYS] [--rate RATE]
(the default quarter-day trace finishes in well under a minute; use
--days 2 --rate 0.35 for the scale the benchmarks use.)
"""

from __future__ import annotations

import argparse
import time

from repro.experiments import ALL_EXPERIMENTS, ExperimentContext, run_experiment
from repro.synthesis import SynthesisConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--days", type=float, default=0.5)
    parser.add_argument("--rate", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=20040315)
    args = parser.parse_args()

    config = SynthesisConfig(days=args.days, mean_arrival_rate=args.rate, seed=args.seed)
    ctx = ExperimentContext(config)

    start = time.time()
    print(f"synthesizing {args.days:g} days at {args.rate:g} connections/second ...")
    trace = ctx.shards
    print(f"  {trace.n_connections} connections, {trace.hop1_query_count()} hop-1 "
          f"queries ({time.time() - start:.1f}s)\n")

    for experiment_id in ALL_EXPERIMENTS:
        print(run_experiment(experiment_id, ctx).render())
        print()
    print(f"total {time.time() - start:.1f}s")


if __name__ == "__main__":
    main()
