"""Evaluating search designs with the synthetic workload.

The paper motivates its characterization with exactly this use case:
"Chawathe et al. use simulations of client query behavior to evaluate a
new overlay network architecture and a new biased random walk search
protocol."  This example replays an hour of the Figure 12 workload
through the simulated Gnutella overlay -- each session a peer that
joins, floods its queries and leaves -- once per flooding horizon, and
compares TTL 1 to 4 on messages per query and hit rate (the share of
queries answered at least once).

Run:  python examples/evaluate_search_designs.py
"""

from __future__ import annotations

from repro.gnutella import OverlayConfig, simulate_workload
from repro.gnutella.overlay_bench import overlay_workload

N_PEERS = 300
RUN_SECONDS = 3600.0
TTLS = (1, 2, 3, 4)


def run_design(workload, ttl: int) -> dict:
    """Flood the workload at one TTL; messages per query and hit rate."""
    result = simulate_workload(workload, RUN_SECONDS, config=OverlayConfig(ttl=ttl))
    n = max(result.n_queries, 1)
    return {
        "label": f"flood TTL={ttl}",
        "queries": result.n_queries,
        "mean_messages": result.messages_total / n,
        "hit_rate": int((result.query_hits > 0).sum()) / n,
    }


def main() -> None:
    workload = overlay_workload(N_PEERS, RUN_SECONDS, seed=31)
    rows = [run_design(workload, ttl) for ttl in TTLS]
    print(f"flooding {rows[0]['queries']} workload queries from {N_PEERS} "
          f"steady-state peers (1 hour) at each horizon\n")
    print(f"{'design':14s} {'msgs/query':>12s} {'hit rate':>10s}")
    for row in rows:
        print(f"{row['label']:14s} {row['mean_messages']:12.1f} {row['hit_rate']:10.3f}")
    print(
        "\ntakeaway: the hit rate saturates within two hops while each "
        "further ring keeps adding messages -- the workload's queries are "
        "answered close to where they start."
    )


if __name__ == "__main__":
    main()
