#!/usr/bin/env python
"""Impromptu MST repair in a dynamic network (Theorem 1.2).

The scenario the paper's introduction motivates: a long-lived network whose
links come and go, which wants to keep a (minimum) spanning tree available
for broadcast at all times without re-flooding the whole network after every
change and without storing auxiliary data between changes.

The script

1. builds the MST of a random network;
2. generates a churn workload (link failures, link additions, weight
   changes);
3. processes it with the impromptu maintainer, printing the per-update
   message cost and checking the MST invariant after every update;
4. processes the same workload with the recompute-from-scratch baseline and
   compares the totals.

Run with:  python examples/dynamic_repair.py [n] [m] [updates] [seed]
"""

from __future__ import annotations

import sys

from repro import build_mst
from repro.analysis import format_table, summarize
from repro.baselines import RecomputeMaintainer
from repro.dynamic import TreeMaintainer, random_churn, tree_edge_deletions
from repro.generators import random_connected_graph
from repro.verify import is_minimum_spanning_forest


def main(argv: list[str]) -> int:
    n = int(argv[1]) if len(argv) > 1 else 64
    m = int(argv[2]) if len(argv) > 2 else min(8 * n, n * (n - 1) // 2)
    updates = int(argv[3]) if len(argv) > 3 else 12
    seed = int(argv[4]) if len(argv) > 4 else 7

    print(f"Dynamic network: n = {n}, m = {m}, {updates} link failures + repairs (seed {seed})")
    graph = random_connected_graph(n, m, seed=seed)
    report = build_mst(graph, seed=seed)
    print(f"Initial MST built with {report.messages:,} messages")

    # ---------------------------------------------------------------- #
    # Impromptu repair (the paper's contribution).
    # ---------------------------------------------------------------- #
    maintainer = TreeMaintainer(graph, report.forest, mode="mst", seed=seed)
    stream = tree_edge_deletions(graph, report.forest, count=updates // 2, seed=seed)
    stream.extend(random_churn(graph, count=updates // 2, seed=seed + 1))

    rows = []
    for update in stream:
        repair = maintainer.apply(update).report
        assert is_minimum_spanning_forest(report.forest), "MST invariant violated"
        rows.append(
            [
                update.kind.value,
                f"({update.u},{update.v})",
                _edges(repair.unmarked),
                "bridge" if repair.bridges else _edges(repair.marked),
                repair.cost.messages,
            ]
        )
    print()
    print(format_table(
        ["update", "edge", "left the tree", "joined the tree", "messages"],
        rows,
        title="Impromptu repair, update by update",
    ))

    impromptu_costs = maintainer.messages_per_wave()
    stats = summarize(impromptu_costs)
    print()
    print(f"Impromptu per-update messages: mean {stats.mean:.0f}, "
          f"median {stats.median:.0f}, max {stats.maximum:.0f} "
          f"(graph has m = {graph.num_edges} edges)")

    # ---------------------------------------------------------------- #
    # Baseline: recompute the MST after every update.
    # ---------------------------------------------------------------- #
    baseline_graph = random_connected_graph(n, m, seed=seed)
    baseline = RecomputeMaintainer(baseline_graph, mode="mst")
    baseline_costs = [baseline.apply_batch([update]).messages for update in stream]
    baseline_stats = summarize(baseline_costs)
    print(f"Recompute-from-scratch per-update messages: mean {baseline_stats.mean:.0f}, "
          f"max {baseline_stats.maximum:.0f}")
    ratio = baseline_stats.mean / max(stats.mean, 1)
    print(f"==> impromptu repair is {ratio:.1f}x cheaper per update on this workload,")
    print("    while keeping zero auxiliary state between updates.")
    return 0


def _edges(edges) -> str:
    return " ".join(f"({edge.u},{edge.v})" for edge in edges) or "-"


if __name__ == "__main__":
    sys.exit(main(sys.argv))
