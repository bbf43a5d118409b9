#!/usr/bin/env python
"""Quickstart: build an MST with o(m) communication and verify it.

This example walks through the library's public API on a single random
network:

1. generate a connected random communication graph;
2. run the paper's synchronous Build-MST (Theorem 1.1) and inspect its
   message/bit/round accounting;
3. verify the result against a sequential Kruskal ground truth;
4. run the classic GHS baseline and flooding on the same graph to see what
   the paper is being compared against.

Run with:  python examples/quickstart.py [n] [m] [seed]
"""

from __future__ import annotations

import sys

from repro import build_mst, build_st
from repro.analysis import format_table
from repro.baselines import flooding_spanning_tree, ghs_build_mst, kruskal_mst, mst_edge_keys
from repro.generators import random_connected_graph
from repro.verify import is_minimum_spanning_forest, is_spanning_forest


def main(argv: list[str]) -> int:
    n = int(argv[1]) if len(argv) > 1 else 64
    m = int(argv[2]) if len(argv) > 2 else min(n * n // 4, n * (n - 1) // 2)
    seed = int(argv[3]) if len(argv) > 3 else 2015

    print(f"Network: n = {n} nodes, m = {m} edges (seed {seed})")
    graph = random_connected_graph(n, m, seed=seed)

    # ---------------------------------------------------------------- #
    # 1. The paper's MST construction.
    # ---------------------------------------------------------------- #
    report = build_mst(graph, seed=seed)
    assert is_minimum_spanning_forest(report.forest), "construction must yield the MST"
    kruskal_keys = mst_edge_keys(kruskal_mst(graph))
    assert report.marked_edges == kruskal_keys, "must match the sequential ground truth"
    print(f"Build-MST: {report.phases} phases, "
          f"{report.messages:,} messages, {report.bits:,} bits, "
          f"{report.rounds_parallel:,} rounds")
    print(f"           MST weight = {report.forest.total_marked_weight():,}, "
          f"{len(report.marked_edges)} tree edges")

    # ---------------------------------------------------------------- #
    # 2. The spanning-tree (broadcast tree) construction.
    # ---------------------------------------------------------------- #
    st_graph = random_connected_graph(n, m, seed=seed)
    st_report = build_st(st_graph, seed=seed)
    assert is_spanning_forest(st_report.forest)
    print(f"Build-ST : {st_report.phases} phases, {st_report.messages:,} messages")

    # ---------------------------------------------------------------- #
    # 3. The baselines the paper improves on.
    # ---------------------------------------------------------------- #
    ghs_graph = random_connected_graph(n, m, seed=seed)
    ghs_report = ghs_build_mst(ghs_graph)
    flood_graph = random_connected_graph(n, m, seed=seed)
    _, flood_acct = flooding_spanning_tree(flood_graph)

    rows = [
        ["KKT Build-MST (Thm 1.1)", report.messages, f"{report.messages / m:.2f}"],
        ["KKT Build-ST  (Thm 1.1)", st_report.messages, f"{st_report.messages / m:.2f}"],
        ["GHS 1983 MST baseline", ghs_report.messages, f"{ghs_report.messages / m:.2f}"],
        ["Flooding ST baseline", flood_acct.messages, f"{flood_acct.messages / m:.2f}"],
        ["m (folk-theorem floor)", m, "1.00"],
    ]
    print()
    print(format_table(["algorithm", "messages", "messages / m"], rows,
                       title="Construction cost comparison"))
    print()
    print("Note: the KKT constructions are asymptotically o(m); on complete graphs")
    print("Build-ST beats flooding from n = 64 and Build-MST overtakes GHS between")
    print("n = 128 and 256 (the construction-crossover claim: python -m repro.claims).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
