"""E11 — impromptu repair vs recompute-from-scratch under churn.

The pre-2015 alternatives either recompute the tree after every update
(Θ(m + n log n) messages per update) or amortize o(m) updates at the price
of large auxiliary state (Awerbuch-Cidon-Kutten 2008, Θ(Δ_v · n log n) bits
per node).  The impromptu repairs need no auxiliary state and pay o(m) per
update in the worst case.

The sweep runs the same churn workload — the one registered in the scenario
API (:mod:`repro.api.scenario`), so benchmarks, runners and the CLI all
consume the identical stream definition — through the impromptu maintainer
and through the recompute baseline and reports the per-update message costs
and their ratio, plus the per-node persistent state (in words) each approach
carries between updates.
"""

from __future__ import annotations

import sys

from repro.analysis import summarize
from repro.api.scenario import get_workload
from repro.baselines.recompute_repair import RecomputeMaintainer
from repro.core.build_mst import BuildMST
from repro.core.config import AlgorithmConfig
from repro.dynamic import TreeMaintainer
from repro.generators import random_connected_graph
from repro.verify import is_minimum_spanning_forest

from .common import experiment_table

SWEEP = [(32, 256), (64, 1024), (96, 2304), (128, 4096)]
BENCH_CONFIG = (64, 1024)
UPDATES = 4


def _measure(n: int, m: int, seed: int = 19):
    m = min(m, n * (n - 1) // 2)
    graph = random_connected_graph(n, m, seed=seed)
    report = BuildMST(graph, config=AlgorithmConfig(n=n, seed=seed)).run()
    maintainer = TreeMaintainer(graph, report.forest, mode="mst", seed=seed)
    # `churn` with an even target length 2k is exactly k tree-edge
    # delete/reinsert pairs, so counters match the pre-scenario records.
    stream = get_workload("churn")(graph, report.forest, count=2 * UPDATES, seed=seed)
    maintainer.apply_stream(stream)
    assert is_minimum_spanning_forest(report.forest)
    impromptu_costs = maintainer.messages_per_wave()

    recompute_graph = random_connected_graph(n, m, seed=seed)
    recompute = RecomputeMaintainer(recompute_graph, mode="mst")
    recompute_costs = [recompute.apply_batch([update]).messages for update in stream]

    impromptu_mean = summarize(impromptu_costs).mean
    recompute_mean = summarize(recompute_costs).mean
    return {
        "n": n,
        "m": m,
        "impromptu_per_update": impromptu_mean,
        "recompute_per_update": recompute_mean,
        "recompute_over_impromptu": recompute_mean / max(impromptu_mean, 1.0),
        "impromptu_over_m": impromptu_mean / m,
        "impromptu_state_words_per_node": 0,
        "recompute_state_words_per_node": 0,
    }


def build_table():
    rows = []
    for n, m in SWEEP:
        r = _measure(n, m)
        rows.append(
            (
                r["n"],
                r["m"],
                r["impromptu_per_update"],
                r["recompute_per_update"],
                r["recompute_over_impromptu"],
                r["impromptu_over_m"],
            )
        )
    return experiment_table(
        "E11",
        "Per-update cost under churn: impromptu repair vs recompute",
        ["n", "m", "impromptu msgs", "recompute msgs", "recompute/impromptu", "impromptu/m"],
        rows,
        notes=[
            "recompute = rebuild with GHS after every update (Θ(m + n log n))",
            "impromptu/m shrinking = the o(m) worst-case per-update claim",
            "neither side stores auxiliary per-node state; the 2008 amortized alternative needs Θ(deg·n log n) bits/node",
        ],
    )


def test_dynamic_workload(benchmark):
    n, m = BENCH_CONFIG
    result = benchmark.pedantic(_measure, args=(n, m), rounds=1, iterations=1)
    benchmark.extra_info.update(
        {k: (round(v, 3) if isinstance(v, float) else v) for k, v in result.items()}
    )
    # On a graph with m >> n the impromptu repair beats full recomputation.
    assert result["recompute_over_impromptu"] > 1.0


def main() -> int:
    build_table().print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
