"""Scenario matrix: impromptu repair vs recompute across every workload.

Sweeps ``kkt-repair`` against ``recompute-repair`` over *all* registered
workloads under the ``random`` delivery scheduler and prints a
messages-per-update table — the per-update cost picture of Theorem 1.2 under
six different update adversaries.  A small trace is recorded on the fly so
``trace-replay`` participates in the matrix too.

Usage::

    python examples/scenario_matrix.py [nodes] [updates] [jobs]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro import (
    ExperimentEngine,
    GraphSpec,
    ScheduleSpec,
    WorkloadSpec,
    list_workloads,
    scenario_grid,
)
from repro.api.scenario import get_workload
from repro.core.build_mst import BuildMST
from repro.core.config import AlgorithmConfig
from repro.dynamic import UpdateTrace

ALGORITHMS = ["kkt-repair", "recompute-repair"]


def record_demo_trace(nodes: int, updates: int, seed: int, out: Path) -> Path:
    """Record a churn run so the trace-replay workload has a file to replay."""
    graph = GraphSpec(nodes=nodes, density="sparse", seed=seed).build()
    report = BuildMST(graph, config=AlgorithmConfig(n=nodes, seed=seed)).run()
    stream = get_workload("churn")(graph, report.forest, count=updates, seed=seed)
    return UpdateTrace.record(graph, report.forest, stream, mode="mst", seed=seed).save(out)


def main() -> int:
    nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    updates = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    jobs = int(sys.argv[3]) if len(sys.argv) > 3 else 2
    seed = 2015

    trace_path = record_demo_trace(
        nodes, updates, seed, Path(tempfile.mkdtemp()) / "demo.trace.json"
    )
    workloads = [
        WorkloadSpec(
            name=name,
            updates=updates,
            params={"path": str(trace_path)} if name == "trace-replay" else {},
        )
        for name in list_workloads()
    ]

    engine = ExperimentEngine(jobs=jobs, base_seed=seed)
    results = engine.run(
        scenario_grid(
            ALGORITHMS,
            [GraphSpec(nodes=nodes, density="sparse", seed=seed)],
            workloads=workloads,
            schedules=[ScheduleSpec(scheduler="random")],
        )
    )

    print(f"Messages per update under the random scheduler (n={nodes}, updates={updates}):")
    print(f"{'workload':>16s} | {'kkt-repair':>12s} | {'recompute':>12s} | ratio")
    print("-" * 58)
    by_key = {(r.workload.name, r.algorithm): r for r in results}
    all_ok = all(r.ok for r in results)
    for name in list_workloads():
        kkt = by_key[(name, "kkt-repair")]
        rec = by_key[(name, "recompute-repair")]
        kkt_mpu = kkt.extra["messages_per_update_mean"]
        rec_mpu = rec.extra["messages_per_update_mean"]
        ratio = rec_mpu / kkt_mpu if kkt_mpu else float("inf")
        print(f"{name:>16s} | {kkt_mpu:12.1f} | {rec_mpu:12.1f} | {ratio:5.1f}x")
    print(f"all checks (invariant + adversarial delivery) passed: {all_ok}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
