"""Fault scenarios: impromptu repair vs recompute when the network breaks.

Sweeps ``kkt-repair`` against ``recompute-repair`` over every registered
fault program that reaches them — crashes, fail-stop link storms, timed
partitions; the grid skips the programs that act only on message delivery —
with the ``churn`` workload running alongside, and prints a total-message
table.  The
fault axis is the point of Theorem 1.2: deletions do not arrive from a
benign generator but from a network that actually fails, and the repair
cost advantage must survive that.

Also prints one full four-axis ``ExperimentSpec`` as JSON, which is exactly
the record a suite writes into every result's provenance.

Usage::

    python examples/fault_scenarios.py [nodes] [updates] [jobs]
"""

from __future__ import annotations

import sys

from repro import (
    ExperimentEngine,
    FaultSpec,
    GraphSpec,
    WorkloadSpec,
    list_faults,
    scenario_grid,
)
from repro.api import ExperimentSpec

ALGORITHMS = ["kkt-repair", "recompute-repair"]


def main() -> int:
    nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    updates = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    jobs = int(sys.argv[3]) if len(sys.argv) > 3 else 2
    seed = 2015

    faults = [FaultSpec(name=name) for name in list_faults()]
    engine = ExperimentEngine(jobs=jobs, base_seed=seed)
    results = engine.run(
        scenario_grid(
            ALGORITHMS,
            [GraphSpec(nodes=nodes, density="sparse", seed=seed)],
            workloads=[WorkloadSpec(name="churn", updates=updates)],
            faults=faults,
        )
    )

    print(f"Repair under faults (n={nodes}, churn updates={updates}):")
    print(f"{'fault program':>16s} | {'events':>6s} | {'kkt msgs':>9s} | "
          f"{'recompute':>9s} | ratio")
    print("-" * 62)
    by_key = {(r.faults.name, r.algorithm): r for r in results}
    all_ok = all(r.ok for r in results)
    for name in dict.fromkeys(r.faults.name for r in results):
        kkt = by_key[(name, "kkt-repair")]
        rec = by_key[(name, "recompute-repair")]
        events = kkt.extra.get("fault_updates_applied", 0)
        ratio = rec.messages / kkt.messages if kkt.messages else float("inf")
        print(f"{name:>16s} | {events:6d} | {kkt.messages:9d} | "
              f"{rec.messages:9d} | {ratio:5.1f}x")
    print(f"all repair invariants held under every fault program: {all_ok}")

    demo = ExperimentSpec(
        graph=GraphSpec(nodes=nodes, density="sparse", seed=seed),
        workload=WorkloadSpec(name="churn", updates=updates),
        schedule=None,
        faults=FaultSpec(name="link-storm", params={"count": 4}),
    )
    print("\nA full four-axis ExperimentSpec, as recorded in provenance:")
    print(demo.to_json(indent=2))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
