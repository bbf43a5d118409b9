"""Unified runner API tour: registry, `RunResult` JSON, parallel sweeps.

Runs a head-to-head of the KKT construction against its baseline through the
algorithm registry, round-trips a result through JSON, then fans a small
size sweep across worker processes and verifies the parallel counters match
a serial rerun — the determinism guarantee the experiment engine makes.

Usage::

    python examples/registry_sweep.py [nodes] [jobs]
"""

from __future__ import annotations

import sys

from repro import (
    ExperimentEngine,
    GraphSpec,
    RunResult,
    list_algorithms,
    run,
    scenario_grid,
)


def main() -> int:
    nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 48
    jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 2

    print("Registered algorithms:", ", ".join(list_algorithms()))

    # One facade for every algorithm; uniform results.
    spec = GraphSpec(nodes=nodes, density="complete", seed=7)
    for name in ("kkt-mst", "ghs"):
        result = run(name, spec)
        print(
            f"{name:8s} n={result.n} m={result.m} "
            f"messages={result.messages} (per edge {result.messages_per_edge:.2f}) "
            f"ok={result.ok}"
        )

    # RunResult survives a JSON round trip — ship it between processes/files.
    result = run("kkt-st", spec)
    assert RunResult.from_json(result.to_json()) == result
    print("RunResult JSON round trip: ok")

    # Parallel size sweep (the algorithm x size grid) with deterministic
    # per-job seeding.
    algorithms = ["kkt-st", "flooding"]
    sizes = [16, 24, 32]
    grid = scenario_grid(
        algorithms, [GraphSpec(nodes=size, density="sparse", seed=1) for size in sizes]
    )
    parallel = ExperimentEngine(jobs=jobs).run(grid)
    serial = ExperimentEngine(jobs=1).run(grid)
    identical = [r.counters() for r in parallel] == [r.counters() for r in serial]
    print(f"Sweep of {algorithms} over sizes {sizes} with jobs={jobs}:")
    for r in parallel:
        print(f"  {r.algorithm:8s} n={r.n:3d} messages={r.messages:6d} rounds={r.rounds}")
    print(f"parallel counters identical to serial: {identical}")
    return 0 if identical and result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
