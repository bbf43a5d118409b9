#!/usr/bin/env python
"""Message-complexity study: regenerate every experiment table (E1-E12).

It runs the full sweep of every benchmark module's experiment and prints
the tables one after another, so the whole set regenerates in one command.
Expect a few minutes of runtime for the complete set; pass experiment IDs to
run a subset.

Run with:  python examples/message_complexity_study.py [E1 E2 ...]
"""

from __future__ import annotations

import pathlib
import sys

# The benchmark harness lives in the repository's benchmarks/ directory (it
# is not an installed package), so make the repository root importable when
# this script is run directly from anywhere.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks import (
    bench_ablation_wordsize,
    bench_build_mst,
    bench_build_st,
    bench_dynamic_workload,
    bench_findany,
    bench_findmin,
    bench_repair,
    bench_rounds,
    bench_superpoly,
    bench_testout,
)

EXPERIMENTS = {
    "E1": bench_build_mst,
    "E2": bench_build_st,
    "E3": bench_findmin,
    "E4": bench_findany,
    "E5": bench_repair,
    "E6": bench_testout,
    "E7": bench_testout,
    "E8": bench_testout,
    "E9": bench_rounds,
    "E10": bench_superpoly,
    "E11": bench_dynamic_workload,
    "E12": bench_ablation_wordsize,
}


def main(argv: list[str]) -> int:
    requested = [arg.upper() for arg in argv[1:]] or list(dict.fromkeys(EXPERIMENTS))
    modules = []
    for experiment_id in requested:
        if experiment_id not in EXPERIMENTS:
            print(f"unknown experiment {experiment_id!r}; known: {', '.join(EXPERIMENTS)}")
            return 1
        module = EXPERIMENTS[experiment_id]
        if module not in modules:
            modules.append(module)
    for module in modules:
        module.build_table().print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
