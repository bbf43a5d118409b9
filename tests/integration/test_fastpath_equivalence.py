"""Equivalence suite: fast path counters == reference path counters.

The fast-path machinery (cached tree structures, fused sketch kernels over
each tree's memoised cut column) must be *observably invisible*: for every
registered algorithm, every density profile and every seed, the messages /
bits / rounds / phases reported by a run with the fast path on must be
bit-identical to a run with the reference implementations.  The claims
ledger (``tests/test_claims.py``) pins the same contract at larger sizes:
both tiers must reproduce the counters committed in ``CLAIMS.json``.
"""

import os
import subprocess
import sys

import pytest

from repro import fastpath
from repro.api import FaultSpec, GraphSpec, get_runner, list_algorithms
from repro.api.scenario import ExperimentSpec, ScheduleSpec, WorkloadSpec
from repro.network.errors import AlgorithmError

ALGORITHMS = list_algorithms()
DENSITIES = ["sparse", "dense"]
SEEDS = [0, 1, 2]
NODES = 24


def _counters(result):
    """Everything observable except wall-clock."""
    payload = {
        "algorithm": result.algorithm,
        "n": result.n,
        "m": result.m,
        "messages": result.messages,
        "bits": result.bits,
        "rounds": result.rounds,
        "phases": result.phases,
        "checks": result.checks,
        "extra": result.extra,
    }
    return payload


def _run(algorithm, spec, **options):
    return _counters(get_runner(algorithm).run(spec, **options))


@pytest.mark.parametrize("value", ["1", "true", "ON", "0", "false", "off"])
def test_fastpath_switch_accepts_its_spellings(value):
    assert fastpath._fastpath_from_env(value) is (value.lower() in ("1", "true", "on"))


def test_unknown_fastpath_switch_fails_loudly_at_import():
    with pytest.raises(
        AlgorithmError,
        match=r"^REPRO_FASTPATH must be one of 1, true, on, 0, false, off; got 'no'$",
    ):
        fastpath._fastpath_from_env("no")
    result = subprocess.run(
        [sys.executable, "-c", "import repro"],
        capture_output=True,
        text=True,
        env={**os.environ, "REPRO_FASTPATH": "no", "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode != 0
    assert "AlgorithmError: REPRO_FASTPATH must be one of" in result.stderr


@pytest.mark.parametrize(
    "part, whole, expected",
    [(8, 16, True), (7, 16, False), (5, 9, True), (4, 9, False), (16, 16, True), (1, 1, True)],
)
def test_covers_half_is_at_least_half(part, whole, expected):
    # The cut-column builder's size rule: an odd whole rounds the half up.
    assert fastpath.covers_half(part, whole) is expected


def test_all_six_algorithms_are_covered():
    assert ALGORITHMS == [
        "flooding",
        "ghs",
        "kkt-mst",
        "kkt-repair",
        "kkt-st",
        "recompute-repair",
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_counters_bit_identical(algorithm, density, seed):
    spec = GraphSpec(nodes=NODES, density=density, seed=seed)
    with fastpath.reference_path():
        reference = _run(algorithm, spec)
    with fastpath.fast_path():
        fast = _run(algorithm, spec)
    assert fast == reference


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("algorithm", ["kkt-repair", "recompute-repair"])
def test_churn_workload_counters_bit_identical(algorithm, density, seed):
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=NODES, density=density, seed=seed),
        workload=WorkloadSpec(name="churn", updates=8),
    )
    with fastpath.reference_path():
        reference = _run(algorithm, spec)
    with fastpath.fast_path():
        fast = _run(algorithm, spec)
    assert fast == reference


@pytest.mark.parametrize("algorithm", ["kkt-mst", "kkt-st"])
def test_churn_prechurned_construction_counters_bit_identical(algorithm):
    # Constructions under a workload run on the pre-churned topology; the
    # graph mutations exercise the version-stamped caches directly.
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=NODES, density="sparse", seed=1),
        workload=WorkloadSpec(name="churn", updates=8),
    )
    with fastpath.reference_path():
        reference = _run(algorithm, spec)
    with fastpath.fast_path():
        fast = _run(algorithm, spec)
    assert fast == reference


def test_st_mode_repair_counters_bit_identical():
    # Build-ST + ST repair exercise the cycle-breaking (non-patchable) path.
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=NODES, density="dense", seed=2),
        workload=WorkloadSpec(name="churn", updates=8),
    )
    with fastpath.reference_path():
        reference = _run("kkt-repair", spec, mode="st")
    with fastpath.fast_path():
        fast = _run("kkt-repair", spec, mode="st")
    assert fast == reference


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("program", ["link-storm", "partition-heal", "crash-leaves"])
@pytest.mark.parametrize("algorithm", ["kkt-repair", "recompute-repair"])
def test_fault_scenario_counters_bit_identical(algorithm, program, seed):
    # Fault programs (the fourth ExperimentSpec axis) run through the same
    # repair machinery: the fast path must stay observably invisible there
    # too, fault event log included.
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=NODES, density="sparse", seed=seed),
        workload=WorkloadSpec(name="churn", updates=6),
        faults=FaultSpec(name=program),
    )
    with fastpath.reference_path():
        reference = _run(algorithm, spec)
    with fastpath.fast_path():
        fast = _run(algorithm, spec)
    assert fast == reference
    assert fast["extra"]["fault_events"]


@pytest.mark.parametrize(
    "program", ["byz-corrupt", "byz-equivocate", "byz-replay", "byz-silent"]
)
def test_byzantine_flooding_on_kernel_counters_bit_identical(program):
    # The Byzantine tier tampers at the same delivery boundary the benign
    # faults use; the fast path must reproduce the identical attack history.
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=NODES, density="dense", seed=2),
        schedule=ScheduleSpec(scheduler="random"),
        faults=FaultSpec(name=program),
    )
    with fastpath.reference_path():
        reference = _run("flooding", spec)
    with fastpath.fast_path():
        fast = _run("flooding", spec)
    assert fast == reference
    assert fast["extra"]["fault_events"]  # at least the compromised-set plan


@pytest.mark.parametrize("algorithm", ["kkt-mst", "kkt-st", "kkt-repair"])
def test_bracha_substrate_counters_bit_identical(algorithm):
    # Substrate charging branches inside the broadcast executor, which both
    # paths share — hardened runs must stay observably equivalent too.
    spec = GraphSpec(nodes=NODES, density="sparse", seed=1)
    with fastpath.reference_path():
        reference = _run(algorithm, spec, substrate="bracha")
    with fastpath.fast_path():
        fast = _run(algorithm, spec, substrate="bracha")
    assert fast == reference
    assert fast["extra"]["substrate"] == "bracha"


def test_faulty_flooding_on_kernel_counters_bit_identical():
    # Flooding is the runner that executes on the event kernel itself, with
    # the fault injector installed at the delivery boundary — under an
    # adversarial schedule the delivery order, drops and duplicates must be
    # identical on both paths.
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=NODES, density="dense", seed=1),
        schedule=ScheduleSpec(scheduler="random"),
        faults=FaultSpec(name="lossy-uniform", params={"drop": 0.2, "duplicate": 0.1}),
    )
    with fastpath.reference_path():
        reference = _run("flooding", spec)
    with fastpath.fast_path():
        fast = _run("flooding", spec)
    assert fast == reference
