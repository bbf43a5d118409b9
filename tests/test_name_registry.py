"""The one name registry contract, checked on every registry that uses it.

Algorithms, workloads, fault programs, delivery substrates, schedulers and
fuzz oracles each publish names through a :class:`repro.registry.Registry`;
the rules below must hold for all six alike, through each axis's public
decorator and lookup.
"""

import pytest

from repro.api import (
    get_fault,
    get_runner,
    get_workload,
    register,
    register_fault,
    register_workload,
)
from repro.api.faults import FAULT_REGISTRY
from repro.api.registry import ALGORITHM_REGISTRY
from repro.api.scenario import WORKLOAD_REGISTRY
from repro.fuzz import ORACLE_REGISTRY, make_oracles
from repro.network.broadcast import SUBSTRATE_REGISTRY, make_substrate, register_substrate
from repro.network.errors import AlgorithmError, ProtocolError, SimulationError
from repro.network.scheduler import SCHEDULER_REGISTRY, make_scheduler


def _class(doc):
    return type("Entry", (), {"__doc__": doc})


def _function(doc):
    def entry(*args, **kwargs):  # pragma: no cover - never called
        raise NotImplementedError

    entry.__doc__ = doc
    return entry


#: registry, public decorator, public lookup, error class, a taken name,
#: and a factory for a fresh object of the kind the registry holds.
CASES = {
    "algorithm": (
        ALGORITHM_REGISTRY, register, get_runner, AlgorithmError, "kkt-mst", _class
    ),
    "workload": (
        WORKLOAD_REGISTRY, register_workload, get_workload, AlgorithmError, "churn", _function
    ),
    "fault program": (
        FAULT_REGISTRY, register_fault, get_fault, AlgorithmError, "none", _function
    ),
    "delivery substrate": (
        SUBSTRATE_REGISTRY, register_substrate, make_substrate, ProtocolError, "plain", _function
    ),
    "scheduler": (
        SCHEDULER_REGISTRY, SCHEDULER_REGISTRY.register, make_scheduler, SimulationError,
        "fifo", _class,
    ),
    "oracle": (
        ORACLE_REGISTRY, ORACLE_REGISTRY.register, lambda name: make_oracles([name]),
        AlgorithmError, "differential", _class,
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    registry = CASES[request.param][0]
    before = set(registry.entries)
    yield (request.param, *CASES[request.param])
    # Leaking a temporary entry would make later registry consumers (the
    # fuzz campaign, notably) trip over it.
    for name in set(registry.entries) - before:
        del registry.entries[name]


@pytest.mark.parametrize("name", ["Not-Lower", "", " padded", "UPPER"])
def test_non_lowercase_names_are_rejected(case, name):
    noun, _, decorate, _, error, _, _ = case
    with pytest.raises(error, match=f"{noun} names must be non-empty lowercase"):
        decorate(name)


def test_a_different_object_under_a_taken_name_is_rejected(case):
    noun, registry, decorate, _, error, taken, make = case
    original = registry.entries[taken]
    with pytest.raises(error, match=f"{noun} '{taken}' is already registered"):
        decorate(taken)(make("An impostor."))
    assert registry.entries[taken] is original


def test_registering_the_same_object_again_is_a_no_op(case):
    _, registry, decorate, _, _, taken, _ = case
    original = registry.entries[taken]
    names, summaries = registry.names(), registry.summaries()
    assert decorate(taken)(original) is original
    assert registry.entries[taken] is original
    assert (registry.names(), registry.summaries()) == (names, summaries)


def test_an_unknown_name_lists_the_registered_names(case):
    noun, registry, _, lookup, error, _, _ = case
    known = ", ".join(registry.names())
    with pytest.raises(error) as excinfo:
        lookup("zz-unknown")
    plural = registry.plural
    assert str(excinfo.value) == f"unknown {noun} 'zz-unknown'; registered {plural}: {known}"


def test_names_are_sorted_and_summarised(case):
    _, registry, decorate, _, _, _, make = case
    decorate("zz-late")(make("Registered last."))
    decorate("aa-early")(make("Registered first."))
    names = registry.names()
    assert names == sorted(registry.entries)
    assert names.index("aa-early") < names.index("zz-late")
    assert list(registry.summaries()) == names


def test_a_missing_summary_falls_back_to_the_docstring_then_the_name(case):
    _, registry, decorate, _, _, _, make = case
    decorate("zz-doc")(make("\n    First line.\n\n    More detail.\n"))
    decorate("zz-nodoc")(make(None))
    decorate("zz-given", summary="Given.")(make("Ignored."))
    summaries = registry.summaries()
    assert summaries["zz-doc"] == "First line."
    assert summaries["zz-nodoc"] == "zz-nodoc"
    assert summaries["zz-given"] == "Given."
