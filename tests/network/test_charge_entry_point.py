"""Every broadcast-and-echo is charged by the executor's two B&E methods.

Counting spies wrap :meth:`BroadcastEchoExecutor.broadcast_and_echo` and
:meth:`BroadcastEchoExecutor.broadcast_with_downward_state` (the Insert path
query), and every :class:`MessageAccountant` made during a run is kept.  On
both kernel tiers, the calls must equal the B&Es those accountants counted,
every echo must name its ``kind=`` and its form (``aggregate=``, or
``local_value=`` and ``reducer=``) as keywords, and on the columnar tier
every statistics and probe echo must hand over a kernel's ``aggregate=``.
"""

import pytest

from repro import fastpath
from repro.api import ExperimentSpec, GraphSpec, WorkloadSpec, get_runner
from repro.core.config import AlgorithmConfig
from repro.core.findany import FindAny
from repro.core.findmin import FindMin
from repro.generators import random_spanning_tree_forest
from repro.network.accounting import MessageAccountant
from repro.network.broadcast import BroadcastEchoExecutor

TIERS = {"fast": fastpath.fast_path, "reference": fastpath.reference_path}

#: The kinds of the statistics echo and of the echoes a ``CutProbe`` runs.
SKETCH_KINDS = {
    "stats",
    "testout",
    "hp_testout",
    "findany:vector",
    "findany:xor",
    "findany:test",
}


def _kkt_mst():
    spec = ExperimentSpec(graph=GraphSpec(nodes=16, density="dense", seed=1))
    assert get_runner("kkt-mst").run(spec).ok


def _kkt_repair():
    spec = ExperimentSpec(
        graph=GraphSpec(nodes=32, density="sparse", seed=2),
        workload=WorkloadSpec(name="churn", updates=6),
    )
    assert get_runner("kkt-repair").run(spec).ok


def _findmin_then_findany():
    graph = GraphSpec(nodes=24, density="sparse", seed=3).build()
    forest = random_spanning_tree_forest(graph, seed=4)
    forest.unmark(*sorted(forest.marked_edges)[5])
    root = min(graph.nodes())
    accountant = MessageAccountant()
    config = AlgorithmConfig(n=graph.num_nodes, seed=5)
    found = FindMin(graph, forest, config, accountant).find_min(root)
    assert found.edge is not None
    assert FindAny(graph, forest, config, accountant).find_any(root).edge is not None


RUNS = {
    "kkt-mst": _kkt_mst,
    "kkt-repair": _kkt_repair,
    "findmin-findany": _findmin_then_findany,
}


@pytest.fixture
def spies(monkeypatch):
    """``(calls, accountants)``: each B&E call's method and arguments, each accountant made."""
    calls = []
    accountants = []
    make_accountant = MessageAccountant.__init__

    def counting_init(self):
        make_accountant(self)
        accountants.append(self)

    def counting(name):
        method = getattr(BroadcastEchoExecutor, name)

        def spy(self, *args, **kwargs):
            calls.append((name, args, kwargs))
            return method(self, *args, **kwargs)

        return spy

    monkeypatch.setattr(MessageAccountant, "__init__", counting_init)
    for name in ("broadcast_and_echo", "broadcast_with_downward_state"):
        monkeypatch.setattr(BroadcastEchoExecutor, name, counting(name))
    return calls, accountants


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_bne_is_charged_through_the_entry_point(spies, run, tier):
    calls, accountants = spies
    with TIERS[tier]():
        RUNS[run]()
    assert calls
    assert len(calls) == sum(acct.broadcast_echoes for acct in accountants)

    kinds = set()
    for name, args, kwargs in calls:
        assert "kind" in kwargs, (name, args, kwargs)
        kinds.add(kwargs["kind"])
        if name == "broadcast_with_downward_state":
            assert kwargs["kind"] == "path_query"
            continue
        # The root is the only positional argument.
        assert len(args) <= 1, (name, args, kwargs)
        if "aggregate" in kwargs:
            assert "local_value" not in kwargs and "reducer" not in kwargs
        else:
            assert "local_value" in kwargs and "reducer" in kwargs, kwargs
        if tier == "fast" and kwargs["kind"] in SKETCH_KINDS:
            assert "aggregate" in kwargs, kwargs

    if run == "findmin-findany":
        assert kinds == SKETCH_KINDS
    if run == "kkt-repair":
        assert "path_query" in kinds
