"""A construction runner verifies a correct forest once
(``_ConstructionRunner._checks``)."""

from types import SimpleNamespace

import pytest

from repro.api import GraphSpec, get_runner
from repro.baselines.sequential import kruskal_mst, mst_edge_keys
from repro.network.fragments import SpanningForest
from repro.verify import (
    is_minimum_spanning_forest,
    is_minimum_weight_forest,
    is_spanning_forest,
)


def _forests():
    """A non-spanning forest, a spanning non-minimum one and the MST."""
    graph = GraphSpec(nodes=14, density="sparse", seed=3).build()
    mst = sorted(mst_edge_keys(kruskal_mst(graph)))
    split = SpanningForest(graph, marked=mst[1:])
    # Swap one MST edge for a heavier edge across the same cut.
    u, v = mst[0]
    side = split.component_of(u)
    swap = next(
        edge
        for edge in split.outgoing_edges(side)
        if (edge.u, edge.v) != (u, v)
    )
    heavier = SpanningForest(graph, marked=mst[1:] + [(swap.u, swap.v)])
    return {
        "not-spanning": (split, False, False),
        "not-minimum": (heavier, True, False),
        "mst": (SpanningForest(graph, marked=mst), True, True),
    }


@pytest.mark.parametrize("workload", [None, "churn"])
@pytest.mark.parametrize("case", ["not-spanning", "not-minimum", "mst"])
def test_one_spanning_check_per_correct_run(case, workload, monkeypatch):
    forest, spanning, minimum = _forests()[case]
    check_forest = SpanningForest.check_forest
    calls = []

    def counted(self):
        calls.append(self)
        return check_forest(self)

    monkeypatch.setattr(SpanningForest, "check_forest", counted)
    scenario = SimpleNamespace(workload=workload)
    checks = get_runner("kkt-mst")._checks(scenario, forest)
    assert checks == {"spanning": spanning, "minimum": minimum}
    assert list(checks) == ["spanning", "minimum"]
    # The minimum check verifies the forest; only a forest that fails it is
    # checked for spanning again.
    assert calls == [forest] * (1 if minimum else 2)
    calls.clear()
    assert get_runner("kkt-st")._checks(scenario, forest) == {"spanning": spanning}
    assert calls == [forest]
    # The same answers as the checks run on their own.
    minimum_check = is_minimum_spanning_forest if workload is None else is_minimum_weight_forest
    assert is_spanning_forest(forest) == spanning
    assert minimum_check(forest) == minimum
