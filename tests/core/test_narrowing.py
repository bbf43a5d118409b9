"""FindMin's narrowing is one loop per search: :meth:`CutProbe.search`.

FindMin, FindMin-C and Sample all narrow through it, on either kernel tier.
Both tiers must return the same edge after the same number of rounds, charge
the same costs per kind, and leave the config's generator in the same state;
and FindMin's ``w``-wise split is computed once per range, not once per
round.
"""

import pytest

import repro.core.testout as testout_module
from repro import fastpath
from repro.api import GraphSpec
from repro.core.config import AlgorithmConfig
from repro.core.findmin import FindMin
from repro.core.sample import SuperpolyFindMin
from repro.generators import random_spanning_tree_forest
from repro.network.accounting import MessageAccountant

SEARCHES = {
    "findmin": lambda g, f, c, a, r: FindMin(g, f, c, a).find_min(r),
    "findmin-c": lambda g, f, c, a, r: FindMin(g, f, c, a).find_min_capped(r),
    "sample": lambda g, f, c, a, r: SuperpolyFindMin(g, f, c, a).run(r),
}

TIERS = {"fast": fastpath.fast_path, "reference": fastpath.reference_path}


def _instance(density, nodes, seed):
    """A random spanning tree of a generated graph, split at one edge."""
    graph = GraphSpec(nodes=nodes, density=density, seed=seed).build()
    forest = random_spanning_tree_forest(graph, seed=seed + 1)
    key = sorted(forest.marked_edges)[(7 * seed) % (nodes - 1)]
    forest.unmark(*key)
    return graph, forest, key[0]


def _search(search, tier, density, nodes, seed):
    graph, forest, root = _instance(density, nodes, seed)
    config = AlgorithmConfig(n=graph.num_nodes, seed=seed)
    acct = MessageAccountant()
    with TIERS[tier]():
        result = SEARCHES[search](graph, forest, config, acct, root)
    lightest = min(
        forest.outgoing_edges(forest.component_of(root)),
        key=lambda e: e.augmented_weight(graph.id_bits),
    )
    assert result.edge in (None, lightest)
    return (
        None if result.edge is None else result.edge.endpoints,
        result.verified_empty,
        result.iterations,
        acct.snapshot(),
        acct.per_kind(),
        config.rng.getstate(),
    )


class TestTiersAgree:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("nodes", [12, 64])
    @pytest.mark.parametrize("density", ["sparse", "dense", "complete"])
    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_same_edge_rounds_costs_and_coins(self, search, density, nodes, seed):
        fast = _search(search, "fast", density, nodes, seed)
        reference = _search(search, "reference", density, nodes, seed)
        assert fast == reference
        assert fast[2] >= 1


class TestSplitOncePerRange:
    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_one_split_per_distinct_range(self, tier, monkeypatch):
        split = testout_module.split_range
        ranges = []

        def spy(low, high, word_size):
            ranges.append((low, high))
            return split(low, high, word_size)

        monkeypatch.setattr(testout_module, "split_range", spy)
        rounds = splits = 0
        for seed in range(6):
            ranges.clear()
            graph, forest, root = _instance("dense", 48, seed)
            config = AlgorithmConfig(n=graph.num_nodes, seed=seed)
            with TIERS[tier]():
                result = FindMin(graph, forest, config, MessageAccountant()).find_min(root)
            assert ranges[0][0] == 0
            # Every split is of a new range, nested in the one before.
            for (low, high), (inner_low, inner_high) in zip(ranges, ranges[1:]):
                assert low <= inner_low <= inner_high <= high
                assert (inner_low, inner_high) != (low, high)
            rounds += result.iterations
            splits += len(ranges)
        # Rounds where no TestOut fired re-test their range without a split.
        assert rounds > splits
