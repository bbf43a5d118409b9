"""Tests for the message-level reference protocols vs the fragment-level path."""

import pytest

from repro.core.config import AlgorithmConfig
from repro.core.hashing import random_odd_hash
from repro.core.primes import prime_for_field
from repro.core.testout import CutTester
from repro.dynamic import EdgeUpdate, TreeMaintainer
from repro.generators import random_connected_graph, random_spanning_tree_forest
from repro.network.accounting import MessageAccountant
from repro.network.protocols import (
    run_hp_testout_protocol,
    run_path_max_protocol,
    run_testout_protocol,
)
from repro.network.scheduler import LifoScheduler, RandomScheduler


def _split_tree(n=18, m=50, seed=4):
    graph = random_connected_graph(n, m, seed=seed)
    forest = random_spanning_tree_forest(graph, seed=seed + 1)
    key = sorted(forest.marked_edges)[n // 3]
    forest.unmark(*key)
    root = max(key, key=lambda node: len(forest.component_of(node)))
    return graph, forest, root


class TestTestOutProtocol:
    @pytest.mark.parametrize("engine", ["sync", "async"])
    def test_agrees_with_fragment_level_testout(self, engine):
        graph, forest, root = _split_tree()
        config = AlgorithmConfig(n=graph.num_nodes, seed=9)
        tester = CutTester(graph, forest, config, MessageAccountant())
        stats = tester.tree_statistics(root)
        # Use the same hash function in both executions: answers must agree.
        for trial in range(10):
            odd_hash = random_odd_hash(max(stats.max_edge_number, 1), config.rng)
            fragment_answer = tester.test_out(
                root, odd_hash=odd_hash, max_edge_number=stats.max_edge_number
            )
            protocol_answer, _ = run_testout_protocol(
                graph, forest, root, odd_hash, engine=engine
            )
            assert fragment_answer == protocol_answer

    def test_message_count_matches_fast_executor(self):
        graph, forest, root = _split_tree()
        config = AlgorithmConfig(n=graph.num_nodes, seed=10)
        odd_hash = random_odd_hash(max(graph.max_edge_number(), 1), config.rng)
        _, protocol_acct = run_testout_protocol(graph, forest, root, odd_hash)
        tree_size = len(forest.component_of(root))
        assert protocol_acct.messages == 2 * (tree_size - 1)

    def test_empty_cut_never_detected(self):
        graph = random_connected_graph(14, 30, seed=6)
        forest = random_spanning_tree_forest(graph, seed=7)
        config = AlgorithmConfig(n=14, seed=11)
        root = graph.nodes()[0]
        for _ in range(15):
            odd_hash = random_odd_hash(max(graph.max_edge_number(), 1), config.rng)
            detected, _ = run_testout_protocol(graph, forest, root, odd_hash)
            assert not detected

    @pytest.mark.parametrize(
        "scheduler_factory", [lambda: RandomScheduler(seed=3), LifoScheduler]
    )
    def test_adversarial_schedules(self, scheduler_factory):
        graph, forest, root = _split_tree(seed=8)
        config = AlgorithmConfig(n=graph.num_nodes, seed=12)
        odd_hash = random_odd_hash(max(graph.max_edge_number(), 1), config.rng)
        sync_answer, _ = run_testout_protocol(graph, forest, root, odd_hash)
        async_answer, _ = run_testout_protocol(
            graph, forest, root, odd_hash, engine="async", scheduler=scheduler_factory()
        )
        assert sync_answer == async_answer


class TestHPTestOutProtocol:
    @pytest.mark.parametrize("engine", ["sync", "async"])
    def test_agrees_with_fragment_level(self, engine):
        graph, forest, root = _split_tree(seed=9)
        config = AlgorithmConfig(n=graph.num_nodes, seed=13)
        tester = CutTester(graph, forest, config, MessageAccountant())
        stats = tester.tree_statistics(root)
        p = prime_for_field(stats.max_edge_number, stats.num_endpoints, config.epsilon())
        alpha = config.rng.randrange(p)
        detected, acct = run_hp_testout_protocol(
            graph, forest, root, alpha=alpha, field_prime=p, engine=engine
        )
        # a non-empty cut exists by construction; HP-TestOut detects it w.h.p.
        assert detected
        tree_size = len(forest.component_of(root))
        assert acct.messages == 2 * (tree_size - 1)

    def test_empty_cut_always_negative(self):
        graph = random_connected_graph(14, 30, seed=10)
        forest = random_spanning_tree_forest(graph, seed=11)
        config = AlgorithmConfig(n=14, seed=14)
        root = graph.nodes()[0]
        p = prime_for_field(graph.max_edge_number(), 2 * graph.num_edges, 0.001)
        for trial in range(10):
            alpha = config.rng.randrange(p)
            detected, _ = run_hp_testout_protocol(
                graph, forest, root, alpha=alpha, field_prime=p
            )
            assert not detected

    def test_weight_range_restriction(self):
        graph, forest, root = _split_tree(seed=12)
        config = AlgorithmConfig(n=graph.num_nodes, seed=15)
        component = forest.component_of(root)
        cut = forest.outgoing_edges(component)
        lightest = min(cut, key=lambda e: e.augmented_weight(graph.id_bits))
        aug = lightest.augmented_weight(graph.id_bits)
        p = prime_for_field(graph.max_edge_number(), 2 * graph.num_edges, 0.0001)
        alpha = config.rng.randrange(p)
        detected, _ = run_hp_testout_protocol(
            graph, forest, root, alpha=alpha, field_prime=p, low=aug, high=aug
        )
        assert detected
        detected_below, _ = run_hp_testout_protocol(
            graph, forest, root, alpha=alpha, field_prime=p, low=0, high=aug - 1
        )
        assert not detected_below


class TestPathMaxProtocol:
    def test_finds_heaviest_path_edge(self):
        graph = random_connected_graph(16, 40, seed=13)
        forest = random_spanning_tree_forest(graph, seed=14)
        root, target = graph.nodes()[0], graph.nodes()[-1]
        (found, heaviest_key), acct = run_path_max_protocol(graph, forest, root, target)
        assert found
        # Check against an explicit walk of the tree path.
        from repro.network.broadcast import build_tree_structure

        tree = build_tree_structure(forest, root)
        path = tree.path_from_root(target)
        path_edges = [graph.get_edge(a, b) for a, b in zip(path, path[1:])]
        true_heaviest = max(path_edges, key=lambda e: e.augmented_weight(graph.id_bits))
        assert heaviest_key == (true_heaviest.u, true_heaviest.v)
        assert acct.messages == 2 * (graph.num_nodes - 1)

    def test_target_in_other_tree(self):
        graph, forest, root = _split_tree(seed=15)
        other_component_node = next(
            node for node in graph.nodes() if node not in forest.component_of(root)
        )
        (found, heaviest), _ = run_path_max_protocol(
            graph, forest, root, other_component_node
        )
        assert not found
        assert heaviest is None

    def test_agrees_with_repairer_insert_decision(self):
        """The message-level query justifies the repair engine's fragment-level one."""
        graph = random_connected_graph(16, 40, seed=16)
        forest = random_spanning_tree_forest(graph, seed=17)
        nodes = graph.nodes()
        pair = next(
            (u, v) for u in nodes for v in nodes if u < v and not graph.has_edge(u, v)
        )
        (found, heaviest_key), _ = run_path_max_protocol(graph, forest, pair[0], pair[1])
        assert found
        heaviest = graph.get_edge(*heaviest_key)

        maintainer = TreeMaintainer(
            graph, forest, mode="mst", config=AlgorithmConfig(n=16, seed=18)
        )
        # Insert an edge lighter than the heaviest path edge: the repair
        # must remove exactly that heaviest edge.
        report = maintainer.apply(EdgeUpdate.insert(pair[0], pair[1], weight=0)).report
        assert report.unmarked == [heaviest]
