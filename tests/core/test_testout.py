"""Tests for TestOut / HP-TestOut (Lemma 1 and Section 2 semantics)."""

import itertools

import pytest

import repro.core.testout as testout_module
from repro import fastpath
from repro.core.config import AlgorithmConfig
from repro.core.hashing import draw_odd_hash
from repro.core.testout import CutTester, lowest_set_bit, split_range
from repro.network.accounting import MessageAccountant
from repro.network.fragments import SpanningForest
from repro.network.graph import Graph

#: The two crossing edges these tests reason about ((3,4) light, (1,6) heavy);
#: the shared ``two_fragment_graph`` fixture builds the rest.
CUT_EDGES = ((3, 4, 10), (1, 6, 20))


def _tester(graph, forest, seed=0, c=1.0):
    config = AlgorithmConfig(n=graph.num_nodes, seed=seed, c=c)
    acct = MessageAccountant()
    return CutTester(graph, forest, config, acct), acct


class TestTreeStatistics:
    def test_statistics_values(self, two_fragment_graph):
        graph, forest = two_fragment_graph(CUT_EDGES)
        tester, _ = _tester(graph, forest)
        stats = tester.tree_statistics(1)
        assert stats.size == 3
        # endpoints incident to {1,2,3}: edges (1,2),(2,3) twice + (3,4),(1,6) once
        assert stats.num_endpoints == 2 + 2 + 1 + 1
        # Largest edge number incident to {1,2,3} is (3,4); largest augmented
        # weight is the heaviest incident edge (1,6) with weight 20.
        assert stats.max_edge_number == graph.edge_number(3, 4)
        assert stats.max_augmented_weight == graph.augmented_weight(1, 6)
        assert stats.has_incident_edges

    def test_isolated_node_statistics(self):
        graph = Graph()
        graph.add_node(1)
        graph.add_node(2)
        forest = SpanningForest(graph)
        tester, _ = _tester(graph, forest)
        stats = tester.tree_statistics(1)
        assert stats.size == 1
        assert not stats.has_incident_edges

    def test_statistics_cost_is_one_broadcast_echo(self, two_fragment_graph):
        graph, forest = two_fragment_graph(CUT_EDGES)
        tester, acct = _tester(graph, forest)
        tester.tree_statistics(1)
        assert acct.broadcast_echoes == 1
        assert acct.messages == 2 * 2  # 2 tree edges in {1,2,3}


class TestTestOut:
    def test_never_false_positive_on_empty_cut(self, two_fragment_graph):
        graph, forest = two_fragment_graph(())
        tester, _ = _tester(graph, forest, seed=1)
        # No edge leaves {1,2,3}: TestOut must return False every time.
        assert all(not tester.test_out(1) for _ in range(40))

    def test_detects_cut_with_constant_probability(self, two_fragment_graph):
        graph, forest = two_fragment_graph(CUT_EDGES)
        tester, _ = _tester(graph, forest, seed=2)
        hits = sum(tester.test_out(1) for _ in range(200))
        # q >= 1/8; demand at least a 6% hit rate to keep flakiness negligible.
        assert hits >= 12

    def test_respects_weight_range(self, two_fragment_graph):
        graph, forest = two_fragment_graph(CUT_EDGES)
        tester, _ = _tester(graph, forest, seed=3)
        # Only cut edges have weight 10 ((3,4)) and 20 ((1,6)); restrict to a
        # range that excludes both -> always False.
        low = graph.augmented_weight(1, 2)
        high = graph.augmented_weight(5, 6)
        assert all(
            not tester.test_out(1, low=0, high=min(low, high) - 1) for _ in range(30)
        )

    def test_cost_is_one_broadcast_echo_with_one_bit_echo(self, two_fragment_graph):
        graph, forest = two_fragment_graph(CUT_EDGES)
        tester, acct = _tester(graph, forest, seed=4)
        before = acct.snapshot()
        tester.test_out(1)
        delta = acct.since(before)
        assert delta.broadcast_echoes == 1
        assert delta.messages == 2 * 2
        # echo messages carry exactly 1 bit each: total bits = 2 broadcasts
        # (hash description) + 2 echoes (1 bit each)
        per_kind = acct.per_kind()
        assert per_kind.get("testout:echo") == 2

    def test_word_tests_multiple_ranges_in_one_broadcast_echo(self, two_fragment_graph):
        graph, forest = two_fragment_graph(CUT_EDGES)
        tester, acct = _tester(graph, forest, seed=5)
        ranges = [(0, 10), (11, 10 ** 6), (None, None)]
        before = acct.snapshot()
        word = tester.test_out_word(1, ranges=ranges)
        delta = acct.since(before)
        assert delta.broadcast_echoes == 1
        assert 0 <= word < 2 ** len(ranges)

    @pytest.mark.parametrize(
        "ranges, fused",
        [
            ([(0, 10), (11, 10 ** 6), (10 ** 6 + 1, None)], True),
            ([(0, 10), (11, 10 ** 6), (None, None)], False),  # overlapping
            ([(11, 10 ** 6), (0, 10)], False),  # unsorted
        ],
    )
    def test_word_kernel_only_on_sorted_disjoint_ranges(
        self, ranges, fused, two_fragment_graph, monkeypatch
    ):
        # The bisection kernel needs sorted, disjoint ranges; any other list
        # falls back to the reference fold, with the same word and charge.
        kernel = testout_module.range_parity_words_all
        calls = []
        monkeypatch.setattr(
            testout_module,
            "range_parity_words_all",
            lambda *args: calls.append(args) or kernel(*args),
        )
        outcomes = []
        for tier in (fastpath.fast_path, fastpath.reference_path):
            graph, forest = two_fragment_graph(CUT_EDGES)
            tester, acct = _tester(graph, forest, seed=5)
            with tier():
                words = [tester.test_out_word(1, ranges=ranges) for _ in range(12)]
            outcomes.append((words, acct.snapshot(), acct.per_kind()))
        assert outcomes[0] == outcomes[1]
        assert len(calls) == (12 if fused else 0)

    def test_singleton_tree_with_incident_edges(self, two_fragment_graph):
        graph, forest = two_fragment_graph(CUT_EDGES)
        forest.unmark(1, 2)
        forest.unmark(2, 3)
        tester, acct = _tester(graph, forest, seed=6)
        # Node 1 alone: its incident edges (1,2) and (1,6) all leave the tree.
        hits = sum(tester.test_out(1) for _ in range(120))
        assert hits >= 8
        assert acct.messages == 0  # singleton tree: purely local computation


def model_search(probe, graph, high, budget, word_size, hash_bits, getrandbits):
    """FindMin's narrowing spelled out over the probe's one-off echoes.

    Every round splits its range afresh, draws a hash object with
    :func:`draw_odd_hash` and runs :meth:`CutProbe.testout_word_with` and
    :meth:`CutProbe.hp` as separate calls.
    """
    low = 0
    rounds = 0
    while rounds < budget:
        rounds += 1
        lows, highs = split_range(low, high, word_size)
        odd_hash = draw_odd_hash(hash_bits, getrandbits)
        index = lowest_set_bit(probe.testout_word_with(odd_hash, lows, highs), len(lows))
        if index is None:
            if not probe.hp(low, high):
                return None, True, rounds
            continue
        range_low, range_high = lows[index], highs[index]
        test_low = range_low > low and probe.hp(low, range_low - 1)
        test_interval = probe.hp(range_low, range_high)
        if test_low or not test_interval:
            continue
        if range_low == range_high:
            edge = graph.edge_from_augmented_weight(range_low)
            if edge is not None:
                return edge, False, rounds
            continue
        low, high = range_low, range_high
    return None, False, rounds


class TestProbeDrawOrder:
    """:meth:`CutProbe.search` draws as the one-off echoes draw.

    The loop draws each odd hash as two ints, in :func:`draw_odd_hash`'s
    order, and each ``α`` inline; if the order or a width drifted, FindMin's
    counters would move.  Each search is compared, on both tiers, against
    :func:`model_search` over a twin generator: same answer, same rounds,
    same charges and the same final generator state.
    """

    @pytest.mark.parametrize("seed", range(0, 200, 7))
    def test_matches_testout_word_with_a_drawn_hash(self, seed, two_fragment_graph):
        graph, forest = two_fragment_graph()
        tiers = (fastpath.fast_path, fastpath.reference_path)
        # A budget of two rounds mostly runs out; the full one mostly finds.
        for tier, short in itertools.product(tiers, (True, False)):
            runs = []
            for loop in (True, False):
                tester, acct = _tester(graph, forest, seed=seed)
                with tier():
                    stats = tester.tree_statistics(1)
                    probe = tester.probe(1, stats=stats)
                    high = stats.max_augmented_weight
                    budget = 2 if short else tester.config.findmin_budget(high)
                    if loop:
                        answer = probe.search(high, budget)
                    else:
                        answer = model_search(
                            probe,
                            graph,
                            high,
                            budget,
                            tester.config.word_size,
                            max(stats.max_edge_number, 1).bit_length(),
                            tester.config.rng.getrandbits,
                        )
                runs.append(
                    (answer, acct.snapshot(), acct.per_kind(), tester.config.rng.getstate())
                )
            assert runs[0] == runs[1]


class TestHPTestOut:
    def test_always_correct_on_empty_cut(self, two_fragment_graph):
        graph, forest = two_fragment_graph(())
        tester, _ = _tester(graph, forest, seed=7)
        assert all(not tester.hp_test_out(1) for _ in range(30))

    def test_detects_cut_whp(self, two_fragment_graph):
        graph, forest = two_fragment_graph(CUT_EDGES)
        tester, _ = _tester(graph, forest, seed=8, c=2.0)
        assert all(tester.hp_test_out(1) for _ in range(30))

    def test_weight_range_restriction(self, two_fragment_graph):
        graph, forest = two_fragment_graph(CUT_EDGES)
        tester, _ = _tester(graph, forest, seed=9)
        cut_low = graph.augmented_weight(3, 4)
        cut_high = graph.augmented_weight(1, 6)
        # Range containing only the lighter cut edge.
        assert tester.hp_test_out(1, low=cut_low, high=cut_low)
        # Range strictly between the two cut edges: empty.
        assert not tester.hp_test_out(1, low=cut_low + 1, high=cut_high - 1)

    def test_reuses_supplied_prime_in_single_broadcast_echo(self, two_fragment_graph):
        graph, forest = two_fragment_graph(CUT_EDGES)
        tester, acct = _tester(graph, forest, seed=10)
        stats = tester.tree_statistics(1)
        from repro.core.primes import prime_for_field

        p = prime_for_field(stats.max_edge_number, stats.num_endpoints, 0.001)
        before = acct.snapshot()
        tester.hp_test_out(1, field_prime=p)
        delta = acct.since(before)
        assert delta.broadcast_echoes == 1

    def test_runs_statistics_when_prime_not_supplied(self, two_fragment_graph):
        graph, forest = two_fragment_graph(CUT_EDGES)
        tester, acct = _tester(graph, forest, seed=11)
        before = acct.snapshot()
        tester.hp_test_out(1)
        delta = acct.since(before)
        assert delta.broadcast_echoes == 2  # stats + the test itself

    def test_symmetric_from_other_fragment(self, two_fragment_graph):
        graph, forest = two_fragment_graph(CUT_EDGES)
        tester, _ = _tester(graph, forest, seed=12)
        assert tester.hp_test_out(4)
        assert tester.hp_test_out(6)


class TestTrueCutEdges:
    def test_ground_truth_helper(self, two_fragment_graph):
        graph, forest = two_fragment_graph(CUT_EDGES)
        tester, _ = _tester(graph, forest)
        cut = tester.true_cut_edges(1)
        assert {(e.u, e.v) for e in cut} == {(3, 4), (1, 6)}
        restricted = tester.true_cut_edges(
            1, low=graph.augmented_weight(3, 4), high=graph.augmented_weight(3, 4)
        )
        assert [(e.u, e.v) for e in restricted] == [(3, 4)]


class TestImplicitTree:
    @pytest.mark.parametrize(
        "procedure",
        [
            lambda t, tree: t.tree_statistics(1, tree=tree),
            lambda t, tree: t.test_out(1, tree=tree),
            lambda t, tree: t.test_out_word(1, [(0, 99), (100, None)], tree=tree),
            lambda t, tree: t.hp_test_out(1, tree=tree),
        ],
        ids=["stats", "testout", "testout_word", "hp_testout"],
    )
    def test_without_tree_matches_explicit_tree(
        self, procedure, two_fragment_graph, monkeypatch
    ):
        # Without ``tree=`` the tester roots T_x itself, so the fused
        # columnar kernels still run, return the same tree aggregates, and
        # answers and counters match the explicit call.
        kernel_calls = []
        for name in ("range_parity_words_all", "hp_products_all"):
            kernel = getattr(testout_module, name)

            def counted(*args, _kernel=kernel, **kwargs):
                aggregate = _kernel(*args, **kwargs)
                # A parity word, or HP-TestOut's (up, down) pair.
                assert isinstance(aggregate, (int, tuple))
                kernel_calls.append((_kernel.__name__, aggregate))
                return aggregate

            monkeypatch.setattr(testout_module, name, counted)
        outcomes = []
        for explicit in (True, False):
            graph, forest = two_fragment_graph(CUT_EDGES)
            tester, acct = _tester(graph, forest, seed=5)
            tree = forest.rooted_structure(1) if explicit else None
            answers = [procedure(tester, tree) for _ in range(6)]
            outcomes.append((answers, acct.snapshot(), sorted(kernel_calls)))
            kernel_calls.clear()
        assert outcomes[0] == outcomes[1]
