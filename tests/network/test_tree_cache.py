"""Tests for the rooted-structure cache and its journal-replay patching.

The central property: whatever sequence of mark/unmark mutations the forest
goes through, ``forest.rooted_structure(root)`` on the fast path must be
*field-for-field identical* (root, parents, sorted children lists, depths)
to a fresh ``build_tree_structure`` — that is what makes the cached counters
(edge count, eccentricity, traversal orders) bit-identical to the reference
path.
"""

import random
from functools import reduce

import pytest

from repro import fastpath
from repro.core.testout import STATS_REDUCER
from repro.generators import random_connected_graph, random_spanning_tree_forest
from repro.network.broadcast import TreeStructure, build_tree_structure
from repro.network.columnar import CutColumn
from repro.network.fragments import SpanningForest
from repro.network.graph import Graph
from repro.network.tree_cache import TreeStructureCache, rooted_tree


def assert_same_structure(actual: TreeStructure, expected: TreeStructure) -> None:
    assert actual.root == expected.root
    assert actual.parent == expected.parent
    assert actual.children == expected.children
    assert actual.depth == expected.depth
    assert actual.eccentricity == expected.eccentricity


def path_forest(n: int = 8):
    graph = Graph(id_bits=8)
    for i in range(1, n):
        graph.add_edge(i, i + 1, weight=i)
    forest = SpanningForest(graph, marked=[(i, i + 1) for i in range(1, n)])
    return graph, forest


class TestVersioningAndJournal:
    def test_version_bumps_on_mutation(self, triangle_graph):
        forest = SpanningForest(triangle_graph)
        v0 = forest.version
        forest.mark(1, 2)
        assert forest.version == v0 + 1
        forest.mark(1, 2)  # re-marking is a no-op
        assert forest.version == v0 + 1
        forest.unmark(1, 2)
        assert forest.version == v0 + 2
        forest.unmark(1, 2)  # already unmarked: no-op
        assert forest.version == v0 + 2

    def test_journal_since(self, triangle_graph):
        forest = SpanningForest(triangle_graph)
        v0 = forest.version
        forest.mark(1, 2)
        forest.mark(2, 3)
        ops = forest.journal_since(v0)
        assert [(op, u, v) for _, op, u, v in ops] == [("mark", 1, 2), ("mark", 2, 3)]
        assert forest.journal_since(forest.version) == []

    def test_journal_forgets_old_history(self, triangle_graph):
        from repro.network import fragments

        forest = SpanningForest(triangle_graph)
        v0 = forest.version
        for _ in range(fragments._JOURNAL_LIMIT + 5):
            forest.mark(1, 2)
            forest.unmark(1, 2)
        assert forest.journal_since(v0) is None

    def test_copy_has_its_own_journal_and_cache(self, triangle_graph):
        forest = SpanningForest(triangle_graph, marked=[(1, 2)])
        structure = forest.structures.get(1)
        clone = forest.copy()
        v0 = forest.version
        clone.mark(2, 3)
        assert forest.version == v0 and forest.journal_since(v0) == []
        assert clone.structures.get(1).size == 3
        assert forest.structures.get(1) is structure and structure.size == 2


class TestPatching:
    def test_cache_hit_without_mutation(self, triangle_graph):
        forest = SpanningForest(triangle_graph, marked=[(1, 2), (2, 3)])
        cache = forest.structures
        first = cache.get(1)
        assert cache.get(1) is first
        assert cache.hits == 1 and cache.rebuilds == 1

    def test_attach_patches_instead_of_rebuilding(self):
        graph, forest = path_forest(10)
        forest.unmark(5, 6)
        cache = forest.structures
        structure = cache.get(1)
        assert structure.size == 5
        rebuilds = cache.rebuilds
        forest.mark(5, 6)  # re-attach the tail: one-edge graft
        patched = cache.get(1)
        assert patched is structure
        assert cache.rebuilds == rebuilds
        assert_same_structure(patched, build_tree_structure(forest, 1))

    def test_detach_patches_instead_of_rebuilding(self):
        graph, forest = path_forest(10)
        cache = forest.structures
        structure = cache.get(1)
        rebuilds = cache.rebuilds
        forest.unmark(4, 5)
        patched = cache.get(1)
        assert patched is structure
        assert cache.rebuilds == rebuilds
        assert patched.size == 4
        assert_same_structure(patched, build_tree_structure(forest, 1))

    def test_cycle_mark_falls_back_to_rebuild(self):
        graph = Graph(id_bits=8)
        for u, v in [(1, 2), (2, 3), (3, 4), (1, 4)]:
            graph.add_edge(u, v, weight=u + v)
        forest = SpanningForest(graph, marked=[(1, 2), (2, 3), (3, 4)])
        cache = forest.structures
        cache.get(1)
        rebuilds = cache.rebuilds
        forest.mark(1, 4)  # closes a cycle: not patchable
        patched = cache.get(1)
        assert cache.rebuilds == rebuilds + 1
        assert_same_structure(patched, build_tree_structure(forest, 1))

    def test_clear_falls_back_to_rebuild(self):
        graph, forest = path_forest(6)
        cache = forest.structures
        cache.get(1)
        forest.clear()
        structure = cache.get(1)
        assert structure.size == 1

    def test_lru_eviction(self):
        graph, forest = path_forest(6)
        cache = TreeStructureCache(forest, max_entries=2)
        cache.get(1)
        cache.get(2)
        cache.get(3)  # evicts root 1
        rebuilds = cache.rebuilds
        cache.get(1)
        assert cache.rebuilds == rebuilds + 1

    def test_reference_path_bypasses_cache(self):
        graph, forest = path_forest(5)
        with fastpath.reference_path():
            first = rooted_tree(forest, 1)
            second = rooted_tree(forest, 1)
        assert first is not second
        with fastpath.fast_path():
            third = rooted_tree(forest, 1)
            assert rooted_tree(forest, 1) is third


class TestSketchMemos:
    """The statistics tuple and cut column a tree memoises for the sketches."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_statistics_equal_the_reference_fold(self, seed):
        graph = random_connected_graph(20, 50, seed=seed)
        forest = random_spanning_tree_forest(graph, seed=seed + 1)
        forest.unmark(*sorted(forest.marked_edges)[seed])
        for root in graph.nodes():
            structure = build_tree_structure(forest, root)
            local = {
                node: (
                    1,
                    max(e.edge_number(graph.id_bits) for e in graph.incident_edges(node)),
                    max(e.augmented_weight(graph.id_bits) for e in graph.incident_edges(node)),
                    graph.degree(node),
                )
                for node in structure.parent
            }
            expected = reduce(STATS_REDUCER.op, local.values(), STATS_REDUCER.identity)
            assert structure.statistics(graph.columnar()) == expected

    def test_every_tree_memoises_its_cut_column(self):
        # Trees under half the graph build it from their rows, the tree
        # holding half from the edge columns; each is memoised.
        graph, forest = path_forest(10)
        forest.unmark(5, 6)
        forest.unmark(6, 7)
        cols = graph.columnar()

        def column(*edges):
            # Each (u, v, up) cut edge, up = 1 when the tree holds u.
            return CutColumn(
                [graph.augmented_weight(u, v) for u, v, _ in edges],
                [graph.edge_number(u, v) for u, v, _ in edges],
                bytes(up for _, _, up in edges),
            )

        expected = {
            # Node 6 alone: (5, 6) from its v side, then the heavier (6, 7).
            6: (1, column((5, 6, 0), (6, 7, 1))),
            7: (4, column((6, 7, 0))),
            1: (5, column((5, 6, 1))),
        }
        for root, (size, cut) in expected.items():
            structure = forest.rooted_structure(root)
            assert structure.size == size
            memo = structure.cut_column(cols)
            assert memo == cut
            assert structure.cut_column(cols) is memo

    def test_unrelated_tree_change_keeps_the_memos(self):
        graph, forest = path_forest(10)
        forest.unmark(7, 8)
        structure = forest.rooted_structure(1)
        cols = graph.columnar()
        cut, stats = structure.cut_column(cols), structure.statistics(cols)
        forest.unmark(8, 9)  # another component: the patch touches nothing
        assert forest.rooted_structure(1) is structure
        assert structure.cut_column(cols) is cut
        assert structure.statistics(cols) is stats

    def test_graph_change_rebuilds_the_memos(self):
        graph, forest = path_forest(10)
        graph.add_edge(1, 9, weight=3)
        forest.unmark(8, 9)
        structure = forest.rooted_structure(1)
        cut = structure.cut_column(graph.columnar())
        assert cut.numbers == [graph.edge_number(1, 9), graph.edge_number(8, 9)]
        graph.set_weight(1, 9, weight=50)
        cols = graph.columnar()
        assert forest.rooted_structure(1) is structure
        assert structure.cut_column(cols).numbers == [
            graph.edge_number(8, 9),
            graph.edge_number(1, 9),
        ]
        assert structure.statistics(cols)[2] == graph.augmented_weight(1, 9)

    def test_patch_rebuilds_the_memos(self):
        graph, forest = path_forest(10)
        forest.unmark(8, 9)
        structure = forest.rooted_structure(1)
        cols = graph.columnar()
        assert structure.statistics(cols)[0] == 8
        assert structure.cut_column(cols).numbers == [graph.edge_number(8, 9)]
        forest.mark(8, 9)  # graft 9 and 10 back on
        assert forest.rooted_structure(1) is structure
        assert structure.statistics(cols)[0] == 10
        assert structure.cut_column(cols) == CutColumn([], [], b"")


class TestFuzzAgainstRebuild:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_mutation_sequences(self, seed):
        rng = random.Random(seed)
        n = 24
        graph = random_connected_graph(n, 3 * n, seed=seed)
        forest = random_spanning_tree_forest(graph, seed=seed + 1)
        edges = [(e.u, e.v) for e in graph.edges()]
        nodes = graph.nodes()
        for step in range(120):
            op = rng.random()
            if op < 0.4:
                u, v = edges[rng.randrange(len(edges))]
                if forest.is_marked(u, v):
                    forest.unmark(u, v)
                else:
                    # May close a cycle — that exercises the rebuild fallback.
                    forest.mark(u, v)
            root = nodes[rng.randrange(len(nodes))]
            cached = forest.rooted_structure(root)
            rebuilt = build_tree_structure(forest, root)
            assert_same_structure(cached, rebuilt)


class TestJournalLimitConfiguration:
    def test_constructor_limit_wins(self, triangle_graph):
        forest = SpanningForest(triangle_graph, journal_limit=3)
        assert forest.journal_limit == 3
        v0 = forest.version
        for _ in range(4):
            forest.mark(1, 2)
            forest.unmark(1, 2)
        assert forest.journal_since(v0) is None  # 8 ops > limit 3

    def test_limit_floor_is_one(self, triangle_graph):
        assert SpanningForest(triangle_graph, journal_limit=-5).journal_limit == 1

    @pytest.mark.parametrize("limit", [1, 2, 1024])
    def test_copy_keeps_limit(self, triangle_graph, limit):
        forest = SpanningForest(triangle_graph, marked=[(1, 2)], journal_limit=limit)
        clone = forest.copy()
        assert clone.journal_limit == forest.journal_limit == limit
        assert clone.marked_edges == forest.marked_edges


class TestCacheStats:
    def test_stats_snapshot_counts_hits_patches_rebuilds(self):
        graph, forest = path_forest(8)
        cache = forest.structures
        cache.get(1)  # rebuild
        cache.get(1)  # exact-version hit
        forest.unmark(4, 5)  # detach: patchable
        cache.get(1)  # patched hit
        stats = cache.stats()
        assert stats["rebuilds"] == 1
        assert stats["hits"] == 2
        assert stats["patches"] == 1
        assert stats["journal_overruns"] == 0
        assert stats["entries"] == 1
        assert stats["max_entries"] == cache.max_entries
        assert stats["journal_limit"] == forest.journal_limit

    def test_journal_overrun_counted_and_forces_rebuild(self, triangle_graph):
        graph = triangle_graph
        forest = SpanningForest(graph, marked=[(1, 2), (2, 3)], journal_limit=2)
        cache = forest.structures
        cache.get(1)
        for _ in range(3):  # 6 ops: blows the 2-entry journal
            forest.unmark(1, 2)
            forest.mark(1, 2)
        rebuilds = cache.rebuilds
        structure = cache.get(1)
        assert cache.journal_overruns == 1
        assert cache.rebuilds == rebuilds + 1
        assert cache.stats()["journal_overruns"] == 1
        assert_same_structure(structure, build_tree_structure(forest, 1))


class TestRebuild:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rebuild_equals_fresh_bfs_with_and_without_covering_forest(self, seed):
        # One builder whatever the forest's size: with 15 marked edges the
        # tree spans all 16 nodes, with 7 a tree could hold half of them,
        # with 6 none can.
        graph = random_connected_graph(16, 32, seed=seed + 9)
        tree_edges = sorted(random_spanning_tree_forest(graph, seed=seed + 10).marked_edges)
        for marked in (15, 7, 6):
            forest = SpanningForest(graph, marked=tree_edges[:marked])
            cache = TreeStructureCache(forest)
            for root in graph.nodes():
                assert_same_structure(cache.get(root), build_tree_structure(forest, root))
            assert cache.rebuilds == 16

    @pytest.mark.parametrize("tier", ["fast", "reference"])
    def test_eccentricity_is_memoised_on_both_tiers(self, tier):
        graph, forest = path_forest(8)
        with fastpath.fast_path() if tier == "fast" else fastpath.reference_path():
            structure = rooted_tree(forest, 1)
            assert structure.eccentricity == 7
            structure.depth[8] = 99  # the memo, not the depths, answers
            assert structure.eccentricity == 7
            structure.invalidate_memos()
            assert structure.eccentricity == 99
