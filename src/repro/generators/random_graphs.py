"""Random communication-graph generators.

All generators return a :class:`repro.network.graph.Graph` whose node IDs are
``1..n`` and whose ``id_bits`` is the smallest width that fits ``n`` (so that
edge numbers, and hence message sizes, are ``O(log n)`` as the paper
assumes).  Edge weights default to a random permutation of ``1..m`` — distinct
raw weights, mirroring the paper's distinct-weight assumption — but any of
the schemes in :mod:`repro.generators.weights` can be applied afterwards.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Set, Tuple

from ..network.errors import GraphError
from ..network.fragments import SpanningForest
from ..network.graph import Graph

__all__ = [
    "id_bits_for",
    "gnp_random_graph",
    "gnm_random_graph",
    "random_connected_graph",
    "random_geometric_graph",
    "random_spanning_tree_forest",
]


def id_bits_for(n: int) -> int:
    """The smallest ID width that accommodates node IDs ``1..n``."""
    return max(2, (n + 1).bit_length())


def _weighted_graph(
    n: int, edges: List[Tuple[int, int]], rng: random.Random, max_weight: Optional[int]
) -> Graph:
    """Nodes ``1..n`` and ``edges`` with shuffled weights ``1..m`` (capped by ``max_weight``)."""
    weights = list(range(1, len(edges) + 1))
    rng.shuffle(weights)
    if max_weight is not None:
        weights = [1 + (w % max_weight) for w in weights]
    return Graph.from_edges(
        id_bits_for(n),
        range(1, n + 1),
        [(u, v, weight) for (u, v), weight in zip(edges, weights)],
    )


def _fill_pairs(
    chosen: Set[Tuple[int, int]], n: int, m: int, rng: random.Random
) -> List[Tuple[int, int]]:
    """Add uniform random pairs to ``chosen`` until it holds ``m``; return them sorted.

    Each endpoint is ``rng.randrange(1, n + 1)``, drawn inline the way
    ``randrange`` draws it (:func:`repro.core.hashing.draw_below`), so the
    pairs and the generator's state are exactly ``randrange``'s.
    """
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    while len(chosen) < m:
        u = getrandbits(bits)
        while u >= n:
            u = getrandbits(bits)
        v = getrandbits(bits)
        while v >= n:
            v = getrandbits(bits)
        if u != v:
            chosen.add((u + 1, v + 1) if u < v else (v + 1, u + 1))
    return sorted(chosen)


def gnp_random_graph(
    n: int,
    p: float,
    seed: Optional[int] = None,
    max_weight: Optional[int] = None,
) -> Graph:
    """Erdős–Rényi ``G(n, p)`` with permutation weights."""
    if not (0.0 <= p <= 1.0):
        raise GraphError("p must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return _weighted_graph(n, edges, rng, max_weight)


def gnm_random_graph(
    n: int,
    m: int,
    seed: Optional[int] = None,
    max_weight: Optional[int] = None,
) -> Graph:
    """Uniform random graph with exactly ``n`` nodes and ``m`` edges."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise GraphError(f"cannot place {m} edges in a graph of {n} nodes")
    rng = random.Random(seed)
    return _weighted_graph(n, _fill_pairs(set(), n, m, rng), rng, max_weight)


def random_connected_graph(
    n: int,
    m: int,
    seed: Optional[int] = None,
    max_weight: Optional[int] = None,
) -> Graph:
    """A connected random graph: a random spanning tree plus random extra edges."""
    if n >= 2 and m < n - 1:
        raise GraphError(f"a connected graph on {n} nodes needs at least {n - 1} edges")
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise GraphError(f"cannot place {m} edges in a graph of {n} nodes")
    rng = random.Random(seed)

    # Random spanning tree via a random permutation (each new node attaches
    # to a uniformly random earlier node) — a simple recursive-tree model.
    order = list(range(1, n + 1))
    rng.shuffle(order)
    chosen: Set[Tuple[int, int]] = set()
    for index in range(1, n):
        parent = order[rng.randrange(index)]
        child = order[index]
        chosen.add((min(parent, child), max(parent, child)))
    return _weighted_graph(n, _fill_pairs(chosen, n, m, rng), rng, max_weight)


def random_geometric_graph(
    n: int,
    radius: float,
    seed: Optional[int] = None,
    max_weight: Optional[int] = None,
) -> Graph:
    """Random geometric graph on the unit square (a wireless-network stand-in)."""
    rng = random.Random(seed)
    positions = {}
    for node in range(1, n + 1):
        positions[node] = (rng.random(), rng.random())
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            dx = positions[u][0] - positions[v][0]
            dy = positions[u][1] - positions[v][1]
            if math.hypot(dx, dy) <= radius:
                edges.append((u, v))
    return _weighted_graph(n, edges, rng, max_weight)


def random_spanning_tree_forest(
    graph: Graph, seed: Optional[int] = None
) -> SpanningForest:
    """A uniform-ish random spanning forest of ``graph`` (for repair tests).

    Runs a randomized DFS per connected component and marks the discovered
    tree edges.  The result spans every component but is generally *not* the
    MST, which is what the FindMin / FindAny unit tests want (an arbitrary
    maintained tree with a rich set of outgoing non-tree edges).
    """
    rng = random.Random(seed)
    forest = SpanningForest(graph)
    visited: Set[int] = set()
    for start in graph.nodes():
        if start in visited:
            continue
        visited.add(start)
        stack = [start]
        while stack:
            node = stack[-1]
            candidates = [nbr for nbr in graph.neighbors(node) if nbr not in visited]
            if not candidates:
                stack.pop()
                continue
            nxt = candidates[rng.randrange(len(candidates))]
            visited.add(nxt)
            forest.mark(node, nxt)
            stack.append(nxt)
    return forest
