"""Structured graph families: paths, cycles, grids, hypercubes, expanders.

These give the benchmarks controlled shapes: the complete graph maximises
``m`` (the strongest ``o(m)`` demonstration), the path/cycle maximise the
diameter (worst case for broadcast-and-echo round counts), and circulant
graphs give an expander-ish middle ground.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..network.errors import GraphError
from ..network.graph import Graph
from .random_graphs import _weighted_graph

__all__ = [
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "hypercube_graph",
    "circulant_expander",
]


def _build(n: int, edges: List[Tuple[int, int]], seed: Optional[int], max_weight: Optional[int]) -> Graph:
    return _weighted_graph(n, edges, random.Random(seed), max_weight)


def path_graph(n: int, seed: Optional[int] = None, max_weight: Optional[int] = None) -> Graph:
    """The path ``1 - 2 - … - n`` (diameter ``n − 1``)."""
    if n < 1:
        raise GraphError("n must be positive")
    edges = [(i, i + 1) for i in range(1, n)]
    return _build(n, edges, seed, max_weight)


def cycle_graph(n: int, seed: Optional[int] = None, max_weight: Optional[int] = None) -> Graph:
    """The cycle on ``n ≥ 3`` nodes."""
    if n < 3:
        raise GraphError("a cycle needs at least 3 nodes")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return _build(n, edges, seed, max_weight)


def star_graph(n: int, seed: Optional[int] = None, max_weight: Optional[int] = None) -> Graph:
    """A star: node 1 connected to every other node."""
    if n < 2:
        raise GraphError("a star needs at least 2 nodes")
    edges = [(1, i) for i in range(2, n + 1)]
    return _build(n, edges, seed, max_weight)


def complete_graph(n: int, seed: Optional[int] = None, max_weight: Optional[int] = None) -> Graph:
    """The complete graph ``K_n`` — the densest ``o(m)`` showcase."""
    if n < 1:
        raise GraphError("n must be positive")
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return _build(n, edges, seed, max_weight)


def grid_graph(rows: int, cols: int, seed: Optional[int] = None, max_weight: Optional[int] = None) -> Graph:
    """The ``rows × cols`` grid (node ``(r, c)`` has ID ``r·cols + c + 1``)."""
    if rows < 1 or cols < 1:
        raise GraphError("grid dimensions must be positive")
    n = rows * cols

    def node_id(r: int, c: int) -> int:
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((node_id(r, c), node_id(r, c + 1)))
            if r + 1 < rows:
                edges.append((node_id(r, c), node_id(r + 1, c)))
    return _build(n, edges, seed, max_weight)


def hypercube_graph(dimension: int, seed: Optional[int] = None, max_weight: Optional[int] = None) -> Graph:
    """The ``dimension``-dimensional hypercube (``2^d`` nodes, ``d·2^{d−1}`` edges)."""
    if dimension < 1:
        raise GraphError("dimension must be positive")
    n = 1 << dimension
    edges = []
    for u in range(n):
        for bit in range(dimension):
            v = u ^ (1 << bit)
            if u < v:
                edges.append((u + 1, v + 1))
    return _build(n, edges, seed, max_weight)


def circulant_expander(
    n: int, offsets: Optional[List[int]] = None, seed: Optional[int] = None, max_weight: Optional[int] = None
) -> Graph:
    """A circulant graph: node ``i`` connects to ``i ± o`` for each offset ``o``.

    With a handful of coprime-ish offsets this is a decent expander stand-in:
    constant degree, logarithmic-ish diameter.
    """
    if n < 3:
        raise GraphError("n must be at least 3")
    if offsets is None:
        offsets = [1, 2, 5]
    edges = set()
    for i in range(n):
        for offset in offsets:
            j = (i + offset) % n
            if i != j:
                edges.add((min(i, j) + 1, max(i, j) + 1))
    return _build(n, sorted(edges), seed, max_weight)
