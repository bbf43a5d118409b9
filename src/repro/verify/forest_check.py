"""Spanning-forest invariants.

A maintained forest is correct when (Section 1):

* the network is *properly marked* — by construction of
  :class:`~repro.network.fragments.SpanningForest` an edge is marked for both
  endpoints or neither, but :func:`check_properly_marked` also checks the
  marked edges still exist in the graph (a deleted edge must not stay
  marked);
* the marked subgraph is acyclic;
* every maintained tree is *maximal*: it spans the whole connected component
  of the graph that contains it (no marked component can be extended).
"""

from __future__ import annotations

from ..network.errors import ForestError
from ..network.fragments import SpanningForest

__all__ = ["check_properly_marked", "check_spanning_forest", "is_spanning_forest"]


def check_properly_marked(forest: SpanningForest) -> None:
    """Raise :class:`ForestError` if a marked edge is missing from the graph."""
    for u, v in forest.marked_edges:
        if not forest.graph.has_edge(u, v):
            raise ForestError(f"marked edge ({u}, {v}) does not exist in the graph")


def check_spanning_forest(forest: SpanningForest) -> None:
    """Raise :class:`ForestError` unless ``forest`` is a maximal spanning forest."""
    check_properly_marked(forest)
    forest_components = sorted(sorted(component) for component in forest.check_forest())
    graph_components = sorted(
        (sorted(component) for component in forest.graph.connected_components())
    )
    if graph_components != forest_components:
        raise ForestError(
            "maintained trees do not span the graph's connected components: "
            f"graph has {len(graph_components)} components, "
            f"forest has {len(forest_components)}"
        )


def is_spanning_forest(forest: SpanningForest) -> bool:
    """Boolean form of :func:`check_spanning_forest`."""
    try:
        check_spanning_forest(forest)
    except ForestError:
        return False
    return True
