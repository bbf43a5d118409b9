"""Cached rooted tree structures, patched incrementally across mutations.

Every KKT procedure starts by rooting the maintained tree at its initiator
(:func:`~repro.network.broadcast.build_tree_structure`) — a full BFS over the
marked subgraph.  Between two procedure calls the forest typically changed by
at most one or two marked edges (one ``Add Edge`` per fragment per Borůvka
phase, one delete + one replacement per repair), so rebuilding from scratch
is almost always wasted work.

:class:`TreeStructureCache` keeps the most recently used rooted structures
and brings a stale one up to date by replaying the forest's mutation journal
(see :meth:`~repro.network.fragments.SpanningForest.journal_since`):

* ``mark(u, v)`` with exactly one endpoint in the structure **grafts** the
  other endpoint's component under it (a BFS of just the attached part);
* ``unmark(u, v)`` of a structure edge **detaches** the child subtree;
* ``unmark(u, v)`` directly followed by ``mark(u, v)``, or the reverse, is
  **skipped**: the pair leaves the forest as it was;
* anything that cannot be patched safely — a mark closing a cycle (Build-ST
  phases do this), an unmark of a non-structure cycle edge, a ``clear()``,
  or a journal that no longer reaches back far enough — falls back to a full
  rebuild, the same :func:`~repro.network.broadcast.build_tree_structure`
  BFS the reference path runs.

Because a tree has unique paths, the patched structure is *identical* (same
parent and depth maps) to what a fresh BFS from the root would produce, so
counters derived from it (edge count, eccentricity) are bit-for-bit the same
as on the reference path.  A structure stores no children lists, so a graft
only adds parent and depth entries, and a detach finds the subtree in one
pass over ``parent``, which lists every node after its parent.

:func:`rooted_tree` is the front door: it returns a cached structure on the
fast path and a fresh rebuild when :mod:`repro.fastpath` is disabled.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from .. import fastpath
from .broadcast import TreeStructure, build_tree_structure
from .fragments import SpanningForest

__all__ = ["TreeStructureCache", "rooted_tree"]


class _Entry:
    __slots__ = ("version", "structure")

    def __init__(self, version: int, structure: TreeStructure) -> None:
        self.version = version
        self.structure = structure


class TreeStructureCache:
    """LRU cache of rooted :class:`TreeStructure` views of one forest."""

    def __init__(self, forest: SpanningForest, max_entries: int = 16) -> None:
        self.forest = forest
        self.max_entries = max_entries
        self._entries: "OrderedDict[int, _Entry]" = OrderedDict()
        self.hits = 0
        self.rebuilds = 0
        self.patches = 0
        self.journal_overruns = 0

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def get(self, root: int) -> TreeStructure:
        """The rooted structure of ``T_root``, patched up to date."""
        version = self.forest.version
        entry = self._entries.get(root)
        if entry is not None:
            if entry.version == version:
                self._entries.move_to_end(root)
                self.hits += 1
                return entry.structure
            if self._patch(entry):
                entry.version = version
                self._entries.move_to_end(root)
                self.hits += 1
                self.patches += 1
                return entry.structure
            del self._entries[root]
        structure = self._build(root)
        self.rebuilds += 1
        self._entries[root] = _Entry(version, structure)
        self._entries.move_to_end(root)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return structure

    def _build(self, root: int) -> TreeStructure:
        return build_tree_structure(self.forest, root)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for tuning large-n runs.

        ``journal_overruns`` counts patch attempts abandoned because the
        forest's bounded journal no longer reached back to the cached
        version — persistent overruns mean the forest's ``journal_limit``
        (a constructor argument, default 1024) is too small for the workload
        and every such lookup paid a full rebuild.
        """
        return {
            "hits": self.hits,
            "patches": self.patches,
            "rebuilds": self.rebuilds,
            "journal_overruns": self.journal_overruns,
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "journal_limit": self.forest.journal_limit,
        }

    # ------------------------------------------------------------------ #
    # journal replay
    # ------------------------------------------------------------------ #
    def _patch(self, entry: _Entry) -> bool:
        """Replay journal mutations onto ``entry``; False means rebuild."""
        ops = self.forest.journal_since(entry.version)
        if ops is None:
            self.journal_overruns += 1
            return False
        structure = entry.structure
        touched = False
        index = 0
        while index < len(ops):
            _, op, u, v = ops[index]
            index += 1
            if op != "clear" and index < len(ops) and ops[index][2:] == (u, v):
                index += 1  # the next entry undoes this one: no-ops are not journaled
                continue
            if op == "mark":
                outcome = self._apply_mark(structure, u, v)
            elif op == "unmark":
                outcome = self._apply_unmark(structure, u, v)
            else:  # "clear" (or anything unknown): never patchable
                outcome = None
            if outcome is None:
                return False
            touched = touched or outcome
        if touched:
            structure.invalidate_memos()
        return True

    def _apply_mark(self, structure: TreeStructure, u: int, v: int) -> Optional[bool]:
        parent = structure.parent
        in_u, in_v = u in parent, v in parent
        if in_u and in_v:
            if parent.get(u) == v or parent.get(v) == u:
                # A graft BFS earlier in the replay already pulled this edge
                # in as a structure edge; the mark is consistent, nothing to do.
                return False
            return None  # cycle-closing mark (Build-ST): rebuild
        if not in_u and not in_v:
            return False  # a different component: this entry is unaffected
        return self._graft(structure, u if in_u else v, v if in_u else u)

    def _apply_unmark(self, structure: TreeStructure, u: int, v: int) -> Optional[bool]:
        parent = structure.parent
        in_u, in_v = u in parent, v in parent
        if not in_u and not in_v:
            return False  # a different component: this entry is unaffected
        if in_u != in_v:
            return None  # inconsistent with the cached view: rebuild
        if parent.get(u) == v:
            return self._detach(structure, u)
        if parent.get(v) == u:
            return self._detach(structure, v)
        return None  # a cycle edge of the component: rebuild

    # ------------------------------------------------------------------ #
    # structure surgery
    # ------------------------------------------------------------------ #
    def _graft(self, structure: TreeStructure, anchor: int, start: int) -> Optional[bool]:
        """Attach ``start``'s marked component below ``anchor``.

        The BFS mirrors :func:`build_tree_structure`, so the patched
        structure's parents and depths equal a rebuild's.  Returns ``None``
        (rebuild) if the BFS runs into a node already present — a back-edge
        the journal will explain later, but safe handling is to start over.
        """
        parent, depth = structure.parent, structure.depth
        marked_adj = self.forest._marked_adj
        parent[start] = anchor
        depth[start] = depth[anchor] + 1
        frontier = [start]
        while frontier:
            below: List[int] = []
            for node in frontier:
                up, level = parent[node], depth[node] + 1
                for nbr in marked_adj.get(node, ()):
                    if nbr == up:
                        continue
                    if nbr in parent:
                        return None
                    parent[nbr] = node
                    depth[nbr] = level
                    below.append(nbr)
            frontier = below
        return True

    def _detach(self, structure: TreeStructure, child: int) -> Optional[bool]:
        """Remove the subtree rooted at ``child`` from the structure.

        If the component was cyclic, the "detached" nodes may still hang off
        the remaining tree through a cycle edge; in that case a fresh BFS
        would keep (and re-depth) them, so patching is unsound and ``None``
        (rebuild) is returned.  The check also conservatively catches edges
        marked later in the journal, which a subsequent replay op would
        otherwise have to reconcile.
        """
        parent, depth = structure.parent, structure.depth
        # ``parent`` lists every node after its parent, so one pass in that
        # order collects the whole subtree below ``child``.
        removed = {child}
        for node, up in parent.items():
            if up in removed:
                removed.add(node)
        for node in removed:
            del parent[node]
            del depth[node]
        marked_adj = self.forest._marked_adj
        for node in removed:
            for nbr in marked_adj.get(node, ()):
                if nbr in parent:
                    return None
        return True


def rooted_tree(forest: SpanningForest, root: int) -> TreeStructure:
    """Rooted structure of ``T_root``: cached fast path, rebuilt otherwise."""
    if not fastpath.is_enabled():
        return build_tree_structure(forest, root)
    return forest.structures.get(root)
