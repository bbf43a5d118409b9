"""The benchmark's three workloads: set-up, one timed op, and its check.

Every input comes from the workload seed and the op index; the program only
ever sees the generated graphs, edges and configs.  Each op is of one kind
and does a fixed amount of work chosen by the seed, so op *i* costs the same
wherever it falls in a run.  :meth:`Workload.prepare` ends with untimed
warm-up ops (indices ``-1, -2, ...``) so lazily filled caches are paid for in
set-up.

Only the stable public API is used: ``repro.api.run``, ``GraphSpec``,
``BuildMST``, ``TreeMaintainer``, ``FindMin``, ``FindAny``, ``CutTester`` (for
the ground-truth cut) and ``repro.verify``.  Nothing here sets a ``REPRO_*``
knob or switches the fast path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro import api, verify
from repro.core import AlgorithmConfig, BuildMST, CutTester, FindAny, FindMin
from repro.dynamic import TreeMaintainer
from repro.dynamic.workloads import tree_edge_deletions
from repro.generators import random_spanning_tree_forest
from repro.network import MessageAccountant

__all__ = [
    "WORKLOADS",
    "SMALL",
    "Workload",
    "ConstructDense",
    "RepairChurn",
    "CutSearchLarge",
    "derive_seed",
]

#: ``(messages, bits, rounds, broadcast-and-echoes)`` of one op: exact, and
#: identical whenever the same op runs on the same inputs.
Counters = Tuple[int, int, int, int]

#: repair-churn and cut-search-large search trees that hold at least this
#: share of the nodes, so every op searches about the same tree.  Op costs
#: grow with the searched tree; mixing trees of n/2 and n nodes would make
#: the p90 depend on each seed's mix.
MIN_TREE_SHARE = 0.9


def derive_seed(seed: int, *parts: object) -> int:
    """A 31-bit seed for one input, stable across processes and hash seeds."""
    return random.Random(":".join(map(str, (seed,) + parts))).randrange(1 << 31)


def _key(edge: Any) -> Tuple[int, int]:
    return (min(edge.u, edge.v), max(edge.u, edge.v))


class Workload:
    """Set-up, one timed op, its check, and the op's exact counters."""

    name: str
    #: Untimed ops that end every set-up.
    warmup_ops: int = 1

    def prepare(self, seed: int) -> Dict[str, Any]:
        """Build the state for ``seed`` and run the warm-up ops on it."""
        state = self.setup(seed)
        for index in range(1, self.warmup_ops + 1):
            self.op(state, -index)
        return state

    def setup(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def op(self, state: Dict[str, Any], index: int) -> Any:
        raise NotImplementedError

    def check(self, state: Dict[str, Any], index: int, output: Any) -> bool:
        raise NotImplementedError

    def counters(self, output: Any) -> Counters:
        raise NotImplementedError

    def finish(self, state: Dict[str, Any]) -> bool:
        """A check of the state after the last op."""
        return True


def _acct_counters(acct: Any) -> Counters:
    return (acct.messages, acct.bits, acct.rounds, acct.broadcast_echoes)


# ---------------------------------------------------------------------- #
# construct-dense: spec -> graph -> Build-MST -> verified RunResult
# ---------------------------------------------------------------------- #
@dataclass
class ConstructDense(Workload):
    """Each op is ``repro.api.run("kkt-mst", GraphSpec(dense, seed=s_i))``.

    An op builds everything it uses, so set-up is only the warm-up ops.
    There are sixteen of them: one op's cost depends on its graph, and the
    sum of sixteen keeps ``setup_s`` from following a single graph.
    """

    nodes: int = 32
    warmup_ops: int = 16
    #: The repetition constant: a Monte Carlo search errs with probability
    #: at most n^-c.  An op runs dozens of searches; on 48 nodes at c=2 one
    #: op in about 1200 returned a non-minimum tree, which fails a run.
    c: float = 4.0
    name: str = "construct-dense"

    def setup(self, seed: int) -> Dict[str, Any]:
        return {"seed": seed}

    def op(self, state: Dict[str, Any], index: int) -> Any:
        spec = api.GraphSpec(
            nodes=self.nodes, density="dense", seed=derive_seed(state["seed"], index)
        )
        return api.run("kkt-mst", spec, c=self.c)

    def check(self, state: Dict[str, Any], index: int, result: Any) -> bool:
        return bool(result.checks) and all(result.checks.values())

    def counters(self, result: Any) -> Counters:
        return (
            result.messages,
            result.bits,
            result.rounds,
            result.extra["broadcast_echoes"],
        )


# ---------------------------------------------------------------------- #
# repair-churn: delete a tree edge, then reinsert it (Theorem 1.2)
# ---------------------------------------------------------------------- #
@dataclass
class RepairChurn(Workload):
    """Each op deletes two MST edges, each followed by its reinsert, via ``TreeMaintainer.apply``.

    The pairs come from ``tree_edge_deletions(..., reinsert=True)``.  Only
    pairs whose delete is repaired from a side holding at least
    :data:`MIN_TREE_SHARE` of the nodes, and that have a replacement edge,
    are kept (the smaller-ID endpoint initiates the search, so this is a
    property of the edge).  Every op is then one FindMin over about the whole
    tree and one path query over all of it, instead of a mix of
    millisecond-scale and 100-millisecond-scale deletes.  Op *i* repairs
    pairs ``2i`` and ``2i + 1``: the sum of two repairs varies less from op
    to op than one, which steadies the p90 across seeds.  Distinct augmented
    weights make the MST unique, so each op restores the starting graph and
    forest.
    """

    nodes: int = 256
    candidates: int = 256
    #: n^-c is below 2e-5 per search at n=256.
    c: float = 2.0
    name: str = "repair-churn"

    def setup(self, seed: int) -> Dict[str, Any]:
        graph = api.GraphSpec(nodes=self.nodes, density="sparse", seed=seed).build()
        forest = BuildMST(
            graph, config=AlgorithmConfig(n=self.nodes, c=self.c, seed=derive_seed(seed, "mst"))
        ).run().forest
        if not verify.is_minimum_spanning_forest(forest):
            raise RuntimeError("Build-MST returned a non-minimum forest")
        stream = list(
            tree_edge_deletions(
                graph, forest, self.candidates, seed=derive_seed(seed, "stream")
            )
        )
        pairs = []
        for delete, insert in zip(stream[0::2], stream[1::2]):
            u, v = min(delete.u, delete.v), max(delete.u, delete.v)
            forest.unmark(u, v)
            # The deleted edge itself still leaves v's side; a replacement
            # is a second edge that does.
            if len(forest.component_of(u)) >= MIN_TREE_SHARE * self.nodes and (
                len(forest.outgoing_edges(forest.component_of(v))) > 1
            ):
                pairs.append((delete, insert))
            forest.mark(u, v)
        if not pairs:
            raise RuntimeError("no tree edge is repaired from a large side")
        return {
            "graph": graph,
            "forest": forest,
            "mst": forest.marked_edges,
            "pairs": pairs,
            "seed": seed,
        }

    def op(self, state: Dict[str, Any], index: int) -> Counters:
        # A maintainer of its own gives op i the same coins wherever it runs.
        maintainer = TreeMaintainer(
            state["graph"],
            state["forest"],
            mode="mst",
            config=AlgorithmConfig(n=self.nodes, c=self.c),
            seed=derive_seed(state["seed"], index, "repair"),
        )
        pairs = state["pairs"]
        for position in (2 * index, 2 * index + 1):
            delete, insert = pairs[position % len(pairs)]
            maintainer.apply(delete)
            maintainer.apply(insert)
        return _acct_counters(maintainer.accountant)

    def check(self, state: Dict[str, Any], index: int, output: Counters) -> bool:
        return state["forest"].marked_edges == state["mst"]

    def counters(self, output: Counters) -> Counters:
        return output

    def finish(self, state: Dict[str, Any]) -> bool:
        return verify.is_minimum_spanning_forest(state["forest"])


# ---------------------------------------------------------------------- #
# cut-search-large: FindMin + FindAny over a fixed broken spanning tree
# ---------------------------------------------------------------------- #
@dataclass
class CutSearchLarge(Workload):
    """Each op runs ``FindMin.find_min(root)`` then ``FindAny.find_any(root)``.

    Set-up removes ``cuts`` different edges from one random spanning tree,
    each cutting off at most ``1 - MIN_TREE_SHARE`` of the nodes and crossed
    by at least one other edge, and roots each cut on its larger side.  Op
    *i* searches cut ``i % cuts``, so a run averages over many cuts of about
    the same tree size.  The graph never changes, so its columnar snapshot
    and the per-cut tree structures stay warm; the warm-up visits every cut
    once.
    """

    nodes: int = 256
    cuts: int = 48
    #: n^-c is below 2e-5 per search at n=256.
    c: float = 2.0
    name: str = "cut-search-large"

    @property
    def warmup_ops(self) -> int:  # type: ignore[override]
        return self.cuts

    def setup(self, seed: int) -> Dict[str, Any]:
        graph = api.GraphSpec(nodes=self.nodes, density="sparse", seed=seed).build()
        tree = random_spanning_tree_forest(graph, seed=derive_seed(seed, "tree"))
        candidates = sorted(tree.marked_edges)
        random.Random(derive_seed(seed, "cuts")).shuffle(candidates)
        cuts = []
        for key in candidates:
            forest = tree.copy()
            forest.unmark(*key)
            root = max(key, key=lambda node: len(forest.component_of(node)))
            if len(forest.component_of(root)) < MIN_TREE_SHARE * self.nodes:
                continue
            tester = CutTester(graph, forest, AlgorithmConfig(n=self.nodes, seed=0))
            crossing = tester.true_cut_edges(root)
            if not crossing:
                continue
            lightest = min(crossing, key=lambda e: e.augmented_weight(graph.id_bits))
            cuts.append(
                {
                    "forest": forest,
                    "root": root,
                    "lightest": _key(lightest),
                    "crossing": {_key(edge) for edge in crossing},
                }
            )
            forest.rooted_structure(root)
            if len(cuts) == self.cuts:
                break
        if len(cuts) < self.cuts:
            raise RuntimeError(f"only {len(cuts)} cuts leave a large tree")
        return {"seed": seed, "graph": graph, "cuts": cuts}

    def op(self, state: Dict[str, Any], index: int) -> Tuple[Any, Any, Counters]:
        cut = state["cuts"][index % len(state["cuts"])]
        graph, forest, root = state["graph"], cut["forest"], cut["root"]
        acct = MessageAccountant()
        found_min = FindMin(
            graph,
            forest,
            AlgorithmConfig(n=self.nodes, c=self.c, seed=derive_seed(state["seed"], index, "min")),
            acct,
        ).find_min(root)
        found_any = FindAny(
            graph,
            forest,
            AlgorithmConfig(n=self.nodes, c=self.c, seed=derive_seed(state["seed"], index, "any")),
            acct,
        ).find_any(root)
        return found_min.edge, found_any.edge, _acct_counters(acct)

    def check(self, state: Dict[str, Any], index: int, output: Tuple[Any, Any, Counters]) -> bool:
        cut = state["cuts"][index % len(state["cuts"])]
        found_min, found_any, _ = output
        return (
            found_min is not None
            and _key(found_min) == cut["lightest"]
            and found_any is not None
            and _key(found_any) in cut["crossing"]
        )

    def counters(self, output: Tuple[Any, Any, Counters]) -> Counters:
        return output[2]


WORKLOADS = {
    workload.name: workload
    for workload in (ConstructDense(), RepairChurn(), CutSearchLarge())
}

#: A few-node instance of each workload, for the untimed warm-up that runs
#: before any clock starts and for the benchmark's own tests.
SMALL = {
    workload.name: workload
    for workload in (
        ConstructDense(nodes=16, warmup_ops=1),
        RepairChurn(nodes=64, candidates=24),
        CutSearchLarge(nodes=96, cuts=3),
    )
}
