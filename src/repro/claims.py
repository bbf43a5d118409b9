"""The claims ledger: every pinned counter of the repo, in one file.

Each :class:`Claim` is a seeded sweep.  ``measure(param)`` returns one row
of exact integers — sums, hit counts and content hashes, never means or
floats — and ``check(rows)`` asserts the claim's shape on the rows of either
tier.  Two kinds of claim share the ledger:

* the paper's claims (the crossover against GHS, a bound ratio inside its
  band, a closed-form cost), measured over size sweeps;
* regression pins: the golden ``RunResult`` grid, the repair counters per
  workload, the churn baseline, each search's charges per kind and the
  seed-0 fuzz campaign, whose shape check is that every run verifies.

The *quick* tier runs in the tier-1 tests; the *full* tier adds the larger
sizes and the slow rows.  Both tiers are committed in ``CLAIMS.json``, one
key per line, and compared exactly, on the fast path and on the reference
path (``REPRO_FASTPATH=0``): the two kernel tiers must reproduce the same
pinned counters.

Re-pin with the one command (it takes no arguments, prints the ledger and
exits 1 if any check fails); ``git diff CLAIMS.json`` then lists every
moved counter, old and new, on its own line::

    python -m repro.claims > CLAIMS.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from . import fastpath
from .analysis.complexity import bound_value, fit_constant, is_sublinear_in
from .api import (
    ExperimentSpec,
    FaultSpec,
    GraphSpec,
    RunResult,
    ScheduleSpec,
    WorkloadSpec,
    list_algorithms,
    run,
)
from .api.canonical import content_hash
from .api.scenario import get_workload
from .baselines.recompute_repair import RecomputeMaintainer
from .core.build_mst import BuildMST
from .core.build_st import BuildST
from .core.config import FINDANY_SUCCESS_PROBABILITY, AlgorithmConfig
from .core.findany import FindAny
from .core.findmin import FindMin
from .core.primes import prime_for_field
from .core.sample import SuperpolyFindMin
from .core.testout import CutTester
from .dynamic import TreeMaintainer, tree_edge_deletions, weight_perturbations
from .fuzz import FuzzCampaign, report_to_json
from .generators import random_connected_graph, random_spanning_tree_forest
from .network.accounting import MessageAccountant
from .network.broadcast import (
    SUM_REDUCER,
    BroadcastEchoExecutor,
    delivery_substrate,
    make_substrate,
)
from .network.fragments import SpanningForest
from .network.graph import Edge, Graph
from .service.store import canonical_result
from .verify import is_minimum_spanning_forest

__all__ = ["CLAIMS", "Claim", "ClaimFailure", "TIERS", "ledger", "main", "render"]

Row = Dict[str, Any]
TIERS = ("quick", "full")

#: kkt-mst messages / (n log² n / log log n) from n=256 on, where Build-MST
#: has overtaken GHS: 20.5, 22.2 and 22.0 at n = 256, 512 and 1024.
KKT_MST_BAND = (20.0, 23.0)
#: FindMin B&Es / (log n / log log n) per call (Lemma 2): 18.2-22.9 measured.
FINDMIN_BNE_PER_BOUND = 25
#: FindAny B&Es per call (Lemma 5: an expected constant): 5.6-8.0 measured.
FINDANY_BNE_PER_CALL = 10
#: Impromptu MST repair messages per update / (n log n / log log n)
#: (Theorem 1.2): deletions average 12.7-25.3 (E5), churn 10.0 at n=1024.
REPAIR_PER_BOUND = 30
#: The seed of the volley, churn and wave claims.
VOLLEY_SEED = 2015


class ClaimFailure(AssertionError):
    """A claim's shape check failed; the message names the claim."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ClaimFailure(message)


@dataclass(frozen=True)
class Claim:
    """One seeded sweep: a row per parameter and a shape check over rows."""

    name: str
    measure: Callable[[Any], Row]
    shape: Callable[[List[Row]], None]
    quick: Tuple[Hashable, ...]
    #: Every parameter of the full tier, in row order (default: ``quick``).
    full: Tuple[Hashable, ...] = ()

    def params(self, tier: str) -> Tuple[Hashable, ...]:
        return self.quick if tier == "quick" else (self.full or self.quick)

    def check(self, rows: List[Row]) -> None:
        """Raise :class:`ClaimFailure`, naming this claim, if the shape fails."""
        try:
            self.shape(rows)
        except ClaimFailure as exc:
            raise ClaimFailure(f"{self.name}: {exc}") from None

    def verify_row(self, index: int, row: Row, pinned: Row) -> None:
        """Require row ``index`` equal to its ``pinned`` ledger row.

        The failure names the claim, the row and every moved counter as
        ``path pinned -> measured``.
        """
        if row != pinned:
            new, old = _leaves(row), _leaves(pinned)
            moved = ", ".join(
                f"{path} {old.get(path)} -> {new.get(path)}"
                for path in sorted(new.keys() | old.keys())
                if new.get(path) != old.get(path)
            )
            raise ClaimFailure(f"{self.name}: row {index} moved: {moved}")


def _leaves(value: Any, path: str = "") -> Dict[str, Any]:
    """Every scalar of a row, keyed by its dotted path (``plain.bits``)."""
    if isinstance(value, dict):
        items: Any = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    leaves: Dict[str, Any] = {}
    for key, item in items:
        leaves.update(_leaves(item, f"{path}.{key}" if path else str(key)))
    return leaves


# ---------------------------------------------------------------------- #
# shared scenario builders
# ---------------------------------------------------------------------- #
def _random_graph(n: int, edges_per_node: int, seed: int) -> Graph:
    return random_connected_graph(n, min(edges_per_node * n, n * (n - 1) // 2), seed=seed)


def _broken_tree(graph: Graph, seed: int, split: int) -> Tuple[SpanningForest, int]:
    """A random spanning tree less its ``split``-th edge; root on the larger side."""
    forest = random_spanning_tree_forest(graph, seed=seed + 1)
    key = sorted(forest.marked_edges)[split]
    forest.unmark(*key)
    return forest, max(key, key=lambda node: len(forest.component_of(node)))


def _lightest_cut_edge(graph: Graph, forest: SpanningForest, root: int) -> Edge:
    cut = forest.outgoing_edges(forest.component_of(root))
    return min(cut, key=lambda edge: edge.augmented_weight(graph.id_bits))


def _counters(result: RunResult) -> Row:
    """A registry run's counters and whether it verified."""
    return {**result.counters(), "ok": int(result.ok)}


def _runs(n: int, density: str, seed: int, algorithms: Tuple[str, ...]) -> Row:
    """One registry run per algorithm on the same spec: counters and ``ok``."""
    row: Row = {"n": n}
    for algorithm in algorithms:
        result = run(algorithm, GraphSpec(nodes=n, density=density, seed=seed))
        row["m"] = result.m
        row[algorithm] = _counters(result)
    return row


def _require_ok(row: Row, algorithms: Tuple[str, ...]) -> None:
    for algorithm in algorithms:
        _require(row[algorithm]["ok"] == 1, f"{algorithm} failed its checks at n={row['n']}")


# ---------------------------------------------------------------------- #
# Theorem 1.1: construction against GHS and flooding (E1, E2) and rounds (E9)
# ---------------------------------------------------------------------- #
CROSSOVER = ("kkt-mst", "ghs", "kkt-st", "flooding")


def _crossover_row(n: int) -> Row:
    return _runs(n, "complete", 1, CROSSOVER)


def _crossover_shape(rows: List[Row]) -> None:
    for row in rows:
        n, m = row["n"], row["m"]
        kkt, ghs = row["kkt-mst"]["messages"], row["ghs"]["messages"]
        _require_ok(row, CROSSOVER)
        _require(row["kkt-st"]["messages"] < row["flooding"]["messages"],
                 f"kkt-st does not beat flooding at n={n}")
        if n <= 128:
            _require(kkt >= ghs, f"kkt-mst beats ghs already at n={n}")
        else:
            _require(kkt < ghs, f"kkt-mst does not beat ghs at n={n}")
        _require(0 < kkt < 30 * m, f"kkt-mst sends {kkt} messages, outside (0, 30m), at n={n}")
    _require(is_sublinear_in([row["kkt-mst"]["messages"] for row in rows],
                             [row["m"] for row in rows]),
             "kkt-mst messages / m does not shrink along the sweep")
    large = [row for row in rows if row["n"] >= 256]
    fit = fit_constant([(row["n"], row["m"]) for row in large],
                       [row["kkt-mst"]["messages"] for row in large],
                       "n_log2_n_over_loglog_n")
    low, high = KKT_MST_BAND
    _require(low <= fit.min_constant and fit.max_constant <= high,
             f"kkt-mst / (n log^2 n / log log n) = {fit.constants} leaves [{low}, {high}]")


def _rounds_row(n: int) -> Row:
    return _runs(n, "dense", 13, ("kkt-mst", "kkt-st"))


def _rounds_shape(rows: List[Row]) -> None:
    for row in rows:
        n, m = row["n"], row["m"]
        _require_ok(row, ("kkt-mst", "kkt-st"))
        mst, st = row["kkt-mst"]["rounds"], row["kkt-st"]["rounds"]
        _require(0 < mst < 10 * bound_value("n_log2_n_over_loglog_n", n, m),
                 f"kkt-mst rounds {mst} outside (0, 10 n log^2 n / log log n) at n={n}")
        _require(0 < st < 10 * bound_value("n_log_n", n, m),
                 f"kkt-st rounds {st} outside (0, 10 n log n) at n={n}")


# ---------------------------------------------------------------------- #
# Lemma 1: TestOut and HP-TestOut (E6-E8)
# ---------------------------------------------------------------------- #
TESTOUT_TRIALS, HP_TRIALS = 200, 40


def _testout_row(n: int, seed: int = 11) -> Row:
    graph = _random_graph(n, 3, seed)
    forest, root = _broken_tree(graph, seed, n // 4)
    tester = CutTester(graph, forest, AlgorithmConfig(n=n, seed=seed), MessageAccountant())
    hits = sum(tester.test_out(root) for _ in range(TESTOUT_TRIALS))
    hp_hits = sum(tester.hp_test_out(root) for _ in range(HP_TRIALS))

    # An unbroken spanning tree has an empty cut: no test may fire.
    whole = _random_graph(n, 3, seed + 1)
    whole_forest = random_spanning_tree_forest(whole, seed=seed + 2)
    sound = CutTester(whole, whole_forest, AlgorithmConfig(n=n, seed=seed + 1), MessageAccountant())
    whole_root = whole.nodes()[0]
    false_positives = sum(sound.test_out(whole_root) for _ in range(TESTOUT_TRIALS))
    hp_false_positives = sum(sound.hp_test_out(whole_root) for _ in range(HP_TRIALS))

    accountant = MessageAccountant()
    tester = CutTester(graph, forest, AlgorithmConfig(n=n, seed=seed), accountant)
    before = accountant.snapshot()
    tester.test_out(root)
    testout = accountant.since(before)
    stats = tester.tree_statistics(root)
    prime = prime_for_field(stats.max_edge_number, stats.num_endpoints, 0.001)
    before = accountant.snapshot()
    tester.hp_test_out(root, field_prime=prime)
    hp = accountant.since(before)
    return {
        "n": n,
        "tree_size": len(forest.component_of(root)),
        "trials": TESTOUT_TRIALS,
        "hits": hits,
        "false_positives": false_positives,
        "hp_trials": HP_TRIALS,
        "hp_hits": hp_hits,
        "hp_false_positives": hp_false_positives,
        "testout_messages": testout.messages,
        "testout_broadcast_echoes": testout.broadcast_echoes,
        "hp_messages": hp.messages,
        "hp_broadcast_echoes": hp.broadcast_echoes,
    }


def _testout_shape(rows: List[Row]) -> None:
    for row in rows:
        n, one_bne = row["n"], 2 * (row["tree_size"] - 1)
        _require(8 * row["hits"] >= row["trials"], f"TestOut detects under 1/8 at n={n}")
        _require(row["hp_hits"] == row["hp_trials"], f"HP-TestOut missed a cut at n={n}")
        _require(row["false_positives"] == row["hp_false_positives"] == 0,
                 f"a test fired on an empty cut at n={n}")
        _require(row["testout_broadcast_echoes"] == row["hp_broadcast_echoes"] == 1,
                 f"a test took more than one broadcast-and-echo at n={n}")
        _require(row["testout_messages"] == row["hp_messages"] == one_bne,
                 f"a test did not cost 2(|T|-1) = {one_bne} messages at n={n}")


# ---------------------------------------------------------------------- #
# Lemmas 2, 4, 5: FindMin and FindAny (E3, E4)
# ---------------------------------------------------------------------- #
SEARCH_REPEATS, CAPPED_TRIALS = 5, 40


def _findmin_row(n: int, seed: int = 3) -> Row:
    row = {"n": n, "repeats": SEARCH_REPEATS, "tree_size": 0, "broadcast_echoes": 0,
           "messages": 0, "correct": 0}
    for rep in range(SEARCH_REPEATS):
        graph = _random_graph(n, 3, seed + 17 * rep)
        forest, root = _broken_tree(graph, seed + 17 * rep, n // 3)
        config = AlgorithmConfig(n=n, seed=seed + rep)
        result = FindMin(graph, forest, config, MessageAccountant()).find_min(root)
        row["correct"] += int(result.edge == _lightest_cut_edge(graph, forest, root))
        row["tree_size"] += len(forest.component_of(root))
        row["broadcast_echoes"] += result.broadcast_echoes
        row["messages"] += result.cost.messages
    return row


def _findmin_shape(rows: List[Row]) -> None:
    for row in rows:
        n, repeats = row["n"], row["repeats"]
        bound = bound_value("log_n_over_loglog_n", n, 0)
        _require(row["correct"] == repeats, f"FindMin missed the lightest edge at n={n}")
        _require(row["messages"] > 0, f"FindMin sent no messages at n={n}")
        _require(row["broadcast_echoes"] <= FINDMIN_BNE_PER_BOUND * repeats * bound,
                 f"FindMin B&Es exceed {FINDMIN_BNE_PER_BOUND} log n / log log n at n={n}")


def _findany_row(n: int, seed: int = 5) -> Row:
    row = {"n": n, "repeats": SEARCH_REPEATS, "tree_size": 0, "broadcast_echoes": 0,
           "messages": 0, "valid": 0, "findmin_messages": 0}
    for rep in range(SEARCH_REPEATS):
        graph = _random_graph(n, 3, seed + 13 * rep)
        forest, root = _broken_tree(graph, seed + 13 * rep, n // 3)
        cut = {edge.endpoints for edge in forest.outgoing_edges(forest.component_of(root))}
        config = AlgorithmConfig(n=n, seed=seed + rep)
        result = FindAny(graph, forest, config, MessageAccountant()).find_any(root)
        row["valid"] += int(result.edge is not None and result.edge.endpoints in cut)
        row["tree_size"] += len(forest.component_of(root))
        row["broadcast_echoes"] += result.broadcast_echoes
        row["messages"] += result.cost.messages
        # A fresh config: searches sharing one would share its coin generator.
        config = AlgorithmConfig(n=n, seed=seed + rep)
        minimum = FindMin(graph, forest, config, MessageAccountant()).find_min(root)
        row["findmin_messages"] += minimum.cost.messages

    graph = _random_graph(n, 3, seed)
    forest, root = _broken_tree(graph, seed, n // 3)
    row["capped_trials"] = CAPPED_TRIALS
    row["capped_successes"] = sum(
        FindAny(graph, forest, AlgorithmConfig(n=n, seed=1000 + trial), MessageAccountant())
        .find_any_capped(root).edge is not None
        for trial in range(CAPPED_TRIALS)
    )
    return row


def _findany_shape(rows: List[Row]) -> None:
    for row in rows:
        n, repeats = row["n"], row["repeats"]
        _require(row["valid"] == repeats, f"FindAny returned a non-cut edge at n={n}")
        _require(row["capped_successes"] >= FINDANY_SUCCESS_PROBABILITY * row["capped_trials"],
                 f"FindAny-C succeeds under 1/16 at n={n}")
        _require(row["broadcast_echoes"] <= FINDANY_BNE_PER_CALL * repeats,
                 f"FindAny averages over {FINDANY_BNE_PER_CALL} B&Es at n={n}")
        _require(row["findmin_messages"] > row["messages"],
                 f"FindAny is not cheaper than FindMin at n={n}")


# ---------------------------------------------------------------------- #
# Appendix A and Section 3.1: wide weights (E10) and word size (E12)
# ---------------------------------------------------------------------- #
WIDE_N, WORD_N, WIDE_REPEATS = 64, 96, 3


def _superpoly_row(weight_bits: int, seed: int = 17) -> Row:
    row = {"weight_bits": weight_bits, "repeats": WIDE_REPEATS, "sampled_correct": 0,
           "sampled_broadcast_echoes": 0, "oblivious_broadcast_echoes": 0}
    for rep in range(WIDE_REPEATS):
        graph = random_connected_graph(WIDE_N, 3 * WIDE_N, seed=seed + 31 * rep)
        for index, edge in enumerate(graph.edges()):
            graph.set_weight(edge.u, edge.v, (edge.weight << max(weight_bits - 14, 0)) + index)
        forest, root = _broken_tree(graph, seed + 31 * rep, WIDE_N // 3)
        sampled = SuperpolyFindMin(
            graph, forest, AlgorithmConfig(n=WIDE_N, seed=seed + rep), MessageAccountant()
        ).run(root)
        oblivious = FindMin(
            graph, forest, AlgorithmConfig(n=WIDE_N, seed=seed + rep), MessageAccountant()
        ).find_min(root)
        row["sampled_correct"] += int(sampled.edge == _lightest_cut_edge(graph, forest, root))
        row["sampled_broadcast_echoes"] += sampled.broadcast_echoes
        row["oblivious_broadcast_echoes"] += oblivious.broadcast_echoes
    return row


def _superpoly_shape(rows: List[Row]) -> None:
    for row in rows:
        bits = row["weight_bits"]
        _require(row["sampled_correct"] == row["repeats"],
                 f"sampled FindMin missed the lightest edge at {bits}-bit weights")
        _require(row["sampled_broadcast_echoes"] < row["oblivious_broadcast_echoes"],
                 f"sampled pivots do not beat oblivious splitting at {bits}-bit weights")


def _wordsize_row(word_size: int, seed: int = 23) -> Row:
    row = {"word_size": word_size, "repeats": WIDE_REPEATS, "correct": 0,
           "broadcast_echoes": 0, "messages": 0}
    for rep in range(WIDE_REPEATS):
        graph = random_connected_graph(WORD_N, 4 * WORD_N, seed=seed + 11 * rep)
        forest, root = _broken_tree(graph, seed + 11 * rep, WORD_N // 3)
        config = AlgorithmConfig(n=WORD_N, seed=seed + rep, word_size=word_size)
        result = FindMin(graph, forest, config, MessageAccountant()).find_min(root)
        row["correct"] += int(result.edge == _lightest_cut_edge(graph, forest, root))
        row["broadcast_echoes"] += result.broadcast_echoes
        row["messages"] += result.cost.messages
    return row


def _wordsize_shape(rows: List[Row]) -> None:
    binary = next(row for row in rows if row["word_size"] == 2)
    for row in rows:
        w = row["word_size"]
        _require(row["correct"] == row["repeats"], f"FindMin missed the lightest edge at w={w}")
        _require(w == 2 or row["broadcast_echoes"] < binary["broadcast_echoes"],
                 f"w={w} needs no fewer B&Es than binary search (w=2)")


# ---------------------------------------------------------------------- #
# Theorem 1.2: impromptu repair (E5, E11) and its waves
# ---------------------------------------------------------------------- #
def _repair_mode_costs(n: int, mode: str, seed: int) -> Dict[str, int]:
    graph = _random_graph(n, 4, seed)
    config = AlgorithmConfig(n=n, seed=seed)
    report = (BuildMST if mode == "mst" else BuildST)(graph, config=config).run()
    maintainer = TreeMaintainer(graph, report.forest, mode=mode, seed=seed)
    maintainer.apply_stream(tree_edge_deletions(graph, report.forest, count=6, seed=seed))
    costs: Dict[str, int] = {}
    for outcome in maintainer.history:
        kind = outcome.update.kind.value
        costs[f"{mode}_{kind}s"] = costs.get(f"{mode}_{kind}s", 0) + 1
        costs[f"{mode}_{kind}_messages"] = costs.get(f"{mode}_{kind}_messages", 0) + outcome.messages
    return costs


def _repair_row(n: int, seed: int = 7) -> Row:
    return {"n": n, **_repair_mode_costs(n, "mst", seed), **_repair_mode_costs(n, "st", seed + 1)}


def _repair_shape(rows: List[Row]) -> None:
    for row in rows:
        n = row["n"]
        bound = bound_value("n_log_n_over_loglog_n", n, 0)
        _require(row["mst_delete_messages"] <= REPAIR_PER_BOUND * row["mst_deletes"] * bound,
                 f"an MST deletion averages over {REPAIR_PER_BOUND} n log n / log log n at n={n}")
        _require(row["st_delete_messages"] < 20 * n * row["st_deletes"],
                 f"an ST deletion averages 20n messages or more at n={n}")
        _require(row["mst_insert_messages"] < 6 * n * row["mst_inserts"],
                 f"an insertion averages 6n messages or more at n={n}")
        _require(row["mst_delete_messages"] * row["st_deletes"]
                 > row["st_delete_messages"] * row["mst_deletes"],
                 f"an MST deletion is no dearer than an ST deletion at n={n}")


def _recompute_row(sizes: Tuple[int, int], seed: int = 19) -> Row:
    n, m = sizes
    m = min(m, n * (n - 1) // 2)
    graph = random_connected_graph(n, m, seed=seed)
    report = BuildMST(graph, config=AlgorithmConfig(n=n, seed=seed)).run()
    maintainer = TreeMaintainer(graph, report.forest, mode="mst", seed=seed)
    # `churn` with an even length 2k is exactly k tree-edge delete/reinsert pairs.
    stream = get_workload("churn")(graph, report.forest, count=8, seed=seed)
    maintainer.apply_stream(stream)
    recompute = RecomputeMaintainer(random_connected_graph(n, m, seed=seed), mode="mst")
    return {
        "n": n,
        "m": m,
        "updates": len(stream),
        "waves": len(maintainer.history),
        "impromptu_messages": sum(maintainer.messages_per_wave()),
        "recompute_messages": sum(recompute.apply_batch([u]).messages for u in stream),
        "msf_ok": int(is_minimum_spanning_forest(report.forest)),
    }


def _recompute_shape(rows: List[Row]) -> None:
    for row in rows:
        n = row["n"]
        _require(row["msf_ok"] == 1, f"the repaired forest is not minimum at n={n}")
        _require(row["recompute_messages"] * row["waves"]
                 > row["impromptu_messages"] * row["updates"],
                 f"recomputing is no dearer per update than impromptu repair at n={n}")


def _churned_maintainer(n: int, updates: int, stream_seed: int, batch: int = 1) -> TreeMaintainer:
    """Build-MST on the sparse ``n``-node graph, then ``updates`` churn updates."""
    graph = GraphSpec(nodes=n, density="sparse", seed=VOLLEY_SEED).build()
    report = BuildMST(graph, config=AlgorithmConfig(n=n, seed=VOLLEY_SEED)).run()
    stream = WorkloadSpec(name="churn", updates=updates).resolve_seed(stream_seed).build(
        graph, report.forest
    )
    maintainer = TreeMaintainer(graph, report.forest, mode="mst", seed=VOLLEY_SEED)
    maintainer.apply_stream(stream, batch_size=batch)
    return maintainer


def _repair_churn_row(n: int) -> Row:
    maintainer = _churned_maintainer(n, 16, VOLLEY_SEED)
    return {
        "n": n,
        "m": maintainer.graph.num_edges,
        "updates": len(maintainer.history),
        **maintainer.accountant.summary(),
        "msf_ok": int(is_minimum_spanning_forest(maintainer.forest)),
    }


def _repair_churn_shape(rows: List[Row]) -> None:
    for row in rows:
        n = row["n"]
        _require(row["msf_ok"] == 1, f"the repaired forest is not minimum at n={n}")
        bound = bound_value("n_log_n_over_loglog_n", n, 0)
        _require(row["messages"] <= REPAIR_PER_BOUND * row["updates"] * bound,
                 f"an update averages over {REPAIR_PER_BOUND} n log n / log log n at n={n}")


WAVE_SIZES = (4, 16, 64)


def _repair_waves_row(n: int) -> Row:
    """Sequential and batched legs over the same churn stream, per wave size."""
    row: Row = {"n": n}
    for k in WAVE_SIZES:
        seq = _churned_maintainer(n, k, VOLLEY_SEED + k)
        batched = _churned_maintainer(n, k, VOLLEY_SEED + k, batch=k)
        row["m"] = seq.graph.num_edges
        seq_messages = seq.accountant.summary()["messages"]
        batched_messages = batched.accountant.summary()["messages"]
        row[f"seq_messages_k{k}"] = seq_messages
        row[f"batched_messages_k{k}"] = batched_messages
        row[f"amortized_x100_k{k}"] = seq_messages * 100 // max(batched_messages, 1)
        row[f"forest_equal_k{k}"] = int(
            sorted(seq.forest.marked_edges) == sorted(batched.forest.marked_edges)
        )
        row[f"saved_queries_k{k}"] = sum(
            outcome.report.skipped_candidates for outcome in batched.history
        )
    return row


def _repair_waves_shape(rows: List[Row]) -> None:
    for row in rows:
        for k in WAVE_SIZES:
            _require(row[f"forest_equal_k{k}"] == 1,
                     f"batched forest differs from sequential at n={row['n']}, k={k}")
            _require(row[f"amortized_x100_k{k}"] > 100,
                     f"waves of {k} save no messages at n={row['n']}")


# ---------------------------------------------------------------------- #
# volleys: a whole-graph sketch pass and the Bracha substrate overhead
# ---------------------------------------------------------------------- #
def _sketch_volley_row(n: int) -> Row:
    """Statistics, 2 TestOuts, an HP-TestOut and a FindAny on one broken tree."""
    graph = GraphSpec(nodes=n, density="sparse", seed=VOLLEY_SEED).build()
    forest, root = _broken_tree(graph, VOLLEY_SEED, n // 3)
    accountant = MessageAccountant()
    tester = CutTester(graph, forest, AlgorithmConfig(n=n, seed=VOLLEY_SEED), accountant)
    tester.tree_statistics(root)
    tester.test_out(root)
    tester.test_out(root)
    tester.hp_test_out(root)
    FindAny(graph, forest, AlgorithmConfig(n=n, seed=VOLLEY_SEED + 1), accountant).find_any(root)
    return {"n": n, "m": graph.num_edges, "tree_size": len(forest.component_of(root)),
            **accountant.summary()}


def _sketch_volley_shape(rows: List[Row]) -> None:
    for row in rows:
        one_bne = 2 * (row["tree_size"] - 1)
        _require(row["broadcast_echoes"] >= 5, f"the volley ran under 5 B&Es at n={row['n']}")
        _require(row["messages"] == one_bne * row["broadcast_echoes"],
                 f"a volley B&E did not cost 2(|T|-1) = {one_bne} messages at n={row['n']}")


BRACHA_N = 128


def _bracha_row(density: str) -> Row:
    """8 aggregating B&Es, 2 broadcasts and 2 edge sends on each substrate."""
    graph = GraphSpec(nodes=BRACHA_N, density=density, seed=VOLLEY_SEED).build()
    forest = random_spanning_tree_forest(graph, seed=VOLLEY_SEED + 1)
    root = min(graph.nodes())
    u, v = min((edge.u, edge.v) for edge in graph.edges())
    row: Row = {"density": density, "n": BRACHA_N, "m": graph.num_edges}
    for label in ("plain", "bracha"):
        accountant = MessageAccountant()
        substrate = make_substrate(label, n=BRACHA_N)
        executor = BroadcastEchoExecutor(graph, forest, accountant, substrate=substrate)
        for _ in range(8):
            executor.broadcast_and_echo(root, local_value=lambda node: 1, reducer=SUM_REDUCER,
                                        broadcast_bits=1, echo_bits=graph.id_bits, kind="sum")
        for _ in range(2):
            executor.broadcast_only(root, broadcast_bits=graph.id_bits)
            executor.point_to_point_along_edge(u, v, graph.id_bits)
        row[label] = accountant.summary()
    return row


def _bracha_shape(rows: List[Row]) -> None:
    for row in rows:
        n, plain = row["n"], row["plain"]["messages"]
        _require(plain == 18 * (n - 1) + 2,
                 f"the plain volley sent {plain} != 18(n-1)+2 messages ({row['density']})")
        _require(row["bracha"]["messages"] == plain * (n - 1) * (2 * n + 1),
                 f"a Bracha instance did not cost (n-1)(2n+1) messages ({row['density']})")


# ---------------------------------------------------------------------- #
# regression pins: registry runs, repairs, searches and the fuzz campaign
# ---------------------------------------------------------------------- #
GOLDEN_GRAPH = GraphSpec(nodes=16, density="sparse", seed=3)
GOLDEN_SCENARIOS = {
    "plain": GOLDEN_GRAPH,
    "churn": ExperimentSpec(graph=GOLDEN_GRAPH, workload=WorkloadSpec(name="churn", updates=6)),
    "random": ExperimentSpec(graph=GOLDEN_GRAPH, schedule=ScheduleSpec(scheduler="random")),
    "crash-leaves": ExperimentSpec(graph=GOLDEN_GRAPH, faults=FaultSpec(name="crash-leaves")),
    "link-storm": ExperimentSpec(graph=GOLDEN_GRAPH, faults=FaultSpec(name="link-storm")),
}
GOLDEN_ALGORITHMS = ("kkt-mst", "kkt-st", "ghs", "flooding", "kkt-repair", "recompute-repair")
#: (algorithm, scenario, runner options): every algorithm under every
#: scenario, then the runner options that reach the shared run skeleton.
GOLDEN_CELLS = (
    *((algorithm, scenario, ()) for algorithm in GOLDEN_ALGORITHMS for scenario in GOLDEN_SCENARIOS),
    ("kkt-mst", "plain", (("substrate", "bracha"),)),
    ("kkt-st", "plain", (("substrate", "bracha"),)),
    ("kkt-repair", "plain", (("substrate", "bracha"),)),
    *((algorithm, "plain", (("record_state", True),)) for algorithm in GOLDEN_ALGORITHMS),
    ("kkt-repair", "churn", (("repair_batch", 4),)),
    ("recompute-repair", "churn", (("repair_batch", 4),)),
    ("kkt-repair", "plain", (("mode", "st"),)),
)


def _golden_row(cell: Tuple[str, str, Tuple[Tuple[str, Any], ...]]) -> Row:
    """One cell's counters and the content hash of its canonical result.

    The hash covers every counter, check, extra and provenance field, so
    drift in how a runner resolves its scenario, verifies its tree or
    records its result moves it even when no counter moves.
    """
    algorithm, scenario, options = cell
    result = run(algorithm, GOLDEN_SCENARIOS[scenario], **dict(options))
    return {
        "cell": "-".join([algorithm, scenario, *(f"{key}={value}" for key, value in options)]),
        **_counters(result),
        "hash": content_hash(canonical_result(result.to_dict())),
    }


def _all_ok(rows: List[Row]) -> None:
    for index, row in enumerate(rows):
        _require(row["ok"] == 1, f"row {index} failed its checks")


def _golden_shape(rows: List[Row]) -> None:
    _all_ok(rows)
    cells = {row["cell"] for row in rows}
    for algorithm in list_algorithms():
        for scenario in GOLDEN_SCENARIOS:
            _require(f"{algorithm}-{scenario}" in cells,
                     f"the grid has no {algorithm}-{scenario} cell")


#: kkt-repair on a sparse n=32 graph with 12 updates, per registered
#: workload x mode x wave size (0 = one update at a time).
REPAIR_WORKLOAD_CELLS = tuple(
    (workload, mode, batch)
    for workload in ("churn", "weight-ramp", "insert-heavy", "bridge-heavy", "deletions-only")
    for mode in ("mst", "st")
    for batch in (0, 4)
)


def _repair_workload_row(cell: Tuple[str, str, int]) -> Row:
    workload, mode, batch = cell
    spec = ExperimentSpec(graph=GraphSpec(nodes=32, density="sparse", seed=3),
                          workload=WorkloadSpec(name=workload))
    result = run("kkt-repair", spec, updates=12, mode=mode, repair_batch=batch)
    return {"workload": workload, "mode": mode, "repair_batch": batch, **_counters(result)}


def _weight_stream_row(mode: str) -> Row:
    """Per-update costs of 16 weight perturbations on a random n=20, m=60 graph.

    The only pinned stream that lowers weights (both a swap and a kept
    edge); an ST ignores weights, so every one of its updates is free.
    """
    graph = random_connected_graph(20, 60, seed=5)
    builder = BuildMST if mode == "mst" else BuildST
    forest = builder(graph, config=AlgorithmConfig(n=20, seed=5)).run().forest
    maintainer = TreeMaintainer(graph, forest, mode=mode, seed=5)
    updates = []
    for update in weight_perturbations(graph, count=16, seed=5):
        cost = maintainer.apply(update).report.cost
        updates.append({"kind": update.kind.value, "messages": cost.messages,
                        "bits": cost.bits, "rounds": cost.rounds})
    return {"mode": mode, "updates": updates}


def _weight_stream_shape(rows: List[Row]) -> None:
    for row in rows:
        mode, updates = row["mode"], row["updates"]
        _require({update["kind"] for update in updates} == {"increase_weight", "decrease_weight"},
                 f"the {mode} stream does not both raise and lower weights")
        _require(mode == "mst" or not any(update["messages"] for update in updates),
                 f"the {mode} tree paid for a weight change")


#: (algorithm, n, density, seed, updates) of the implicit ``churn`` stream,
#: pinned since before the stream became a registered workload.
CHURN_BASELINE_CASES = (
    ("kkt-repair", 32, "sparse", 3, 6),
    ("kkt-repair", 24, "dense", 11, 9),
    ("recompute-repair", 32, "sparse", 3, 6),
    ("recompute-repair", 24, "dense", 11, 9),
)


def _churn_baseline_row(case: Tuple[str, int, str, int, int]) -> Row:
    algorithm, n, density, seed, updates = case
    result = run(algorithm, GraphSpec(nodes=n, density=density, seed=seed), updates=updates)
    return {"algorithm": algorithm, "n": n, "density": density, "seed": seed,
            "updates": updates, **_counters(result)}


# Each search's charges per message kind.  ``FindResult.cost`` sums the
# kinds and ``RunResult`` never sees them, so a charge that moved from one
# kind to another (an HP-TestOut charged as a TestOut) would pass every
# other check.  The Bracha ledger splits every kind into reliable-broadcast
# phases, so its kinds are pinned by a digest.
SEARCH_NODES = 64
SEARCHES = {
    "findmin": lambda g, f, c, a, r: FindMin(g, f, c, a).find_min(r),
    "superpoly": lambda g, f, c, a, r: SuperpolyFindMin(g, f, c, a).run(r),
    "findany": lambda g, f, c, a, r: FindAny(g, f, c, a).find_any(r),
}
PATH_TIERS = {"fast": fastpath.fast_path, "reference": fastpath.reference_path}


def _search_charges(search: str, seed: int, substrate: str) -> Row:
    """One search on a 64-node graph whose spanning tree lost one edge."""
    graph = random_connected_graph(SEARCH_NODES, 3 * SEARCH_NODES, seed=seed)
    forest, root = _broken_tree(graph, seed, SEARCH_NODES // 3)
    accountant = MessageAccountant()
    config = AlgorithmConfig(n=SEARCH_NODES, seed=seed)
    with delivery_substrate(make_substrate(substrate, n=SEARCH_NODES)):
        result = SEARCHES[search](graph, forest, config, accountant, root)
    cost = result.cost
    _require(cost.broadcast_echoes == result.broadcast_echoes,
             f"{search} at seed {seed} charged another B&E count than it reports")
    per_kind = accountant.per_kind()
    return {
        "edge": list(result.edge.endpoints),
        "messages": cost.messages,
        "bits": cost.bits,
        "rounds": cost.rounds,
        "broadcast_echoes": cost.broadcast_echoes,
        **({"per_kind": per_kind} if substrate == "plain"
           else {"per_kind_digest": content_hash(per_kind)[:16]}),
    }


def _search_charges_row(cell: Tuple[str, int, str]) -> Row:
    search, seed, tier = cell
    with PATH_TIERS[tier]():
        return {"search": search, "seed": seed, "tier": tier,
                "plain": _search_charges(search, seed, "plain"),
                "bracha": _search_charges(search, seed, "bracha")}


def _search_charges_shape(rows: List[Row]) -> None:
    by_cell: Dict[Tuple[str, int], List[Row]] = {}
    for row in rows:
        cell = (row["search"], row["seed"])
        _require(row["bracha"]["edge"] == row["plain"]["edge"],
                 f"{cell[0]} at seed {cell[1]} returns another edge under Bracha")
        by_cell.setdefault(cell, []).append({**row, "tier": None})
    for (search, seed), legs in by_cell.items():
        _require(all(leg == legs[0] for leg in legs),
                 f"{search} at seed {seed} charges differently on the two kernel tiers")


#: The campaign of ``repro fuzz run --budget 40 --seed 0``.
FUZZ_BUDGET = 40


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fuzz_row(seed: int) -> Row:
    """The campaign's summary and the sha256 of the report and corpus files."""
    campaign = FuzzCampaign(budget=FUZZ_BUDGET, seed=seed)
    report = campaign.run()
    return {
        "seed": seed,
        "budget": FUZZ_BUDGET,
        "cases": report["cases"],
        "violation_count": report["violation_count"],
        "report_sha256": _sha256(report_to_json(report)),
        "corpus_sha256": _sha256(campaign.corpus.to_json()),
    }


def _fuzz_shape(rows: List[Row]) -> None:
    for row in rows:
        _require(row["violation_count"] == 0,
                 f"the seed-{row['seed']} campaign found {row['violation_count']} violations")


CLAIMS: Dict[str, Claim] = {
    claim.name: claim
    for claim in (
        Claim("construction-crossover", _crossover_row, _crossover_shape,
              quick=(64, 96, 128, 256), full=(64, 96, 128, 256, 512, 1024)),
        Claim("findmin", _findmin_row, _findmin_shape, quick=(256,), full=(32, 64, 128, 256, 512)),
        Claim("findany", _findany_row, _findany_shape, quick=(256,), full=(32, 64, 128, 256, 512)),
        Claim("repair", _repair_row, _repair_shape, quick=(128,), full=(32, 64, 128, 256)),
        Claim("testout", _testout_row, _testout_shape, quick=(128,), full=(32, 64, 128, 256)),
        Claim("rounds", _rounds_row, _rounds_shape, quick=(64,), full=(32, 48, 64, 96)),
        Claim("superpoly", _superpoly_row, _superpoly_shape, quick=(96,), full=(16, 48, 96, 192)),
        Claim("repair-vs-recompute", _recompute_row, _recompute_shape, quick=((64, 1024),),
              full=((32, 256), (64, 1024), (96, 2304), (128, 4096))),
        Claim("word-size", _wordsize_row, _wordsize_shape, quick=(2, 8), full=(2, 4, 8, 16, 32, 64)),
        Claim("bracha-overhead", _bracha_row, _bracha_shape, quick=("dense", "sparse")),
        Claim("sketch-volley", _sketch_volley_row, _sketch_volley_shape, quick=(10_000,)),
        Claim("repair-churn", _repair_churn_row, _repair_churn_shape, quick=(1024,)),
        Claim("repair-waves", _repair_waves_row, _repair_waves_shape, quick=(256,), full=(256, 1024)),
        Claim("golden-runs", _golden_row, _golden_shape, quick=GOLDEN_CELLS),
        Claim("repair-workloads", _repair_workload_row, _all_ok, quick=REPAIR_WORKLOAD_CELLS),
        Claim("weight-stream", _weight_stream_row, _weight_stream_shape, quick=("mst", "st")),
        Claim("churn-baseline", _churn_baseline_row, _all_ok, quick=CHURN_BASELINE_CASES),
        Claim("search-charges", _search_charges_row, _search_charges_shape,
              quick=tuple((search, seed, tier) for search in SEARCHES for seed in range(3)
                          for tier in PATH_TIERS)),
        Claim("fuzz-seed0", _fuzz_row, _fuzz_shape, quick=(), full=(0,)),
    )
}


def ledger() -> Dict[str, Dict[str, List[Row]]]:
    """Both tiers of every claim; each parameter is measured once."""
    tiers: Dict[str, Dict[str, List[Row]]] = {tier: {} for tier in TIERS}
    for claim in CLAIMS.values():
        measured = {param: claim.measure(param) for param in claim.params("full")}
        for tier in TIERS:
            tiers[tier][claim.name] = [measured[param] for param in claim.params(tier)]
    return tiers


def render(tiers: Dict[str, Dict[str, List[Row]]]) -> str:
    """The ledger as ``CLAIMS.json`` holds it: sorted keys, one key per line."""
    return json.dumps(tiers, indent=2, sort_keys=True)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        print("usage: python -m repro.claims  (takes no arguments)", file=sys.stderr)
        return 2
    pinned = ledger()
    failures = []
    for tier, claims in pinned.items():
        for name, rows in claims.items():
            try:
                CLAIMS[name].check(rows)
            except ClaimFailure as exc:
                failures.append(f"{tier} tier: {exc}")
    print(render(pinned))
    for failure in failures:
        print(f"repro.claims: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
