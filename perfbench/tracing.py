"""Out-of-band layer tracing: wrap public callables of ``repro`` from outside.

The program is never edited for tracing.  :class:`Tracer` replaces a fixed
table of public callables (:data:`TARGETS`) with thin wrappers while it is
installed and puts the originals back afterwards.  A timed wrapper records a
span (name, start, end, parent span, op id); a counting wrapper only bumps a
counter.  A callable missing from the checked-out code is reported as an
absent layer instead of raising, so the traced run keeps working after later
changes delete or rename one of them.

Spans are kept in memory for the current op only and folded into per-op
aggregates when the op ends (:meth:`Tracer.end_op`), which keeps a traced
run's memory flat however many broadcast-and-echoes an op performs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Target", "TARGETS", "KERNEL_KINDS", "Tracer", "OpTrace", "layer_metrics"]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``path`` is ``"module:Qualified.name"``."""

    span: str
    path: str
    timed: bool = True
    #: Called as ``enter(tracer, args, kwargs)`` before the original runs.
    enter: Optional[Callable[["Tracer", tuple, dict], None]] = None
    #: Called as ``leave(tracer, result)`` after the original returns.
    leave: Optional[Callable[["Tracer", Any], None]] = None


def _watch_self_accountant(tracer: "Tracer", args: tuple, kwargs: dict) -> None:
    tracer.watch_accountant(getattr(args[0], "accountant", None))


def _watch_forest(tracer: "Tracer", args: tuple, kwargs: dict) -> None:
    tracer.watch_forest(args[0])


def _note_bne_kind(tracer: "Tracer", args: tuple, kwargs: dict) -> None:
    tracer.op.bne_kinds[kwargs.get("kind", "b&e")] += 1


def _note_search(tracer: "Tracer", result: Any) -> None:
    tracer.op.search_iterations += getattr(result, "iterations", 0)
    tracer.op.search_found += int(getattr(result, "edge", None) is not None)


def _note_build(tracer: "Tracer", result: Any) -> None:
    tracer.op.build_phases += getattr(result, "phases", 0)


#: The callables wrapped per layer.  Module-level functions are replaced in
#: every ``repro`` module that imported them by name, so call sites that
#: bound the function at import time are traced too.
TARGETS: Tuple[Target, ...] = (
    Target("api.run", "repro.api.registry:run"),
    Target("generators.build", "repro.api.spec:GraphSpec.build"),
    Target("columnar.build", "repro.network.columnar:ColumnarGraph.from_graph"),
    Target("graph.incident_arrays", "repro.network.graph:Graph.incident_arrays", timed=False),
    Target(
        "tree.rooted_structure",
        "repro.network.fragments:SpanningForest.rooted_structure",
        enter=_watch_forest,
    ),
    Target("fragments.components", "repro.network.fragments:SpanningForest.components"),
    Target("fragments.component_of", "repro.network.fragments:SpanningForest.component_of"),
    Target("election.elect_leader", "repro.network.leader_election:elect_leader"),
    Target("sketch.stats", "repro.core.testout:CutTester.tree_statistics"),
    # ``CutTester.test_out`` delegates to ``test_out_word``; wrapping the
    # latter alone counts every TestOut exactly once.
    Target("sketch.testout", "repro.core.testout:CutTester.test_out_word"),
    Target("sketch.hp", "repro.core.testout:CutTester.hp_test_out"),
    Target("sketch.batched", "repro.core.sketches:range_parity_words_all", timed=False),
    Target("sketch.batched", "repro.core.sketches:prefix_parity_words_all", timed=False),
    Target("sketch.batched", "repro.core.sketches:xor_below_words_all", timed=False),
    Target("sketch.batched", "repro.core.sketches:hp_products_all", timed=False),
    Target(
        "echo.bne",
        "repro.network.broadcast:BroadcastEchoExecutor.broadcast_and_echo",
        enter=_note_bne_kind,
    ),
    Target(
        "echo.path_query",
        "repro.network.broadcast:BroadcastEchoExecutor.broadcast_with_downward_state",
    ),
    Target(
        "search.findmin",
        "repro.core.findmin:FindMin.run",
        enter=_watch_self_accountant,
        leave=_note_search,
    ),
    Target(
        "search.findany",
        "repro.core.findany:FindAny.run",
        enter=_watch_self_accountant,
        leave=_note_search,
    ),
    Target(
        "build.run",
        "repro.core.build_mst:BuildMST.run",
        enter=_watch_self_accountant,
        leave=_note_build,
    ),
    Target(
        "repair.apply",
        "repro.dynamic.maintainer:TreeMaintainer.apply",
        enter=_watch_self_accountant,
    ),
    Target("verify.check", "repro.verify.mst_check:is_minimum_spanning_forest"),
    Target("verify.check", "repro.verify.forest_check:is_spanning_forest"),
    Target("verify.check", "repro.verify.mst_check:is_minimum_weight_forest"),
)

#: Broadcast-and-echo kinds whose local values come from a sketch kernel that
#: has a batched whole-graph (``*_all``) form.
KERNEL_KINDS = ("testout", "hp_testout", "findany:vector", "findany:xor")


@dataclass
class OpTrace:
    """Aggregates of one op: per span name ``[calls, total_s, self_s]``."""

    spans: Dict[str, List[float]] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    bne_kinds: Counter = field(default_factory=Counter)
    search_iterations: int = 0
    search_found: int = 0
    build_phases: int = 0
    accounting: Counter = field(default_factory=Counter)
    tree: Counter = field(default_factory=Counter)

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]


def _resolve(path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for ``path``; raises if missing."""
    module_name, _, qualname = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return owner, attr, vars(klass)[attr]
        raise AttributeError(f"{path} not found")
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Install wrappers, collect spans per op, restore the originals."""

    def __init__(self, targets: Tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.absent: List[str] = []
        self.spans: List[Tuple[str, float, float, int, Any]] = []
        self.op_id: Any = None
        self.op = OpTrace()
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        self._accountants: Dict[int, Tuple[Any, Dict[str, int], Dict[str, int]]] = {}
        self._forests: Dict[int, Tuple[Any, Dict[str, int]]] = {}

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def install(self) -> "Tracer":
        self.absent = []
        for target in self.targets:
            try:
                owner, attr, raw = _resolve(target.path)
            except (ImportError, AttributeError):
                self.absent.append(target.path)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(target, raw.__func__))
                self._patch(owner, attr, wrapped)
            elif isinstance(owner, type):
                self._patch(owner, attr, self._wrap(target, raw))
            else:
                wrapper = self._wrap(target, raw)
                for module in list(sys.modules.values()):
                    if not isinstance(module, ModuleType) or (
                        module.__name__.split(".")[0] != "repro"
                    ):
                        continue
                    for name, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, name, wrapper)
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        original = vars(owner).get(attr, _MISSING)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, value)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, enter, leave = target.span, target.enter, target.leave
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans

        if not target.timed:

            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                self.op.counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if enter is not None:
                enter(self, args, kwargs)
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3], self.op_id)
            if leave is not None:
                leave(self, result)
            return result

        return timed

    # ------------------------------------------------------------------ #
    # per-op bookkeeping
    # ------------------------------------------------------------------ #
    def begin_op(self, op_id: Any) -> None:
        self.op_id = op_id
        self.op = OpTrace()
        self.spans.clear()
        self._accountants.clear()
        self._forests.clear()

    def end_op(self) -> OpTrace:
        """Fold the op's spans into self/total times and close its counters."""
        op = self.op
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in reversed(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = op.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[index]
        for acct, base_totals, base_kinds in self._accountants.values():
            for key, value in _accountant_totals(acct).items():
                op.accounting[key] += value - base_totals[key]
            for kind, value in acct.per_kind().items():
                op.accounting["msgs." + kind] += value - base_kinds.get(kind, 0)
        for forest, base in self._forests.values():
            for key, value in _tree_stats(forest).items():
                op.tree[key] += value - base.get(key, 0)
        self.begin_op(None)
        return op

    def watch_accountant(self, acct: Any) -> None:
        if acct is not None and id(acct) not in self._accountants:
            self._accountants[id(acct)] = (acct, _accountant_totals(acct), acct.per_kind())

    def watch_forest(self, forest: Any) -> None:
        if id(forest) not in self._forests:
            self._forests[id(forest)] = (forest, _tree_stats(forest))


_MISSING = object()


def _accountant_totals(acct: Any) -> Dict[str, int]:
    return {
        "messages": acct.messages,
        "bits": acct.bits,
        "rounds": acct.rounds,
        "bne": acct.broadcast_echoes,
    }


def _tree_stats(forest: Any) -> Dict[str, int]:
    try:
        stats = forest.structures.stats()
    except AttributeError:
        return {}
    return {key: stats.get(key, 0) for key in ("hits", "patches", "rebuilds")}


# ---------------------------------------------------------------------- #
# per-layer metrics
# ---------------------------------------------------------------------- #
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    ops: List[OpTrace], message_kinds: List[str], overhead_pct: float
) -> Dict[str, float]:
    """Per-layer metrics as means per traced op (ratios over all ops).

    ``message_kinds`` are the ``accounting.msgs.*`` names to report; a kind
    not listed is folded into ``accounting.msgs.other``.
    """
    count = max(len(ops), 1)

    def calls(*names: str) -> float:
        return sum(op.calls(name) for op in ops for name in names) / count

    def counted(name: str) -> float:
        return sum(op.counts[name] for op in ops) / count

    def total_ms(*names: str) -> float:
        return 1000 * sum(op.total_s(name) for op in ops for name in names) / count

    def self_ms(*names: str) -> float:
        return 1000 * sum(op.self_s(name) for op in ops for name in names) / count

    def summed(field_name: str, key: str) -> float:
        return sum(getattr(op, field_name)[key] for op in ops) / count

    tree_lookups = summed("tree", "hits") + summed("tree", "rebuilds")
    kernel_bnes = sum(op.bne_kinds[kind] for op in ops for kind in KERNEL_KINDS)
    searches = calls("search.findmin", "search.findany")
    metrics = {
        "api.self_ms": self_ms("api.run"),
        "generators.build_ms": total_ms("generators.build"),
        "columnar.builds": calls("columnar.build"),
        "columnar.build_ms": total_ms("columnar.build"),
        "graph.incident_arrays_calls": counted("graph.incident_arrays"),
        "tree.rooted_ms": self_ms("tree.rooted_structure"),
        "tree.hits": summed("tree", "hits"),
        "tree.patches": summed("tree", "patches"),
        "tree.rebuilds": summed("tree", "rebuilds"),
        "tree.hit_ratio": _ratio(summed("tree", "hits"), tree_lookups),
        "fragments.bfs_calls": calls("fragments.component_of"),
        "fragments.bfs_ms": self_ms("fragments.components", "fragments.component_of"),
        "election.calls": calls("election.elect_leader"),
        "election.ms": total_ms("election.elect_leader"),
        "sketch.stats_ms": self_ms("sketch.stats"),
        "sketch.testout_ms": self_ms("sketch.testout"),
        "sketch.hp_ms": self_ms("sketch.hp"),
        "sketch.batched_calls": counted("sketch.batched"),
        "sketch.batched_ratio": _ratio(
            sum(op.counts["sketch.batched"] for op in ops), kernel_bnes
        ),
        "echo.bne_calls": calls("echo.bne", "echo.path_query"),
        "echo.self_ms": self_ms("echo.bne"),
        "echo.path_query_ms": total_ms("echo.path_query"),
        "search.calls": searches,
        "search.iterations": sum(op.search_iterations for op in ops) / count,
        "search.found_ratio": _ratio(
            sum(op.search_found for op in ops), searches * count
        ),
        "search.self_ms": self_ms("search.findmin", "search.findany"),
        "build.ms": total_ms("build.run"),
        "build.phases": sum(op.build_phases for op in ops) / count,
        "repair.apply_ms": total_ms("repair.apply"),
        "repair.updates": calls("repair.apply"),
        "verify.calls": calls("verify.check"),
        "verify.ms": total_ms("verify.check"),
        "accounting.messages": summed("accounting", "messages"),
        "accounting.bits": summed("accounting", "bits"),
        "accounting.rounds": summed("accounting", "rounds"),
        "accounting.bne": summed("accounting", "bne"),
        "trace.overhead_pct": overhead_pct,
    }
    known = set(message_kinds)
    kinds: Counter = Counter()
    for op in ops:
        for key, value in op.accounting.items():
            if key.startswith("msgs."):
                name = "accounting.msgs." + key[len("msgs."):].replace(":", ".")
                kinds[name if name in known else "accounting.msgs.other"] += value
    for name in message_kinds:
        metrics[name] = kinds[name] / count
    return metrics
