"""Counter-equivalence harness: fast path vs reference, counters exact.

``repro bench`` runs each registered micro-benchmark twice — once with the
reference implementations (:func:`repro.fastpath.reference_path`, i.e. the
pre-fast-path code) and once with the fast path (cached tree structures,
columnar sketch kernels) — and **asserts that every observable counter
(messages, bits, rounds, broadcast-and-echoes, phases) is bit-identical**.
The report it writes holds counters only, so two runs with the same
arguments produce byte-identical files.  Seconds are measured elsewhere:
``perfbench/`` owns the wall clock (set-up/body split, repeats,
CPU-calibrated absolute times).

``--profile large`` appends each benchmark's large-n scaling sizes
(currently ``bench_sketch_pass`` at n=10^4 / 10^5 and a sparse n=10^6
smoke).  Above a benchmark's ``reference_cutoff`` the reference pass would
take hours, so only the fast path runs and the record carries
``counters_equal: null`` — such rows are not compared, which is why every
benchmark with a cutoff also has a size at or below it where both paths
run and are compared.

Each benchmark builds its scenario from a :class:`~repro.api.spec.GraphSpec`
with a fixed seed.  A counter divergence makes the run fail (non-zero exit
from the CLI), which is what the CI benchmark smoke job keys off.

Registered benchmarks
---------------------
``bench_build_mst`` / ``bench_build_st``
    Full construction on dense graphs (the headline o(m) workload).
``bench_findmin`` / ``bench_findany``
    One search from the larger side of a broken spanning tree.
``bench_testout``
    A volley of TestOut / HP-TestOut calls over one cut.
``bench_repair``
    Impromptu repair under the registered ``churn`` workload.
``bench_repair_batched``
    Sequential and batched repair legs over the same churn stream.
``bench_broadcast_byzantine`` / ``bench_broadcast_byzantine_sparse``
    The same B&E volley on the plain and the Bracha reliable-broadcast
    substrates; the counters quantify the hardening overhead (the
    ``overhead_x100`` counter is the bracha/plain message ratio x100).
``bench_service_throughput``
    A spec-trace batch submitted to an in-process ``repro serve`` twice
    over one persistent store: the reference pass is *cold* (every request
    runs), the fast pass is *warm* (every request answered from the
    content-addressed store).  Counter equality asserts the served results
    are identical to the computed ones.
``bench_sketch_pass``
    One whole-graph sketch volley (statistics + TestOut + HP-TestOut +
    FindAny) on a sparse broken spanning tree — the workload the columnar
    kernels target.  Its ``--profile large`` sizes scale it to
    n=10^6.
"""

from __future__ import annotations

import json
import platform
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import fastpath
from .api.scenario import WorkloadSpec
from .api.spec import GraphSpec
from .core.build_mst import BuildMST
from .core.build_st import BuildST
from .core.config import AlgorithmConfig
from .core.findany import FindAny
from .core.findmin import FindMin
from .core.testout import CutTester
from .dynamic import TreeMaintainer
from .generators import random_spanning_tree_forest
from .network.accounting import MessageAccountant
from .network.broadcast import SUM_REDUCER, BroadcastEchoExecutor, make_substrate
from .network.errors import AlgorithmError
from .network.fragments import SpanningForest
from .network.graph import Graph

__all__ = [
    "BENCHMARKS",
    "BenchRecord",
    "list_benchmarks",
    "run_benchmark",
    "run_benchmarks",
    "write_report",
]

#: Schema tag written into every report, bumped on breaking format changes.
#: v3: counters only — no timing, memory or creation-time fields;
#: ``counters_equal`` is ``null`` on rows above a benchmark's
#: ``reference_cutoff``.  v4: no ``numpy`` field (the kernels are stdlib-only).
SCHEMA = "repro-bench/4"

Counters = Dict[str, int]
#: A benchmark body: (n, density, seed) -> (counters, num_edges).
BenchFn = Callable[[int, str, int], Tuple[Counters, int]]


@dataclass
class _Benchmark:
    fn: BenchFn
    density: str
    sizes: Tuple[int, ...]
    quick_sizes: Tuple[int, ...]
    summary: str
    #: Extra sizes appended by ``--profile large`` (and their --quick subset).
    large_sizes: Tuple[int, ...] = ()
    large_quick_sizes: Tuple[int, ...] = ()
    #: Above this n only the fast path runs (None = always run both).
    reference_cutoff: Optional[int] = None


@dataclass
class BenchRecord:
    """One benchmark size, run on both paths.

    ``counters_equal`` is ``None`` on rows above the benchmark's
    ``reference_cutoff``: only the fast path ran, so nothing was compared.
    """

    benchmark: str
    n: int
    m: int
    density: str
    seed: int
    counters: Counters
    counters_equal: Optional[bool]
    reference_counters: Optional[Counters] = None  # only kept on divergence

    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        if self.counters_equal is not False:
            payload.pop("reference_counters")
        return payload


BENCHMARKS: Dict[str, _Benchmark] = {}


def _register(
    name: str,
    density: str,
    sizes: Sequence[int],
    quick_sizes: Sequence[int],
    summary: str,
    large_sizes: Sequence[int] = (),
    large_quick_sizes: Sequence[int] = (),
    reference_cutoff: Optional[int] = None,
) -> Callable[[BenchFn], BenchFn]:
    def decorator(fn: BenchFn) -> BenchFn:
        BENCHMARKS[name] = _Benchmark(
            fn=fn,
            density=density,
            sizes=tuple(sizes),
            quick_sizes=tuple(quick_sizes),
            summary=summary,
            large_sizes=tuple(large_sizes),
            large_quick_sizes=tuple(large_quick_sizes),
            reference_cutoff=reference_cutoff,
        )
        return fn

    return decorator


def list_benchmarks() -> List[str]:
    return sorted(BENCHMARKS)


# ---------------------------------------------------------------------- #
# shared scenario builders
# ---------------------------------------------------------------------- #
def _graph(n: int, density: str, seed: int) -> Graph:
    return GraphSpec(nodes=n, density=density, seed=seed).build()


def _broken_tree(n: int, density: str, seed: int) -> Tuple[Graph, SpanningForest, int]:
    """A random spanning tree with one edge removed; root = larger side."""
    graph = _graph(n, density, seed)
    forest = random_spanning_tree_forest(graph, seed=seed + 1)
    key = sorted(forest.marked_edges)[n // 3]
    forest.unmark(*key)
    root = max(key, key=lambda node: len(forest.component_of(node)))
    return graph, forest, root


def _build_counters(report) -> Counters:
    return {
        "messages": report.messages,
        "bits": report.bits,
        "rounds": report.rounds_parallel,
        "phases": report.phases,
        "broadcast_echoes": report.broadcast_echoes,
    }


def _accountant_counters(accountant: MessageAccountant) -> Counters:
    return dict(accountant.summary())


# ---------------------------------------------------------------------- #
# benchmark bodies
# ---------------------------------------------------------------------- #
@_register(
    "bench_build_mst",
    density="dense",
    sizes=(256, 512, 1024),
    quick_sizes=(1024,),
    summary="KKT Build-MST on a dense graph",
)
def _bench_build_mst(n: int, density: str, seed: int) -> Tuple[Counters, int]:
    graph = _graph(n, density, seed)
    report = BuildMST(graph, config=AlgorithmConfig(n=n, seed=seed)).run()
    return _build_counters(report), graph.num_edges


@_register(
    "bench_build_st",
    density="dense",
    sizes=(256, 512),
    quick_sizes=(512,),
    summary="KKT Build-ST on a dense graph",
)
def _bench_build_st(n: int, density: str, seed: int) -> Tuple[Counters, int]:
    graph = _graph(n, density, seed)
    report = BuildST(graph, config=AlgorithmConfig(n=n, seed=seed)).run()
    return _build_counters(report), graph.num_edges


@_register(
    "bench_findmin",
    density="dense",
    sizes=(512, 1024),
    quick_sizes=(512,),
    summary="FindMin from the larger side of a broken spanning tree",
)
def _bench_findmin(n: int, density: str, seed: int) -> Tuple[Counters, int]:
    graph, forest, root = _broken_tree(n, density, seed)
    accountant = MessageAccountant()
    FindMin(graph, forest, AlgorithmConfig(n=n, seed=seed), accountant).find_min(root)
    return _accountant_counters(accountant), graph.num_edges


@_register(
    "bench_findany",
    density="dense",
    sizes=(512, 1024),
    quick_sizes=(1024,),
    summary="FindAny from the larger side of a broken spanning tree",
)
def _bench_findany(n: int, density: str, seed: int) -> Tuple[Counters, int]:
    graph, forest, root = _broken_tree(n, density, seed)
    accountant = MessageAccountant()
    # A handful of independent calls so the counters are not dominated by
    # a single lucky attempt (each call re-derives its hashes from the seed).
    for repeat in range(4):
        finder = FindAny(
            graph, forest, AlgorithmConfig(n=n, seed=seed + repeat), accountant
        )
        finder.find_any(root)
    return _accountant_counters(accountant), graph.num_edges


@_register(
    "bench_testout",
    density="dense",
    sizes=(512, 1024),
    quick_sizes=(1024,),
    summary="TestOut x16 + HP-TestOut x4 over one cut",
)
def _bench_testout(n: int, density: str, seed: int) -> Tuple[Counters, int]:
    graph, forest, root = _broken_tree(n, density, seed)
    accountant = MessageAccountant()
    tester = CutTester(graph, forest, AlgorithmConfig(n=n, seed=seed), accountant)
    for _ in range(16):
        tester.test_out(root)
    for _ in range(4):
        tester.hp_test_out(root)
    return _accountant_counters(accountant), graph.num_edges


@_register(
    "bench_repair",
    density="sparse",
    sizes=(512, 1024),
    quick_sizes=(512,),
    summary="Impromptu MST repair under the churn workload (16 updates)",
)
def _bench_repair(n: int, density: str, seed: int) -> Tuple[Counters, int]:
    graph = _graph(n, density, seed)
    config = AlgorithmConfig(n=n, seed=seed)
    report = BuildMST(graph, config=config).run()
    workload = WorkloadSpec(name="churn", updates=16).resolve_seed(seed)
    stream = workload.build(graph, report.forest)
    maintainer = TreeMaintainer(graph, report.forest, mode="mst", seed=seed)
    maintainer.apply_stream(stream)
    return _accountant_counters(maintainer.accountant), graph.num_edges


@_register(
    "bench_repair_batched",
    density="sparse",
    sizes=(1024, 2048),
    quick_sizes=(1024,),
    reference_cutoff=1024,
    summary="Batched vs sequential impromptu repair: one shared wave per k updates",
)
def _bench_repair_batched(n: int, density: str, seed: int) -> Tuple[Counters, int]:
    """Sequential and batched repair legs over the same churn stream.

    For each wave size ``k`` both legs rebuild the identical scenario
    (same graph seed, same MST, same stream), so the message ratio
    ``amortized_x100_k{k}`` is the measured amortization of sharing one
    repair round per wave, and ``forest_equal_k{k}`` pins the batched
    contract — the final forest must match sequential exactly (the MSF is
    unique under augmented weights).  All counters are value-level, so
    the fast and reference paths charge them identically.
    """
    counters: Counters = {}
    edges = 0
    for k in (4, 16, 64):
        legs: Dict[str, TreeMaintainer] = {}
        for label, batch in (("seq", 1), ("batched", k)):
            graph = _graph(n, density, seed)
            config = AlgorithmConfig(n=n, seed=seed)
            report = BuildMST(graph, config=config).run()
            workload = WorkloadSpec(name="churn", updates=k).resolve_seed(seed + k)
            stream = workload.build(graph, report.forest)
            maintainer = TreeMaintainer(graph, report.forest, mode="mst", seed=seed)
            maintainer.apply_stream(stream, batch_size=batch)
            legs[label] = maintainer
            edges = graph.num_edges
        seq_messages = legs["seq"].accountant.summary()["messages"]
        batched_messages = legs["batched"].accountant.summary()["messages"]
        counters[f"seq_messages_k{k}"] = seq_messages
        counters[f"batched_messages_k{k}"] = batched_messages
        counters[f"amortized_x100_k{k}"] = seq_messages * 100 // max(batched_messages, 1)
        counters[f"forest_equal_k{k}"] = int(
            sorted(legs["seq"].forest.marked_edges)
            == sorted(legs["batched"].forest.marked_edges)
        )
        counters[f"saved_queries_k{k}"] = sum(
            outcome.report.skipped_candidates
            for outcome in legs["batched"].history
        )
    return counters, edges


def _bench_broadcast_byzantine_body(
    n: int, density: str, seed: int
) -> Tuple[Counters, int]:
    """B&E volley on the plain and Bracha substrates; counters for both.

    The volley (8 aggregating B&Es, 2 pure broadcasts, 2 point-to-point
    sends) is fixed and its cost depends only on the tree shape, so the
    fast and reference paths charge identical counters on *both*
    substrates — the harness's equality assertion doubles as a regression
    test for the substrate accounting itself.
    """
    graph = _graph(n, density, seed)
    forest = random_spanning_tree_forest(graph, seed=seed + 1)
    root = min(graph.nodes())
    u, v = min((edge.u, edge.v) for edge in graph.edges())
    counters: Counters = {}
    for label, substrate in (
        ("plain", make_substrate("plain")),
        ("bracha", make_substrate("bracha", n=n)),
    ):
        accountant = MessageAccountant()
        executor = BroadcastEchoExecutor(graph, forest, accountant, substrate=substrate)
        for _ in range(8):
            executor.broadcast_and_echo(
                root,
                local_value=lambda node: 1,
                reducer=SUM_REDUCER,
                broadcast_bits=1,
                echo_bits=graph.id_bits,
                kind="sum",
            )
        for _ in range(2):
            executor.broadcast_only(root, broadcast_bits=graph.id_bits)
        for _ in range(2):
            executor.point_to_point_along_edge(u, v, graph.id_bits)
        for key, value in accountant.summary().items():
            counters[f"{label}_{key}"] = value
    counters["overhead_x100"] = (
        counters["bracha_messages"] * 100 // max(counters["plain_messages"], 1)
    )
    return counters, graph.num_edges


@_register(
    "bench_broadcast_byzantine",
    density="dense",
    sizes=(128, 256),
    quick_sizes=(128,),
    summary="B&E volley: plain vs Bracha substrate (hardening overhead, dense)",
)
def _bench_broadcast_byzantine(n: int, density: str, seed: int) -> Tuple[Counters, int]:
    return _bench_broadcast_byzantine_body(n, density, seed)


@_register(
    "bench_broadcast_byzantine_sparse",
    density="sparse",
    sizes=(128, 256),
    quick_sizes=(128,),
    summary="B&E volley: plain vs Bracha substrate (hardening overhead, sparse)",
)
def _bench_broadcast_byzantine_sparse(
    n: int, density: str, seed: int
) -> Tuple[Counters, int]:
    return _bench_broadcast_byzantine_body(n, density, seed)


@_register(
    "bench_sketch_pass",
    density="sparse",
    sizes=(1024, 4096),
    quick_sizes=(1024,),
    large_sizes=(10_000, 100_000, 1_000_000),
    large_quick_sizes=(10_000,),
    reference_cutoff=10_000,
    summary="Whole-graph sketch volley: stats + TestOut + HP-TestOut + FindAny",
)
def _bench_sketch_pass(n: int, density: str, seed: int) -> Tuple[Counters, int]:
    """The columnar-kernel workload: one volley of every columnar sketch.

    Each call in the volley reads the broken tree — which holds most of
    the graph — through its memoised cut column on the fast path, and runs
    per node on the reference path, so this benchmark's equality check
    covers the columnar tier.  The n=10^5 / 10^6 rows only exist under ``--profile large`` and run
    fast-path-only (``reference_cutoff``): at those sizes the reference
    per-node Python loops take hours, while equality is already pinned at
    every size up to 10^4.
    """
    graph, forest, root = _broken_tree(n, density, seed)
    accountant = MessageAccountant()
    tester = CutTester(graph, forest, AlgorithmConfig(n=n, seed=seed), accountant)
    tester.tree_statistics(root)
    for _ in range(2):
        tester.test_out(root)
    tester.hp_test_out(root)
    finder = FindAny(graph, forest, AlgorithmConfig(n=n, seed=seed + 1), accountant)
    finder.find_any(root)
    return _accountant_counters(accountant), graph.num_edges


#: Store directories handed from a service benchmark's reference (cold) pass
#: to its fast (warm) pass, keyed by (n, density, seed).  ``run_benchmark``
#: calls the body exactly twice, reference first, so pop-or-create maps the
#: harness's two passes onto cold-then-warm over one persistent store.
_SERVICE_WARM_STORES: Dict[Tuple[int, str, int], str] = {}


@_register(
    "bench_service_throughput",
    density="sparse",
    sizes=(32, 48),
    quick_sizes=(32,),
    summary="Service batch submit: cold run vs warm (all cache hits)",
)
def _bench_service_throughput(n: int, density: str, seed: int) -> Tuple[Counters, int]:
    """Submit a spec-trace batch to an in-process server over HTTP.

    The counters are the summed deterministic run counters of the batch
    (never hit counts), so the harness's equality assertion checks that the
    store serves byte-faithful results: the warm pass's counters come from
    stored canonical JSON, the cold pass's from live runs.
    """
    import shutil
    import tempfile

    from .service import InProcessServer, ServiceClient, ServiceConfig
    from .service import spec_trace_requests

    key = (n, density, seed)
    warm_store = _SERVICE_WARM_STORES.pop(key, None)
    cold = warm_store is None
    store_path = warm_store or tempfile.mkdtemp(prefix="repro-bench-service-")
    requests = spec_trace_requests(
        algorithms=["kkt-mst", "ghs"],
        sizes=[max(n // 2, 8), n],
        density=density,
        seed=seed,
    )
    config = ServiceConfig(workers=2, executor="thread", store_path=store_path)
    try:
        with InProcessServer(config) as server:
            response = ServiceClient(port=server.port).submit(requests, wait=True)
    except BaseException:
        shutil.rmtree(store_path, ignore_errors=True)
        raise
    counters: Counters = {
        "requests": len(requests),
        "messages": 0,
        "bits": 0,
        "rounds": 0,
        "errors": 0,
    }
    for entry in response["jobs"]:
        result = entry.get("result")
        if not result:
            counters["errors"] += 1
            continue
        counters["messages"] += result["messages"]
        counters["bits"] += result["bits"]
        counters["rounds"] += result["rounds"]
    if cold:
        _SERVICE_WARM_STORES[key] = store_path
    else:
        shutil.rmtree(store_path, ignore_errors=True)
    return counters, _graph(n, density, seed).num_edges


# ---------------------------------------------------------------------- #
# driver
# ---------------------------------------------------------------------- #
def _lookup(name: str) -> _Benchmark:
    try:
        return BENCHMARKS[name]
    except KeyError:
        known = ", ".join(list_benchmarks())
        raise AlgorithmError(
            f"unknown benchmark {name!r}; registered benchmarks: {known}"
        ) from None


def run_benchmark(name: str, n: int, seed: int = 2015) -> BenchRecord:
    """Run one benchmark size on both paths and compare the counters.

    Above the benchmark's ``reference_cutoff`` only the fast path runs and
    the record's ``counters_equal`` is ``None`` (not compared).
    """
    bench = _lookup(name)
    reference_counters: Optional[Counters] = None
    if bench.reference_cutoff is None or n <= bench.reference_cutoff:
        with fastpath.reference_path():
            reference_counters, _ = bench.fn(n, bench.density, seed)
    with fastpath.fast_path():
        fast_counters, m = bench.fn(n, bench.density, seed)

    equal = None if reference_counters is None else fast_counters == reference_counters
    return BenchRecord(
        benchmark=name,
        n=n,
        m=m,
        density=bench.density,
        seed=seed,
        counters=fast_counters,
        counters_equal=equal,
        reference_counters=reference_counters if equal is False else None,
    )


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    quick: bool = False,
    sizes: Optional[Sequence[int]] = None,
    seed: int = 2015,
    progress: Optional[Callable[[str], None]] = None,
    profile: str = "default",
) -> Dict[str, Any]:
    """Run the selected benchmarks; returns the JSON-ready report dict.

    ``sizes`` overrides every benchmark's size list (used by tests and for
    quick local iteration); otherwise ``quick`` selects the smaller
    per-benchmark size lists and ``profile="large"`` appends each
    benchmark's large-n scaling sizes.  The report depends only on the
    arguments and the Python version, so two runs with the same arguments
    write byte-identical files.
    """
    if profile not in ("default", "large"):
        raise AlgorithmError(
            f"unknown bench profile {profile!r}; choose 'default' or 'large'"
        )
    selected = list(names) if names else list_benchmarks()
    records: List[BenchRecord] = []
    for name in selected:
        bench = _lookup(name)
        if sizes:
            bench_sizes = tuple(sizes)
        else:
            bench_sizes = bench.quick_sizes if quick else bench.sizes
            if profile == "large":
                bench_sizes += (
                    bench.large_quick_sizes if quick else bench.large_sizes
                )
        for n in bench_sizes:
            if progress is not None:
                progress(f"{name} n={n} ({bench.density}) ...")
            records.append(run_benchmark(name, n, seed=seed))
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "quick": quick,
        "profile": profile,
        "seed": seed,
        # AND over the compared rows; fast-path-only rows (None) are skipped.
        "counters_equal": all(
            record.counters_equal is not False for record in records
        ),
        "results": [record.to_dict() for record in records],
    }


def write_report(report: Dict[str, Any], path: str) -> str:
    """Write the report as pretty JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
