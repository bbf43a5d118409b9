"""Command-line interface: ``python -m repro <command> ...`` (or ``repro ...``).

The CLI is built on the unified runner API (:mod:`repro.api`): every
algorithm in the registry is runnable by name, results are uniform
:class:`~repro.api.result.RunResult` records, and grids fan out across
worker processes.

``run``, ``compare`` and ``submit`` share one request shape: the graph
flags plus ``--updates --workload --schedule --fault --trace`` and the
runner flags ``-c --mode --substrate --repair-batch`` become one ``(spec,
options)`` pair, with each runner receiving only the options its ``run``
accepts and differing from its own default.  The three commands therefore
report the same counters for the same flags, and ``suite`` gives every job
of its grid the same per-runner options.

* ``run <algorithm>`` — execute one request: any registered algorithm on a
  generated graph, optionally under ``--workload`` / ``--schedule`` /
  ``--fault``, over a hardened ``--substrate`` such as Bracha reliable
  broadcast (KKT runners), or as an ``--mode st`` / ``--repair-batch K``
  repair;
* ``compare <algo> <algo> ...`` — the same request for several algorithms
  head-to-head (``compare kkt-mst ghs`` is the Build-MST cost report,
  ``compare kkt-repair recompute-repair`` the repair baseline);
* ``suite --algorithms ...`` — the one grid command: graph sizes ×
  algorithms × workloads × schedules × faults, in parallel with ``--jobs N``,
  with full provenance per record (``--workloads none`` is the plain size
  sweep); ``--record PATH`` writes the grid as a spec trace for ``loadgen
  run`` instead of running it;
* ``algorithms`` — list the registry;
* ``workloads`` — list the registered workloads and delivery schedulers;
* ``faults`` — list the registered fault programs;
* ``trace record`` / ``trace replay`` — save a workload run as a JSON trace
  and replay it bit-for-bit later;
* ``fuzz run`` — a seeded differential-fuzzing campaign over random
  experiment specs (non-zero exit on any oracle violation; failing specs are
  delta-debugged to minimal reproducers and written to a JSON corpus);
  ``fuzz replay`` re-runs a corpus of reproducers, ``fuzz corpus`` lists one;
* ``serve`` — the long-lived experiment service: an asyncio HTTP/JSON-lines
  daemon with an async job queue, a supervised worker pool and a
  content-addressed result store (repeat submissions are cache hits);
* ``submit`` — send one request to a running ``repro serve`` and print the
  (byte-identical-to-``run``) result;
* ``loadgen run`` — replay a spec trace against the service at
  configurable concurrency, reporting cold-vs-warm throughput;
* ``selfcheck`` — run a quick end-to-end correctness pass.

``--json`` (on ``run``, ``compare`` and ``suite``) emits one
``RunResult`` JSON record per line, for scripts and the CI smoke jobs.

The paper's claims are not a subcommand: ``python -m repro.claims`` prints
the pinned claims ledger (:mod:`repro.claims`, committed as ``CLAIMS.json``).

Examples
--------
::

    python -m repro run kkt-mst --nodes 96 --density complete --seed 7
    python -m repro run kkt-repair --nodes 48 --workload weight-ramp
    python -m repro run flooding --nodes 48 --schedule random
    python -m repro run kkt-repair --nodes 48 --fault link-storm
    python -m repro run flooding --nodes 24 --fault lossy-uniform
    python -m repro run kkt-mst --nodes 64 --substrate bracha
    python -m repro compare kkt-mst ghs --nodes 64 --seed 1
    python -m repro compare kkt-repair recompute-repair --nodes 64 --mode st --fault crash-leaves
    python -m repro suite --algorithms kkt-st flooding --workloads none \
        --density complete --sizes 32 64 96 --jobs 4 --json
    python -m repro suite --algorithms kkt-repair --mode st --repair-batch 4 --sizes 32 64
    python -m repro suite --algorithms kkt-repair recompute-repair \
        --workloads churn deletions-only insert-heavy --jobs 4 --json
    python -m repro suite --algorithms kkt-repair recompute-repair \
        --faults none,crash-leaves,link-storm --jobs 4 --json
    python -m repro trace record --nodes 32 --workload churn --out churn.trace.json
    python -m repro trace replay churn.trace.json
    python -m repro fuzz run --budget 200 --seed 0 --corpus fuzz-corpus.json
    python -m repro fuzz replay fuzz-corpus.json
    python -m repro serve --port 8765 --workers 4 --store results/
    python -m repro submit kkt-mst --nodes 64 --seed 7 --server 127.0.0.1:8765
    python -m repro suite --algorithms kkt-mst ghs --workloads none --sizes 24 32 \
        --record mix.specs.jsonl
    python -m repro loadgen run mix.specs.jsonl --server 127.0.0.1:8765 --concurrency 8
    python -m repro selfcheck
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import List, Optional, Sequence, Tuple, Union

from .analysis import ExperimentTable
from .api import (
    DENSITY_PROFILES,
    ExperimentEngine,
    ExperimentJob,
    ExperimentSpec,
    FaultSpec,
    GraphSpec,
    RunResult,
    ScheduleSpec,
    WorkloadSpec,
    algorithm_summaries,
    fault_acts_on,
    fault_summaries,
    get_fault,
    get_runner,
    list_faults,
    list_schedulers,
    run as run_algorithm,
    scenario_grid,
    workload_summaries,
)
from .api.scenario import _load_trace, list_workloads
from .dynamic import TreeMaintainer, UpdateTrace
from .network.broadcast import list_substrates
from .network.errors import AlgorithmError
from .verify import is_minimum_spanning_forest, is_spanning_forest

__all__ = ["main", "build_parser"]

_DENSITY_CHOICES = sorted(DENSITY_PROFILES)


# ---------------------------------------------------------------------- #
# argument parsing
# ---------------------------------------------------------------------- #
def _add_graph_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--nodes", "-n", type=int, default=64, help="number of nodes")
    sub.add_argument(
        "--density",
        choices=_DENSITY_CHOICES,
        default="dense",
        help="edge-density profile",
    )
    sub.add_argument("--seed", type=int, default=2015, help="random seed")


def _add_error_exponent(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--error-exponent", "-c", type=float, default=1.0,
                     help="success probability exponent c (failure <= n^-c)")


def _add_runner_arguments(sub: argparse.ArgumentParser) -> None:
    """The runner option flags :func:`_runner_options` forwards (with
    ``--updates``), shared by ``run``, ``compare``, ``submit`` and ``suite``."""
    _add_error_exponent(sub)
    sub.add_argument("--mode", choices=["mst", "st"], default=None,
                     help="forest the repair runners maintain (default: mst)")
    sub.add_argument("--substrate", choices=list_substrates(), default="plain",
                     help="delivery substrate for the broadcast-and-echo "
                          "fabric ('bracha' hardens every hop with "
                          "reliable broadcast; KKT runners only)")
    sub.add_argument("--repair-batch", type=int, default=1, metavar="K",
                     help="coalesce repair updates into waves of K events "
                          "sharing one repair round (repair runners only; "
                          "default: 1 = one update per wave)")


def _add_run_arguments(sub: argparse.ArgumentParser) -> None:
    """The flags of one run request, shared by ``run``, ``compare`` and
    ``submit``; :func:`_request_from_args` turns them into (spec, options)."""
    _add_graph_arguments(sub)
    sub.add_argument("--updates", type=int, default=None,
                     help="workload stream length (default: 10 for generated "
                          "workloads, the full trace for trace-replay)")
    sub.add_argument("--workload", choices=list_workloads(),
                     help="run the scenario under a registered workload")
    sub.add_argument("--schedule", choices=list_schedulers(),
                     help="deliver messages under an adversarial scheduler "
                          "(runners that read deliveries only: flooding)")
    sub.add_argument("--fault", choices=list_faults(),
                     help="run the scenario under a registered fault program")
    sub.add_argument("--trace", metavar="PATH",
                     help="trace file for the trace-replay workload")
    _add_runner_arguments(sub)


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="King-Kutten-Thorup (PODC 2015) MST construction and impromptu repair",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_cmd = subparsers.add_parser(
        "run", help="run any registered algorithm on a generated graph"
    )
    run_cmd.add_argument("algorithm", help="a registered algorithm name (see `algorithms`)")
    _add_run_arguments(run_cmd)
    run_cmd.add_argument("--json", action="store_true", help="emit the RunResult as JSON")

    compare = subparsers.add_parser(
        "compare", help="run several algorithms head-to-head on the same request"
    )
    compare.add_argument("algorithms", nargs="+", metavar="algorithm")
    _add_run_arguments(compare)
    compare.add_argument("--jobs", type=int, default=1, help="worker processes")
    compare.add_argument("--json", action="store_true",
                         help="emit one RunResult JSON record per line")

    subparsers.add_parser("algorithms", help="list the registered algorithms")
    subparsers.add_parser(
        "workloads", help="list the registered workloads and delivery schedulers"
    )
    subparsers.add_parser("faults", help="list the registered fault programs")

    suite = subparsers.add_parser(
        "suite", help="scenario grid: sizes x algorithms x workloads x schedules "
                      "x faults"
    )
    suite.add_argument("--algorithms", nargs="+", metavar="algorithm", required=True)
    suite.add_argument("--workloads", nargs="+", metavar="workload",
                       choices=["none"] + list_workloads(), default=["churn"],
                       help="update workloads ('none' = no workload: a "
                            "construction run, the default churn for repair "
                            "runners)")
    suite.add_argument("--schedules", nargs="+", metavar="schedule",
                       choices=["none"] + list_schedulers(), default=["none"],
                       help="delivery schedules ('none' = default delivery; "
                            "a schedule runs only the runners that read "
                            "deliveries)")
    suite.add_argument("--faults", nargs="+", metavar="fault", default=["none"],
                       help="fault programs (comma- or space-separated; "
                            "'none' = fault-free execution)")
    suite.add_argument("--sizes", type=int, nargs="+", default=[32])
    suite.add_argument("--density", choices=_DENSITY_CHOICES, default="sparse")
    suite.add_argument("--seed", type=int, default=2015)
    suite.add_argument("--updates", type=int, default=None,
                       help="workload stream length (default: 10 for generated "
                            "workloads, the full trace for trace-replay)")
    suite.add_argument("--trace", metavar="PATH",
                       help="trace file for the trace-replay workload")
    _add_runner_arguments(suite)
    suite.add_argument("--jobs", type=int, default=1, help="worker processes")
    suite.add_argument("--json", action="store_true",
                       help="emit one RunResult JSON record per line")
    suite.add_argument("--record", metavar="PATH",
                       help="write the grid as a JSON-lines spec trace for "
                            "`loadgen run` instead of running it")

    trace = subparsers.add_parser(
        "trace", help="record / replay dynamic-workload traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    record = trace_sub.add_parser("record", help="run a workload and save it as a trace")
    _add_graph_arguments(record)
    _add_error_exponent(record)
    record.add_argument("--workload",
                        choices=sorted(set(list_workloads()) - {"trace-replay"}),
                        default="churn")
    record.add_argument("--updates", type=int, default=10)
    record.add_argument("--mode", choices=["mst", "st"], default="mst")
    record.add_argument("--out", metavar="PATH", required=True,
                        help="where to write the trace JSON")
    replay = trace_sub.add_parser("replay", help="replay a saved trace bit-for-bit")
    replay.add_argument("path", metavar="PATH", help="a trace written by `trace record`")

    from .fuzz import ORACLE_REGISTRY

    fuzz = subparsers.add_parser(
        "fuzz", help="differential fuzzing: random scenario campaigns with oracles"
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)
    fuzz_run = fuzz_sub.add_parser(
        "run", help="run a seeded fuzz campaign over random experiment specs"
    )
    fuzz_run.add_argument("--budget", type=int, default=100,
                          help="number of random specs to generate and examine")
    fuzz_run.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz_run.add_argument("--algorithms", nargs="+", metavar="algorithm",
                          help="algorithms to exercise (default: the whole registry)")
    fuzz_run.add_argument("--oracles", nargs="+", metavar="oracle",
                          choices=ORACLE_REGISTRY.names(),
                          help="oracle subset (default: the full stack)")
    fuzz_run.add_argument("--max-nodes", type=int, default=None,
                          help="largest generated graph (default: 24)")
    fuzz_run.add_argument("--parallel-every", type=int, default=25,
                          help="cross-process determinism check every Nth case "
                               "(0 disables it)")
    fuzz_run.add_argument("--no-shrink", action="store_true",
                          help="skip delta-debugging failing specs")
    fuzz_run.add_argument("--out", metavar="PATH", default="-",
                          help="write the campaign report JSON ('-' = no file)")
    fuzz_run.add_argument("--corpus", metavar="PATH", default="-",
                          help="write the minimized-reproducer corpus JSON "
                               "('-' = no file)")
    fuzz_run.add_argument("--json", action="store_true",
                          help="print the report JSON to stdout instead of a table")
    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-run the minimized reproducers in a corpus file"
    )
    fuzz_replay.add_argument("path", metavar="CORPUS",
                             help="a corpus written by `fuzz run --corpus`")
    fuzz_replay.add_argument("--id", dest="entry_id", metavar="ID",
                             help="replay a single entry by id")
    fuzz_corpus = fuzz_sub.add_parser("corpus", help="list a corpus file")
    fuzz_corpus.add_argument("path", metavar="CORPUS",
                             help="a corpus written by `fuzz run --corpus`")

    serve = subparsers.add_parser(
        "serve", help="run the long-lived experiment service daemon"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 = ephemeral; the bound port is "
                            "printed and written to --port-file)")
    serve.add_argument("--port-file", metavar="PATH",
                       help="write the bound port number to this file "
                            "(how scripts find an ephemeral port)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent job slots")
    serve.add_argument("--executor", choices=["thread", "process", "inline"],
                       default="thread",
                       help="how jobs execute: thread (default), process "
                            "(true parallelism), inline (tests/demos)")
    serve.add_argument("--store", metavar="DIR",
                       help="persist the content-addressed result store here "
                            "(default: in-memory only)")
    serve.add_argument("--seed", type=int, default=2015,
                       help="base seed used to pin unseeded submitted specs")
    serve.add_argument("--job-timeout", type=float, default=300.0,
                       help="per-attempt job timeout in seconds")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="retry attempts after infrastructure failures")

    submit = subparsers.add_parser(
        "submit", help="submit one spec to a running `repro serve` daemon"
    )
    submit.add_argument("algorithm", help="a registered algorithm name")
    _add_run_arguments(submit)
    submit.add_argument("--spec-file", metavar="PATH",
                        help="submit this ExperimentSpec JSON file instead of "
                             "building a spec from the graph and scenario "
                             "flags (runner options still come from the flags)")
    submit.add_argument("--server", default="127.0.0.1:8765",
                        help="service address as host:port or http:// URL")
    submit.add_argument("--no-wait", action="store_true",
                        help="enqueue and print the job id instead of waiting")
    submit.add_argument("--json", action="store_true",
                        help="print the response entry as JSON")

    loadgen = subparsers.add_parser(
        "loadgen", help="replay service load (spec traces from `suite --record`)"
    )
    loadgen_sub = loadgen.add_subparsers(dest="loadgen_command", required=True)
    lg_run = loadgen_sub.add_parser(
        "run", help="replay a spec trace against the service at concurrency"
    )
    lg_run.add_argument("path", metavar="TRACE",
                        help="a spec trace written by `suite --record`")
    lg_run.add_argument("--server", default=None,
                        help="service address as host:port or http:// URL "
                             "(default: start an in-process server)")
    lg_run.add_argument("--concurrency", type=int, default=4,
                        help="concurrent client threads")
    lg_run.add_argument("--rounds", type=int, default=2,
                        help="replay passes (round 0 is cold, later rounds "
                             "are warm cache hits)")
    lg_run.add_argument("--workers", type=int, default=2,
                        help="in-process server job slots (no --server only)")
    lg_run.add_argument("--executor", choices=["thread", "process", "inline"],
                        default="thread",
                        help="in-process server executor (no --server only)")
    lg_run.add_argument("--json", action="store_true",
                        help="print the throughput report as JSON")

    subparsers.add_parser("selfcheck", help="quick end-to-end correctness pass")
    return parser


# ---------------------------------------------------------------------- #
# result rendering
# ---------------------------------------------------------------------- #
def _print_results_json(results: Sequence[RunResult]) -> None:
    for result in results:
        print(result.to_json())


def _print_results_table(title: str, results: Sequence[RunResult]) -> None:
    table = ExperimentTable(
        "results", title, ["algorithm", "n", "m", "msgs", "msgs/m", "bits", "rounds", "phases", "ok"]
    )
    for result in results:
        table.add_row(
            result.algorithm,
            result.n,
            result.m,
            result.messages,
            round(result.messages_per_edge, 3),
            result.bits,
            result.rounds,
            result.phases,
            result.ok,
        )
    print(table.render())


def _print_suite_table(title: str, results: Sequence[RunResult]) -> None:
    table = ExperimentTable(
        "suite",
        title,
        ["algorithm", "workload", "schedule", "fault", "n", "m", "msgs", "msgs/m",
         "rounds", "ok"],
    )
    for result in results:
        table.add_row(
            result.algorithm,
            "-" if result.workload is None else result.workload.name,
            "-" if result.schedule is None else result.schedule.scheduler,
            "-" if result.faults is None else result.faults.name,
            result.n,
            result.m,
            result.messages,
            round(result.messages_per_edge, 3),
            result.rounds,
            result.ok,
        )
    print(table.render())


def _workload_from_args(
    name: str, updates: Optional[int], trace: Optional[str]
) -> WorkloadSpec:
    params = {}
    if name == "trace-replay":
        if not trace:
            raise AlgorithmError("the trace-replay workload needs --trace PATH")
        params["path"] = trace
    return WorkloadSpec(name=name, updates=updates, params=params)


# ---------------------------------------------------------------------- #
# commands
# ---------------------------------------------------------------------- #
def _runner_options(runner, args: argparse.Namespace) -> dict:
    """Forward the CLI's per-algorithm flags to runners that accept them.

    Routing is by the runner's own ``run`` signature, so algorithms
    registered outside this package pick up the flags too.  A flag at that
    signature's default is left out: the runner applies it anyway, and
    leaving it out keeps the request (hence the service's store key) the
    same whichever command built it.
    """
    candidates = {
        "c": args.error_exponent,
        "updates": args.updates,
        "mode": args.mode,
        "substrate": args.substrate,
        "repair_batch": args.repair_batch,
    }
    accepted = inspect.signature(runner.run).parameters
    return {
        key: value
        for key, value in candidates.items()
        if key in accepted and value not in (None, accepted[key].default)
    }


def _request_from_args(
    args: argparse.Namespace, algorithm: str
) -> Tuple[Union[GraphSpec, ExperimentSpec], dict]:
    """The one flags -> (spec, runner options) translation.

    ``run`` executes the request, ``compare`` executes one per algorithm
    and ``submit`` sends it to the service, so all three agree on every
    counter.  The spec stays a bare :class:`GraphSpec` unless a workload,
    schedule or fault is given.
    """
    spec: Union[GraphSpec, ExperimentSpec] = GraphSpec(
        nodes=args.nodes, density=args.density, seed=args.seed
    )
    fault = args.fault if args.fault != "none" else None
    if args.workload or args.schedule or fault:
        spec = ExperimentSpec(
            graph=spec,
            workload=(
                _workload_from_args(args.workload, args.updates, args.trace)
                if args.workload
                else None
            ),
            schedule=ScheduleSpec(scheduler=args.schedule) if args.schedule else None,
            faults=FaultSpec(name=fault) if fault else None,
        )
    return spec, _runner_options(get_runner(algorithm), args)


def _print_results(
    args: argparse.Namespace,
    spec: Union[GraphSpec, ExperimentSpec],
    title: str,
    results: Sequence[RunResult],
) -> None:
    if args.json:
        _print_results_json(results)
    elif isinstance(spec, ExperimentSpec):
        _print_suite_table(title, results)
    else:
        _print_results_table(title, results)


def _command_run(args: argparse.Namespace) -> int:
    spec, options = _request_from_args(args, args.algorithm)
    result = get_runner(args.algorithm).run(spec, **options)
    _print_results(args, spec, f"{args.algorithm} on a {args.density} graph", [result])
    return 0 if result.ok else 1


def _command_compare(args: argparse.Namespace) -> int:
    jobs = [
        ExperimentJob(name, *_request_from_args(args, name)) for name in args.algorithms
    ]
    results = ExperimentEngine(jobs=args.jobs, base_seed=args.seed).run(jobs)
    _print_results(
        args,
        jobs[0].spec,
        f"Head-to-head on a {args.density} graph (n={args.nodes}, seed={args.seed})",
        results,
    )
    return 0 if all(result.ok for result in results) else 1


def _command_algorithms(_args: argparse.Namespace) -> int:
    table = ExperimentTable("registry", "Registered algorithms", ["name", "summary"])
    for name, summary in algorithm_summaries().items():
        table.add_row(name, summary)
    print(table.render())
    return 0


def _command_workloads(_args: argparse.Namespace) -> int:
    table = ExperimentTable("workloads", "Registered workloads", ["name", "summary"])
    for name, summary in workload_summaries().items():
        table.add_row(name, summary)
    print(table.render())
    schedulers = ExperimentTable(
        "schedulers", "Delivery schedulers (for --schedule / --schedules)", ["name"]
    )
    for name in list_schedulers():
        schedulers.add_row(name)
    print(schedulers.render())
    return 0


def _fault_names(raw: Sequence[str]) -> List[str]:
    """Flatten ``--faults`` values (space- and/or comma-separated) and check
    them against the registry."""
    names = [part for token in raw for part in token.split(",") if part]
    for name in names:
        get_fault(name)
    return names


def _command_faults(_args: argparse.Namespace) -> int:
    table = ExperimentTable(
        "faults", "Registered fault programs", ["name", "acts on", "summary"]
    )
    for name, summary in fault_summaries().items():
        table.add_row(name, " ".join(fault_acts_on(name)) or "-", summary)
    print(table.render())
    return 0


def _command_suite(args: argparse.Namespace) -> int:
    graphs = [
        GraphSpec(nodes=size, density=args.density, seed=args.seed)
        for size in args.sizes
    ]
    workloads = [
        None if name == "none" else _workload_from_args(name, args.updates, args.trace)
        for name in args.workloads
    ]
    schedules = [
        None if name == "none" else ScheduleSpec(scheduler=name)
        for name in args.schedules
    ]
    faults = [
        None if name == "none" else FaultSpec(name=name)
        for name in _fault_names(args.faults)
    ]
    jobs = scenario_grid(
        args.algorithms, graphs, workloads=workloads, schedules=schedules, faults=faults
    )
    for job in jobs:
        job.options = _runner_options(get_runner(job.algorithm), args)
    if args.record:
        return _record_suite(args, jobs)
    results = ExperimentEngine(jobs=args.jobs, base_seed=args.seed).run(jobs)
    if args.json:
        _print_results_json(results)
    else:
        _print_suite_table(
            f"Scenario suite over {args.density} graphs "
            f"(seed={args.seed}, jobs={args.jobs})",
            results,
        )
    return 0 if all(result.ok for result in results) else 1


def _record_suite(args: argparse.Namespace, jobs: List[ExperimentJob]) -> int:
    from .service import record_spec_trace, requests_from_jobs

    path = record_spec_trace(args.record, requests_from_jobs(jobs))
    table = ExperimentTable(
        "suite-record", f"Recorded spec trace -> {path}", ["quantity", "value"]
    )
    table.add_row("requests", len(jobs))
    table.add_row("algorithms", " ".join(args.algorithms))
    table.add_row("sizes", " ".join(str(size) for size in args.sizes))
    print(table.render())
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "record":
        return _command_trace_record(args)
    return _command_trace_replay(args)


def _command_trace_record(args: argparse.Namespace) -> int:
    spec = GraphSpec(nodes=args.nodes, density=args.density, seed=args.seed)
    graph = spec.build()
    report = get_runner(f"kkt-{args.mode}").build_report(
        graph, seed=spec.seed, c=args.error_exponent
    )
    workload = WorkloadSpec(
        name=args.workload, updates=args.updates
    ).resolve_seed(spec.seed)
    stream = workload.build(graph, report.forest)
    # Capture the initial state *before* the maintainer mutates it, then
    # attach the measured per-update costs afterwards.
    trace = UpdateTrace.record(
        graph, report.forest, stream, mode=args.mode, seed=spec.seed
    )
    maintainer = TreeMaintainer(graph, report.forest, mode=args.mode, seed=spec.seed)
    outcomes = maintainer.apply_stream(stream)
    trace.costs = [outcome.messages for outcome in outcomes]
    path = trace.save(args.out)

    checker = is_minimum_spanning_forest if args.mode == "mst" else is_spanning_forest
    ok = checker(report.forest)
    table = ExperimentTable(
        "trace-record", f"Recorded {args.workload} workload -> {path}", ["quantity", "value"]
    )
    table.add_row("nodes / edges", f"{graph.num_nodes} / {graph.num_edges}")
    table.add_row("updates recorded", len(stream))
    table.add_row("tree invariant holds", ok)
    table.add_row("total repair messages", sum(trace.costs))
    print(table.render())
    return 0 if ok else 1


def _command_trace_replay(args: argparse.Namespace) -> int:
    # One loader with the CLI error contract: missing or malformed files
    # surface as `repro: error: ...` (exit 2), not a traceback.
    trace = _load_trace({"path": args.path})
    graph, forest = trace.rebuild_initial_state()
    maintainer = TreeMaintainer(graph, forest, mode=trace.mode, seed=trace.seed)
    outcomes = maintainer.apply_stream(trace.stream())
    costs = [outcome.messages for outcome in outcomes]

    checker = is_minimum_spanning_forest if trace.mode == "mst" else is_spanning_forest
    ok = checker(forest)
    reproduced = (not trace.costs) or costs == trace.costs
    table = ExperimentTable(
        "trace-replay", f"Replayed {args.path}", ["quantity", "value"]
    )
    table.add_row("nodes / edges", f"{graph.num_nodes} / {graph.num_edges}")
    table.add_row("updates replayed", len(costs))
    table.add_row("tree invariant holds", ok)
    table.add_row("total repair messages", sum(costs))
    table.add_row(
        "per-update costs reproduced",
        reproduced if trace.costs else "n/a (trace carries no costs)",
    )
    print(table.render())
    return 0 if ok and reproduced else 1


def _command_fuzz(args: argparse.Namespace) -> int:
    if args.fuzz_command == "run":
        return _command_fuzz_run(args)
    if args.fuzz_command == "replay":
        return _command_fuzz_replay(args)
    return _command_fuzz_corpus(args)


def _command_fuzz_run(args: argparse.Namespace) -> int:
    from .fuzz import FuzzCampaign, SpecSpace, report_to_json

    space = None
    if args.max_nodes is not None:
        space = SpecSpace(max_nodes=args.max_nodes)
    progress = None if args.json else lambda line: print(f"fuzz: {line}", flush=True)
    campaign = FuzzCampaign(
        budget=args.budget,
        seed=args.seed,
        algorithms=args.algorithms,
        oracles=args.oracles,
        space=space,
        parallel_every=args.parallel_every,
        shrink=not args.no_shrink,
        progress=progress,
    )
    report = campaign.run()
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report_to_json(report))
    if args.corpus and args.corpus != "-":
        campaign.corpus.save(args.corpus)
    if args.json:
        print(report_to_json(report), end="")
    else:
        table = ExperimentTable(
            "fuzz", f"Fuzz campaign (seed={args.seed})", ["quantity", "value"]
        )
        table.add_row("cases examined", report["cases"])
        table.add_row("algorithms", " ".join(report["algorithms"]))
        table.add_row("oracles", " ".join(report["oracles"]))
        for oracle, stats in sorted(report["oracle_stats"].items()):
            for key, value in sorted(stats.items()):
                table.add_row(f"{oracle}: {key}", value)
        table.add_row("oracle violations", report["violation_count"])
        if args.out and args.out != "-":
            table.add_note(f"report written to {args.out}")
        if args.corpus and args.corpus != "-":
            table.add_note(f"corpus written to {args.corpus}")
        print(table.render())
        if report["violations"]:
            failures = ExperimentTable(
                "fuzz-violations",
                "Minimized reproducers",
                ["id", "oracle", "algorithm", "nodes", "detail"],
            )
            for record in report["violations"]:
                failures.add_row(
                    record["id"],
                    record["oracle"],
                    record["algorithm"] or "-",
                    record["minimized"]["graph"]["nodes"],
                    record["detail"][:60],
                )
            print(failures.render())
    return 0 if report["violation_count"] == 0 else 1


def _command_fuzz_replay(args: argparse.Namespace) -> int:
    from .fuzz import Corpus, replay_entry

    corpus = Corpus.load(args.path)
    entries = [corpus.get(args.entry_id)] if args.entry_id else list(corpus)
    if not entries:
        print(f"corpus {args.path} is empty; nothing to replay")
        return 0
    table = ExperimentTable(
        "fuzz-replay",
        f"Replayed {len(entries)} reproducer(s) from {args.path}",
        ["id", "oracle", "algorithm", "nodes", "status"],
    )
    fixed = 0
    for entry in entries:
        violations = replay_entry(entry)
        status = "reproduced" if violations else "fixed"
        fixed += not violations
        table.add_row(
            entry.id,
            entry.oracle,
            entry.algorithm or "-",
            entry.minimized["graph"]["nodes"],
            status,
        )
    if fixed:
        table.add_note(
            f"{fixed} entr{'y' if fixed == 1 else 'ies'} no longer reproduce(s) — "
            "fixed? prune them from the corpus"
        )
    print(table.render())
    return 1 if fixed else 0


def _command_fuzz_corpus(args: argparse.Namespace) -> int:
    from .fuzz import Corpus

    corpus = Corpus.load(args.path)
    table = ExperimentTable(
        "fuzz-corpus",
        f"{len(corpus)} reproducer(s) in {args.path}",
        ["id", "oracle", "algorithm", "nodes", "shrink steps", "detail"],
    )
    for entry in corpus:
        table.add_row(
            entry.id,
            entry.oracle,
            entry.algorithm or "-",
            entry.minimized["graph"]["nodes"],
            len(entry.shrink_steps),
            entry.detail[:48],
        )
    print(table.render())
    return 0


def _parse_server(address: str) -> tuple:
    """``host:port`` or ``http://host:port`` -> ``(host, port)``."""
    target = address
    if "//" in target:
        target = target.split("//", 1)[1]
    target = target.rstrip("/")
    host, _, port = target.rpartition(":")
    if not host or not port.isdigit():
        raise AlgorithmError(
            f"malformed server address {address!r}; want host:port or an http:// URL"
        )
    return host, int(port)


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import ExperimentServer, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        executor=args.executor,
        store_path=args.store,
        base_seed=args.seed,
        default_timeout_s=args.job_timeout,
        max_retries=args.max_retries,
    )

    async def _serve() -> None:
        server = ExperimentServer(config)
        await server.start()
        print(f"repro serve: listening on {server.url}", flush=True)
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{server.port}\n")
        loop = asyncio.get_running_loop()
        try:
            import signal

            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(
                    signum,
                    lambda: loop.create_task(server.shutdown(drain=True)),
                )
        except (ImportError, NotImplementedError, RuntimeError, ValueError):
            pass  # no signal support here (non-main thread, exotic platform)
        await server.serve_forever()
        print("repro serve: drained and stopped", flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal handler races
        pass
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    import json as json_module

    from .service import ServiceClient

    if args.spec_file:
        try:
            with open(args.spec_file, "r", encoding="utf-8") as handle:
                spec_payload = json_module.load(handle)
        except FileNotFoundError:
            raise AlgorithmError(f"spec file not found: {args.spec_file}") from None
        except json_module.JSONDecodeError as exc:
            raise AlgorithmError(f"invalid spec file {args.spec_file}: {exc}") from exc
        if not isinstance(spec_payload, dict):
            raise AlgorithmError("a spec file must hold one JSON object")
        options = _runner_options(get_runner(args.algorithm), args)
    else:
        spec, options = _request_from_args(args, args.algorithm)
        spec_payload = spec.to_dict()
    host, port = _parse_server(args.server)
    client = ServiceClient(host=host, port=port)
    entry = client.submit_spec(
        args.algorithm, spec_payload, options, wait=not args.no_wait
    )
    if args.json:
        print(json_module.dumps(entry, indent=2, sort_keys=True))
    else:
        table = ExperimentTable(
            "submit", f"{args.algorithm} via {host}:{port}", ["quantity", "value"]
        )
        table.add_row("key", entry["key"][:16])
        table.add_row("state", entry["state"])
        table.add_row("cache hit", entry["cached"])
        if entry.get("job_id"):
            table.add_row("job id", entry["job_id"])
        result = entry.get("result")
        if result:
            table.add_row("messages", result["messages"])
            table.add_row("rounds", result["rounds"])
            table.add_row("ok", all(result["checks"].values()))
        if entry.get("error"):
            table.add_row("error", entry["error"])
        print(table.render())
    if args.no_wait:
        return 0
    result = entry.get("result")
    return 0 if result and all(result["checks"].values()) else 1


def _command_loadgen(args: argparse.Namespace) -> int:
    import json as json_module

    from .service import (
        InProcessServer,
        ServiceClient,
        ServiceConfig,
        load_spec_trace,
        run_load,
    )

    requests = load_spec_trace(args.path)
    progress = None if args.json else (
        lambda line: print(f"loadgen: {line}", flush=True)
    )

    def _run(client: ServiceClient) -> dict:
        return run_load(
            client,
            requests,
            concurrency=args.concurrency,
            rounds=args.rounds,
            progress=progress,
        )

    if args.server:
        host, port = _parse_server(args.server)
        report = _run(ServiceClient(host=host, port=port))
    else:
        config = ServiceConfig(workers=args.workers, executor=args.executor)
        with InProcessServer(config) as inprocess:
            report = _run(ServiceClient(port=inprocess.port))
    if args.json:
        print(json_module.dumps(report, indent=2, sort_keys=True))
    else:
        table = ExperimentTable(
            "loadgen",
            f"Load test: {len(requests)} requests x {args.rounds} rounds "
            f"at concurrency {args.concurrency}",
            ["round", "requests", "wall s", "rps", "cache hits", "errors"],
        )
        for round_report in report["rounds"]:
            table.add_row(
                round_report["round"],
                round_report["requests"],
                round_report["wall_s"],
                round_report["rps"],
                round_report["cache_hits"],
                round_report["errors"],
            )
        if report["warm_vs_cold_speedup"] is not None:
            table.add_note(
                f"warm vs cold throughput: {report['warm_vs_cold_speedup']}x "
                f"({report['cold_rps']} -> {report['warm_rps']} rps)"
            )
        print(table.render())
    return 0 if report["errors"] == 0 else 1


def _command_selfcheck(_args: argparse.Namespace) -> int:
    checks = (("kkt-mst", {}), ("kkt-st", {}), ("kkt-repair", {"updates": 6}))
    all_ok = True
    for algorithm, options in checks:
        result = run_algorithm(
            algorithm, GraphSpec(nodes=32, density="sparse", seed=3), **options
        )
        all_ok = all_ok and result.ok
        print(f"{algorithm:10s} {'OK' if result.ok else 'FAILED'}")
    return 0 if all_ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handlers = {
        "run": _command_run,
        "fuzz": _command_fuzz,
        "compare": _command_compare,
        "algorithms": _command_algorithms,
        "workloads": _command_workloads,
        "faults": _command_faults,
        "suite": _command_suite,
        "trace": _command_trace,
        "serve": _command_serve,
        "submit": _command_submit,
        "loadgen": _command_loadgen,
        "selfcheck": _command_selfcheck,
    }
    handler = handlers.get(args.command)
    if handler is None:  # pragma: no cover
        parser.error(f"unknown command {args.command!r}")
        return 2
    try:
        return handler(args)
    except AlgorithmError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
