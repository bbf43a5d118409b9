"""Command-line interface: ``python -m repro <command> ...`` (or ``repro ...``).

The CLI is built on the unified runner API (:mod:`repro.api`): every
algorithm in the registry is runnable by name, results are uniform
:class:`~repro.api.result.RunResult` records, and sweeps fan out across
worker processes.

* ``run <algorithm>`` — run any registered algorithm on a generated graph,
  optionally under ``--workload`` / ``--schedule`` / ``--fault``, and (for
  the KKT runners) over a hardened ``--substrate`` such as Bracha reliable
  broadcast;
* ``compare <algo> <algo> ...`` — head-to-head on the *same* graph spec;
* ``sweep`` — size sweep; ``--algorithms ... --jobs N`` runs the registry
  grid in parallel, the legacy ``--kind`` form prints the normalised table
  over the same registry runs as ``build-*``;
* ``suite`` — the full scenario grid: graph sizes × algorithms × workloads
  × schedules × faults, in parallel, with full provenance per record;
* ``algorithms`` — list the registry;
* ``workloads`` — list the registered workloads and delivery schedulers;
* ``faults`` — list the registered fault programs;
* ``build-mst`` / ``build-st`` — a cost-report view over the ``kkt-mst`` /
  ``kkt-st`` registry run next to its ``ghs`` / ``flooding`` baseline run;
* ``repair`` — a table view over the ``kkt-repair`` registry run (workload
  plus optional fault program); ``--compare-recompute`` adds the
  ``recompute-repair`` run on the same spec;
* ``trace record`` / ``trace replay`` — save a workload run as a JSON trace
  and replay it bit-for-bit later;
* ``fuzz run`` — a seeded differential-fuzzing campaign over random
  experiment specs (non-zero exit on any oracle violation; failing specs are
  delta-debugged to minimal reproducers and written to a JSON corpus);
  ``fuzz replay`` re-runs a corpus of reproducers, ``fuzz corpus`` lists one;
* ``serve`` — the long-lived experiment service: an asyncio HTTP/JSON-lines
  daemon with an async job queue, a supervised worker pool and a
  content-addressed result store (repeat submissions are cache hits);
* ``submit`` — send one spec to a running ``repro serve`` and print the
  (byte-identical-to-local) result;
* ``loadgen`` — record a spec trace and replay it against the service at
  configurable concurrency, reporting cold-vs-warm throughput;
* ``selfcheck`` — run a quick end-to-end correctness pass.

``--json`` (on ``run``, ``compare``, ``sweep`` and ``suite``) emits one
``RunResult`` JSON record per line, for scripts and the CI smoke jobs.

The paper's claims are not a subcommand: ``python -m repro.claims`` prints
the pinned claims ledger (:mod:`repro.claims`, committed as ``CLAIMS.json``).

Examples
--------
::

    python -m repro run kkt-mst --nodes 96 --density complete --seed 7
    python -m repro run kkt-repair --nodes 48 --workload weight-ramp --schedule random
    python -m repro run kkt-repair --nodes 48 --fault link-storm
    python -m repro run flooding --nodes 24 --fault byz-equivocate
    python -m repro run kkt-mst --nodes 64 --substrate bracha
    python -m repro compare kkt-mst ghs --nodes 64 --seed 1
    python -m repro sweep --algorithms kkt-st flooding --sizes 32 64 96 --jobs 4 --json
    python -m repro suite --algorithms kkt-repair recompute-repair \
        --workloads churn deletions-only insert-heavy --schedules none random --jobs 4 --json
    python -m repro suite --algorithms kkt-repair recompute-repair \
        --faults none,crash-leaves,link-storm --jobs 4 --json
    python -m repro trace record --nodes 32 --workload churn --out churn.trace.json
    python -m repro trace replay churn.trace.json
    python -m repro fuzz run --budget 200 --seed 0 --corpus fuzz-corpus.json
    python -m repro fuzz replay fuzz-corpus.json
    python -m repro serve --port 8765 --workers 4 --store results/
    python -m repro submit kkt-mst --nodes 64 --seed 7 --server 127.0.0.1:8765
    python -m repro loadgen record --out mix.specs.jsonl --algorithms kkt-mst ghs --sizes 24 32
    python -m repro loadgen run mix.specs.jsonl --server 127.0.0.1:8765 --concurrency 8
    python -m repro selfcheck
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import List, Optional, Sequence

from .analysis import ExperimentTable, run_construction_measurement
from .api import (
    DENSITY_PROFILES,
    ExperimentEngine,
    ExperimentSpec,
    FaultSpec,
    GraphSpec,
    RunResult,
    ScheduleSpec,
    WorkloadSpec,
    algorithm_summaries,
    fault_adversarial,
    fault_summaries,
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

    def add_graph_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--nodes", "-n", type=int, default=64, help="number of nodes")
        sub.add_argument(
            "--density",
            choices=_DENSITY_CHOICES,
            default="dense",
            help="edge-density profile",
        )
        sub.add_argument("--seed", type=int, default=2015, help="random seed")
        sub.add_argument("--error-exponent", "-c", type=float, default=1.0,
                         help="success probability exponent c (failure <= n^-c)")

    run_cmd = subparsers.add_parser(
        "run", help="run any registered algorithm on a generated graph"
    )
    run_cmd.add_argument("algorithm", help="a registered algorithm name (see `algorithms`)")
    add_graph_arguments(run_cmd)
    run_cmd.add_argument("--updates", type=int, default=None,
                         help="workload stream length (default: 10 for generated "
                              "workloads, the full trace for trace-replay)")
    run_cmd.add_argument("--workload", choices=sorted(list_workloads()),
                         help="run the scenario under a registered workload")
    run_cmd.add_argument("--schedule", choices=sorted(list_schedulers()),
                         help="deliver messages under an adversarial scheduler")
    run_cmd.add_argument("--fault", choices=sorted(list_faults()),
                         help="run the scenario under a registered fault program")
    run_cmd.add_argument("--substrate", choices=sorted(list_substrates()),
                         default="plain",
                         help="delivery substrate for the broadcast-and-echo "
                              "fabric ('bracha' hardens every hop with "
                              "reliable broadcast; KKT runners only)")
    run_cmd.add_argument("--trace", metavar="PATH",
                         help="trace file for the trace-replay workload")
    run_cmd.add_argument("--repair-batch", type=int, default=None, metavar="K",
                         help="coalesce repair updates into waves of K events "
                              "sharing one repair round (repair runners only; "
                              "0 forces sequential, overriding "
                              "REPRO_REPAIR_BATCH and the schedule)")
    run_cmd.add_argument("--json", action="store_true", help="emit the RunResult as JSON")

    compare = subparsers.add_parser(
        "compare", help="run several algorithms head-to-head on the same graph spec"
    )
    compare.add_argument("algorithms", nargs="+", metavar="algorithm")
    add_graph_arguments(compare)
    compare.add_argument("--jobs", type=int, default=1, help="worker processes")
    compare.add_argument("--json", action="store_true",
                         help="emit one RunResult JSON record per line")

    subparsers.add_parser("algorithms", help="list the registered algorithms")
    subparsers.add_parser(
        "workloads", help="list the registered workloads and delivery schedulers"
    )
    subparsers.add_parser("faults", help="list the registered fault programs")

    suite = subparsers.add_parser(
        "suite", help="scenario grid: sizes x algorithms x workloads x schedules"
    )
    suite.add_argument("--algorithms", nargs="+", metavar="algorithm", required=True)
    suite.add_argument("--workloads", nargs="+", metavar="workload",
                       choices=sorted(list_workloads()), default=["churn"])
    suite.add_argument("--schedules", nargs="+", metavar="schedule",
                       choices=["none"] + sorted(list_schedulers()), default=["none"],
                       help="delivery schedules ('none' = default delivery)")
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
    suite.add_argument("--jobs", type=int, default=1, help="worker processes")
    suite.add_argument("--json", action="store_true",
                       help="emit one RunResult JSON record per line")

    trace = subparsers.add_parser(
        "trace", help="record / replay dynamic-workload traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    record = trace_sub.add_parser("record", help="run a workload and save it as a trace")
    add_graph_arguments(record)
    record.add_argument("--workload",
                        choices=sorted(set(list_workloads()) - {"trace-replay"}),
                        default="churn")
    record.add_argument("--updates", type=int, default=10)
    record.add_argument("--mode", choices=["mst", "st"], default="mst")
    record.add_argument("--out", metavar="PATH", required=True,
                        help="where to write the trace JSON")
    replay = trace_sub.add_parser("replay", help="replay a saved trace bit-for-bit")
    replay.add_argument("path", metavar="PATH", help="a trace written by `trace record`")

    for kind in ("mst", "st"):
        sub = subparsers.add_parser(
            f"build-{kind}", help=f"construct a {'minimum spanning' if kind == 'mst' else 'spanning'} tree"
        )
        add_graph_arguments(sub)

    repair = subparsers.add_parser("repair", help="apply an impromptu-repair update workload")
    add_graph_arguments(repair)
    repair.add_argument("--mode", choices=["mst", "st"], default="mst")
    repair.add_argument("--updates", type=int, default=10)
    repair.add_argument("--workload",
                        choices=sorted(set(list_workloads()) - {"trace-replay"}),
                        default="churn", help="a registered update workload")
    repair.add_argument("--fault", choices=sorted(list_faults()), default="none",
                        help="apply a registered fault program after the workload")
    repair.add_argument("--repair-batch", type=int, default=None, metavar="K",
                        help="coalesce updates into waves of K events sharing "
                             "one repair round (default: REPRO_REPAIR_BATCH, "
                             "else sequential; 0 forces sequential)")
    repair.add_argument("--compare-recompute", action="store_true",
                        help="also run the recompute-from-scratch baseline")

    sweep = subparsers.add_parser("sweep", help="size sweep of a construction")
    sweep.add_argument("--kind", choices=["mst", "st"], default="st",
                       help="legacy construction selector (ignored with --algorithms)")
    sweep.add_argument("--algorithms", nargs="+", metavar="algorithm",
                       help="registry algorithms to sweep (enables the parallel engine)")
    sweep.add_argument("--sizes", type=int, nargs="+", default=[32, 64, 96])
    sweep.add_argument(
        "--density",
        choices=_DENSITY_CHOICES,
        default="complete",
    )
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep.add_argument("--json", action="store_true",
                       help="emit one RunResult JSON record per line")

    from .fuzz import ORACLE_FACTORIES

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
                          choices=sorted(ORACLE_FACTORIES),
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
    add_graph_arguments(submit)
    submit.add_argument("--updates", type=int, default=None,
                        help="workload stream length")
    submit.add_argument("--workload", choices=sorted(list_workloads()),
                        help="submit the scenario under a registered workload")
    submit.add_argument("--schedule", choices=sorted(list_schedulers()),
                        help="deliver messages under an adversarial scheduler")
    submit.add_argument("--fault", choices=sorted(list_faults()),
                        help="run the scenario under a registered fault program")
    submit.add_argument("--trace", metavar="PATH",
                        help="trace file for the trace-replay workload")
    submit.add_argument("--spec-file", metavar="PATH",
                        help="submit this ExperimentSpec JSON file instead of "
                             "building a spec from the graph flags")
    submit.add_argument("--server", default="127.0.0.1:8765",
                        help="service address as host:port or http:// URL")
    submit.add_argument("--no-wait", action="store_true",
                        help="enqueue and print the job id instead of waiting")
    submit.add_argument("--json", action="store_true",
                        help="print the response entry as JSON")

    loadgen = subparsers.add_parser(
        "loadgen", help="record / replay service load (spec traces)"
    )
    loadgen_sub = loadgen.add_subparsers(dest="loadgen_command", required=True)
    lg_record = loadgen_sub.add_parser(
        "record", help="record a spec trace (one submit request per line)"
    )
    lg_record.add_argument("--out", metavar="PATH", required=True,
                           help="where to write the JSON-lines spec trace")
    lg_record.add_argument("--algorithms", nargs="+", metavar="algorithm",
                           default=["kkt-mst"], help="algorithm mix")
    lg_record.add_argument("--sizes", type=int, nargs="+", default=[24, 32])
    lg_record.add_argument("--density", choices=_DENSITY_CHOICES, default="sparse")
    lg_record.add_argument("--seed", type=int, default=2015)
    lg_record.add_argument("--workloads", nargs="+", metavar="workload",
                           choices=["none"] + sorted(list_workloads()),
                           default=["none"],
                           help="workload mix ('none' = construction only)")
    lg_record.add_argument("--updates", type=int, default=None,
                           help="workload stream length")
    lg_record.add_argument("--trace", metavar="PATH",
                           help="also include a trace-replay workload over "
                                "this recorded UpdateTrace file")
    lg_run = loadgen_sub.add_parser(
        "run", help="replay a spec trace against the service at concurrency"
    )
    lg_run.add_argument("path", metavar="TRACE",
                        help="a spec trace written by `loadgen record`")
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


def _spec_from_args(args: argparse.Namespace) -> GraphSpec:
    return GraphSpec(nodes=args.nodes, density=args.density, seed=args.seed)


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
    registered outside this package pick up the flags too.
    """
    candidates = {
        "c": args.error_exponent,
        "updates": getattr(args, "updates", None),
        "substrate": getattr(args, "substrate", None),
        "repair_batch": getattr(args, "repair_batch", None),
    }
    accepted = inspect.signature(runner.run).parameters
    return {
        key: value
        for key, value in candidates.items()
        if key in accepted and value is not None
    }


def _command_run(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    scenario = args.workload or args.schedule or (args.fault and args.fault != "none")
    if scenario:
        workload = (
            _workload_from_args(args.workload, args.updates, args.trace)
            if args.workload
            else None
        )
        schedule = ScheduleSpec(scheduler=args.schedule) if args.schedule else None
        fault = (
            FaultSpec(name=args.fault)
            if args.fault and args.fault != "none"
            else None
        )
        spec = ExperimentSpec(
            graph=spec, workload=workload, schedule=schedule, faults=fault
        )
    runner = get_runner(args.algorithm)
    result = runner.run(spec, **_runner_options(runner, args))
    if args.json:
        _print_results_json([result])
    elif scenario:
        _print_suite_table(f"{args.algorithm} on a {args.density} graph", [result])
    else:
        _print_results_table(f"{args.algorithm} on a {args.density} graph", [result])
    return 0 if result.ok else 1


def _command_compare(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    engine = ExperimentEngine(jobs=args.jobs, base_seed=args.seed)
    results = engine.compare(args.algorithms, spec)
    if args.json:
        _print_results_json(results)
    else:
        _print_results_table(
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
    names: List[str] = []
    for token in raw:
        names.extend(part for part in token.split(",") if part)
    known = {"none", *list_faults()}
    for name in names:
        if name not in known:
            raise AlgorithmError(
                f"unknown fault program {name!r}; choose from {', '.join(sorted(known))}"
            )
    return names


def _command_faults(_args: argparse.Namespace) -> int:
    table = ExperimentTable(
        "faults", "Registered fault programs", ["name", "adversarial", "summary"]
    )
    for name, summary in fault_summaries().items():
        table.add_row(name, "yes" if fault_adversarial(name) else "-", summary)
    print(table.render())
    return 0


def _command_suite(args: argparse.Namespace) -> int:
    graphs = [
        GraphSpec(nodes=size, density=args.density, seed=args.seed)
        for size in args.sizes
    ]
    workloads = [
        _workload_from_args(name, args.updates, args.trace) for name in args.workloads
    ]
    schedules = [
        None if name == "none" else ScheduleSpec(scheduler=name)
        for name in args.schedules
    ]
    faults = [
        None if name == "none" else FaultSpec(name=name)
        for name in _fault_names(args.faults)
    ]
    engine = ExperimentEngine(jobs=args.jobs, base_seed=args.seed)
    results = engine.run_suite(
        scenario_grid(
            args.algorithms,
            graphs,
            workloads=workloads,
            schedules=schedules,
            faults=faults,
        )
    )
    if args.json:
        _print_results_json(results)
    else:
        _print_suite_table(
            f"Scenario suite over {args.density} graphs "
            f"(seed={args.seed}, jobs={args.jobs})",
            results,
        )
    return 0 if all(result.ok for result in results) else 1


def _command_trace(args: argparse.Namespace) -> int:
    if args.trace_command == "record":
        return _command_trace_record(args)
    return _command_trace_replay(args)


def _command_trace_record(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
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


def _command_build(kind: str, args: argparse.Namespace) -> int:
    measurement = run_construction_measurement(
        args.nodes, kind=kind, density=args.density, seed=args.seed, c=args.error_exponent
    )
    table = ExperimentTable(
        "build", f"Build-{kind.upper()} on a {args.density} graph", ["quantity", "value"]
    )
    table.add_row("nodes (n)", measurement.n)
    table.add_row("edges (m)", measurement.m)
    table.add_row(f"KKT Build-{kind.upper()} messages", measurement.kkt_messages)
    table.add_row(f"{measurement.baseline_name} baseline messages", measurement.baseline_messages)
    table.add_row("KKT messages / m", round(measurement.kkt_over_m, 3))
    table.add_row("baseline messages / m", round(measurement.baseline_over_m, 3))
    table.add_row("KKT bits", measurement.kkt_bits)
    table.add_row("KKT rounds (parallel)", measurement.kkt_rounds)
    table.add_row("phases", measurement.kkt_phases)
    print(table.render())
    return 0


def _command_repair(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        graph=_spec_from_args(args),
        workload=WorkloadSpec(name=args.workload, updates=args.updates),
        faults=None if args.fault == "none" else FaultSpec(name=args.fault),
    )
    options = {"mode": args.mode, "repair_batch": args.repair_batch}
    result = run_algorithm("kkt-repair", spec, c=args.error_exponent, **options)
    extra = result.extra
    unit = "wave" if "repair_waves" in extra else "update"
    table = ExperimentTable(
        "repair",
        f"Impromptu {args.mode.upper()} repair under {args.workload}",
        ["quantity", "value"],
    )
    table.add_row("nodes / edges", f"{result.n} / {result.m}")
    table.add_row(
        "updates processed", extra["updates"] + extra.get("fault_updates_applied", 0)
    )
    if unit == "wave":
        table.add_row(f"repair waves (batch={extra['repair_batch']})", extra["repair_waves"])
        table.add_row("updates annihilated inside waves", extra["batched_saved_queries"])
    if args.fault != "none":
        table.add_row(f"fault events ({args.fault})", extra["fault_updates_applied"])
    table.add_row("tree invariant holds", result.ok)
    table.add_row(f"messages per {unit} (mean)", round(extra[f"messages_per_{unit}_mean"], 1))
    table.add_row(f"messages per {unit} (max)", extra[f"messages_per_{unit}_max"])
    if args.compare_recompute:
        baseline = run_algorithm("recompute-repair", spec, **options)
        table.add_row(
            f"recompute baseline per {unit} (mean)",
            round(baseline.extra[f"messages_per_{unit}_mean"], 1),
        )
    print(table.render())
    return 0 if result.ok else 1


def _command_sweep(args: argparse.Namespace) -> int:
    if not args.algorithms and (args.json or args.jobs != 1):
        raise AlgorithmError(
            "--json and --jobs require --algorithms (the legacy --kind sweep "
            "prints a normalised table serially)"
        )
    if args.algorithms:
        engine = ExperimentEngine(jobs=args.jobs, base_seed=args.seed)
        results = engine.sweep(
            args.algorithms, args.sizes, density=args.density, seed=args.seed
        )
        if args.json:
            _print_results_json(results)
        else:
            _print_results_table(
                f"Sweep over {args.density} graphs (seed={args.seed}, jobs={args.jobs})",
                results,
            )
        return 0 if all(result.ok for result in results) else 1

    bound = "n_log2_n_over_loglog_n" if args.kind == "mst" else "n_log_n"
    table = ExperimentTable(
        "sweep",
        f"Build-{args.kind.upper()} sweep ({args.density} graphs)",
        ["n", "m", "KKT msgs", "baseline msgs", "KKT/m", "KKT/bound"],
    )
    for n in args.sizes:
        measurement = run_construction_measurement(
            n, kind=args.kind, density=args.density, seed=args.seed
        )
        table.add_row(
            measurement.n,
            measurement.m,
            measurement.kkt_messages,
            measurement.baseline_messages,
            round(measurement.kkt_over_m, 3),
            round(measurement.kkt_over_bound(bound), 3),
        )
    table.add_note(f"bound = {bound}")
    print(table.render())
    return 0


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
    else:
        spec = _spec_from_args(args)
        scenario = args.workload or args.schedule or (args.fault and args.fault != "none")
        if scenario:
            workload = (
                _workload_from_args(args.workload, args.updates, args.trace)
                if args.workload
                else None
            )
            schedule = ScheduleSpec(scheduler=args.schedule) if args.schedule else None
            fault = (
                FaultSpec(name=args.fault)
                if args.fault and args.fault != "none"
                else None
            )
            spec = ExperimentSpec(
                graph=spec, workload=workload, schedule=schedule, faults=fault
            )
        spec_payload = spec.to_dict()
    host, port = _parse_server(args.server)
    client = ServiceClient(host=host, port=port)
    entry = client.submit_spec(
        args.algorithm, spec_payload, wait=not args.no_wait
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
    if args.loadgen_command == "record":
        return _command_loadgen_record(args)
    return _command_loadgen_run(args)


def _command_loadgen_record(args: argparse.Namespace) -> int:
    from .service import record_spec_trace, spec_trace_requests

    workloads = [None if name == "none" else name for name in args.workloads]
    requests = spec_trace_requests(
        algorithms=args.algorithms,
        sizes=args.sizes,
        density=args.density,
        seed=args.seed,
        workloads=workloads,
        updates=args.updates,
        trace=args.trace,
    )
    path = record_spec_trace(args.out, requests)
    table = ExperimentTable(
        "loadgen-record", f"Recorded spec trace -> {path}", ["quantity", "value"]
    )
    table.add_row("requests", len(requests))
    table.add_row("algorithms", " ".join(args.algorithms))
    table.add_row("sizes", " ".join(str(size) for size in args.sizes))
    print(table.render())
    return 0


def _command_loadgen_run(args: argparse.Namespace) -> int:
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
    checks = (
        ("build-mst", "kkt-mst", {}),
        ("build-st", "kkt-st", {}),
        ("repair", "kkt-repair", {"updates": 6}),
    )
    all_ok = True
    for label, algorithm, options in checks:
        result = run_algorithm(
            algorithm, GraphSpec(nodes=32, density="sparse", seed=3), **options
        )
        all_ok = all_ok and result.ok
        print(f"{label:10s} {'OK' if result.ok else 'FAILED'}")
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
        "repair": _command_repair,
        "suite": _command_suite,
        "sweep": _command_sweep,
        "trace": _command_trace,
        "serve": _command_serve,
        "submit": _command_submit,
        "loadgen": _command_loadgen,
        "selfcheck": _command_selfcheck,
    }
    if args.command == "build-mst":
        return _command_build("mst", args)
    if args.command == "build-st":
        return _command_build("st", args)
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
