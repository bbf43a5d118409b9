"""Measure one workload in this process and print the result line.

Run through ``perfbench/run.py``, which starts this module in a child
process with a fixed hash seed and one BLAS/OpenMP thread.  Every clock
starts after all imports and after an untimed warm-up on a small instance of
the workload.  The loop is closed with one client: the next op starts when
the previous one has returned.  ``gc.collect()`` runs before each op, outside
its timed region, and the set-up state is frozen out of the collector, so no
op pays for another op's garbage or rescans the set-up graph.

Times are CPU seconds of this process, reported at reference speed (see
:mod:`perfbench.calibration`): the reference computation runs right before
and right after every op and set-up, and a time taken while it ran at
``k`` times its reference time is divided by ``k``.  On a shared host the
same op takes up to three times as long from one minute to the next;
scaling by the speed measured around it removes most of that.

``--trace 0`` reports the end-to-end metrics.  A run makes :data:`OPS`
fixed ops (0, 1, ...) and runs them in pass after pass for ``--seconds``
(at least :data:`MIN_PASSES` passes).  An op's latency is the median of its
scaled timings.  :data:`SETUPS` set-ups are spread over the run in the same
way; ``setup_s`` is the median of their scaled times.

``--trace 1`` runs each of the first :data:`TRACED_OPS` ops untraced and then
traced, and reports the per-layer metrics; a fixed op count keeps every
count in it exact.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.calibration import REFERENCE_S, calibrate
from perfbench.tracing import OpTrace, Tracer, layer_metrics
from perfbench.workloads import SMALL, WORKLOADS

RATIONALE = json.loads((Path(__file__).parent / "rationale.json").read_text())

#: Distinct ops per untraced run, each timed once per pass: at least ten
#: lie beyond the p90.
OPS = 100
#: Fewest passes over the ops per untraced run.
MIN_PASSES = 3
#: Set-ups per untraced run, spread over it; ``setup_s`` is their median.
SETUPS = 5
#: Ops per traced run, and the prefix the determinism digest covers.
TRACED_OPS = 24
#: Start no pass after this long even below MIN_PASSES: a run must end
#: within 180 s.
HARD_STOP_S = 100.0

#: The clock for ops and set-ups: CPU seconds of this process.  The program
#: is single-threaded, in-process and does no I/O, so on an idle CPU this
#: equals the wall time; unlike the wall time it leaves out the time the
#: host takes the virtual CPU away (steal time).  The run's length is
#: measured in wall time.
op_clock = time.process_time

#: Per-layer metrics taken from the traced set-up rather than the ops.
SETUP_LAYER_METRICS = (
    "generators.build_ms",
    "build.ms",
    "columnar.build_ms",
    "graph.incident_arrays_calls",
)


@dataclass
class OpsRun:
    """What one pass over the ops measured."""

    seconds: List[float] = field(default_factory=list)
    #: Per op, the mean calibration time before and after it.
    calibration: List[float] = field(default_factory=list)
    counters: List[Tuple[int, ...]] = field(default_factory=list)
    ok: List[bool] = field(default_factory=list)
    traces: List[OpTrace] = field(default_factory=list)
    calibration_after: float = 0.0

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def scaled(self) -> List[float]:
        """Each op's seconds at reference speed."""
        return [at_reference(*pair) for pair in zip(self.seconds, self.calibration)]

    def time_op(self, workload: Any, state: Any, index: int, tracer: Optional[Tracer] = None) -> None:
        """Run op ``index`` once and record it.

        Only ``workload.op`` is timed; the collection and calibration around
        it and the correctness check after it are not.  An op that raises
        counts as failed.
        """
        gc.collect()
        # The calibration after the previous op serves as this op's "before".
        before = self.calibration_after if self.calibration_after else calibrate()
        if tracer is not None:
            tracer.begin_op(index)
        begin = op_clock()
        try:
            output = workload.op(state, index)
        except Exception:  # an op failing must not end the run
            traceback.print_exc()
            output = None
        self.seconds.append(op_clock() - begin)
        if tracer is not None:
            self.traces.append(tracer.end_op())
        self.calibration_after = calibrate()
        self.calibration.append((before + self.calibration_after) / 2)
        if output is None:
            self.ok.append(False)
            self.counters.append(())
        else:
            self.ok.append(workload.check(state, index, output))
            self.counters.append(tuple(workload.counters(output)))


def at_reference(seconds: float, calibration: float) -> float:
    """``seconds`` measured while the calibration took ``calibration``."""
    return seconds * REFERENCE_S / calibration


def run_ops(workload: Any, state: Any, count: int, tracer: Optional[Tracer] = None) -> OpsRun:
    """Run ops 0, 1, ..., ``count - 1`` once each."""
    run = OpsRun()
    for index in range(count):
        run.time_op(workload, state, index, tracer)
    return run


def failed_ops(*runs: OpsRun) -> int:
    """Ops that failed a check in any run or whose counters differ between runs."""
    return sum(
        1
        for oks, counters in zip(zip(*(run.ok for run in runs)), zip(*(run.counters for run in runs)))
        if not (all(oks) and len(set(counters)) == 1)
    )


def warm_up(name: str, seed: int) -> None:
    """The untimed warm-up: set up a small instance of the workload once."""
    SMALL[name].prepare(seed)
    gc.collect()


def prepare(workload: Any, seed: int) -> Tuple[Any, float]:
    """Set the workload up once; returns the state and the scaled set-up seconds."""
    gc.collect()
    before = calibrate()
    begin = op_clock()
    state = workload.prepare(seed)
    elapsed = op_clock() - begin
    return state, at_reference(elapsed, (before + calibrate()) / 2)


def determinism(workload: Any, seed: int, counters: List[Tuple[int, ...]]) -> Dict[str, Any]:
    """Exact counter totals and a digest over the first TRACED_OPS ops."""
    prefix = counters[:TRACED_OPS]
    totals = [sum(column) for column in zip(*prefix)] if all(prefix) else []
    return {
        "workload": workload.name,
        "seed": seed,
        "ops": len(prefix),
        "messages_bits_rounds_bne": totals,
        "digest": hashlib.sha256(repr(prefix).encode()).hexdigest()[:16],
    }


def fresh_setup(workload: Any, seed: int) -> Tuple[Any, float]:
    """A set-up for timed ops: prepared, then frozen out of the collector."""
    gc.unfreeze()
    state, elapsed = prepare(workload, seed)
    gc.collect()
    gc.freeze()
    return state, elapsed


def measure(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics.

    Passes over the same :data:`OPS` ops repeat until ``seconds`` have gone.
    A fresh set-up replaces the state whenever another fifth of the run has
    gone, so the set-ups are spread over the run like the passes and one
    phase of contention seldom slows more than one of them.
    """
    warm_up(workload.name, seed)
    setup_seconds: List[float] = []
    passes: List[OpsRun] = []
    unfinished = 0
    state = None
    started = time.perf_counter()
    while True:
        spent = time.perf_counter() - started
        if (len(passes) >= MIN_PASSES and spent >= seconds) or (passes and spent >= HARD_STOP_S):
            break
        if len(setup_seconds) < SETUPS and spent >= len(setup_seconds) * seconds / SETUPS:
            if state is not None:
                unfinished += not workload.finish(state)
            state = None
            state, elapsed = fresh_setup(workload, seed)
            setup_seconds.append(elapsed)
        passes.append(run_ops(workload, state, OPS))
    unfinished += not workload.finish(state)
    while len(setup_seconds) < SETUPS:
        state = None
        setup_seconds.append(fresh_setup(workload, seed)[1])
    gc.unfreeze()
    times = sorted(map(_median, *(run.scaled for run in passes)))
    print("determinism", json.dumps(determinism(workload, seed, passes[0].counters)))
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_p90_ms": 1000 * statistics.quantiles(times, n=10)[-1],
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    failed = failed_ops(*passes) + unfinished
    unscaled = list(map(_median, *(run.seconds for run in passes)))
    calibration = statistics.median(c for run in passes for c in run.calibration)
    print(
        f"passes {len(passes)} set-ups {len(setup_seconds)} unscaled op_p50_ms"
        f" {1000 * statistics.median(unscaled):.2f} calibration_ms {1000 * calibration:.3f}",
        file=sys.stderr,
    )
    return _result(len(times), min(failed, len(times)), metrics, "end_to_end")


def measure_traced(workload: Any, seed: int) -> Dict[str, Any]:
    """The traced run: per-layer metrics, checked against an untraced pass.

    Two set-ups of the same seed run side by side, and op *i* runs untraced
    on one and then traced on the other, so both see the same load on the
    machine and ``trace.overhead_pct`` compares like with like.  The
    wrappers are installed only around the traced set-up and ops.
    """
    warm_up(workload.name, seed)
    state_plain, _ = prepare(workload, seed)
    tracer = Tracer()
    with tracer:
        tracer.begin_op("setup")
        state_traced, _ = prepare(workload, seed)
        setup_trace = tracer.end_op()
    plain, traced = OpsRun(), OpsRun()
    for index in range(TRACED_OPS):
        plain.time_op(workload, state_plain, index)
        with tracer:
            traced.time_op(workload, state_traced, index, tracer)
    print("determinism", json.dumps(determinism(workload, seed, traced.counters)))
    if tracer.absent:
        print("absent", json.dumps(tracer.absent))
    failed = failed_ops(plain, traced)
    failed += (not workload.finish(state_plain)) + (not workload.finish(state_traced))
    overhead_pct = 100 * (sum(traced.scaled) / sum(plain.scaled) - 1)
    kinds = [name for name in RATIONALE["per_layer"] if name.startswith("accounting.msgs.")]
    metrics = layer_metrics(traced.traces, kinds, overhead_pct)
    setup_metrics = layer_metrics([setup_trace], [], 0.0)
    for name in SETUP_LAYER_METRICS:
        metrics["setup." + name] = setup_metrics[name]
    metrics["unscaled.op_p50_ms"] = 1000 * statistics.median(plain.seconds)
    metrics["calibration.ms"] = 1000 * statistics.median(plain.calibration + traced.calibration)
    return _result(TRACED_OPS, min(failed, TRACED_OPS), metrics, "per_layer")


def _median(*values: float) -> float:
    return statistics.median(values)


def _result(attempted: int, failed: int, values: Dict[str, float], group: str) -> Dict[str, Any]:
    units = {name: spec["unit"] for name, spec in RATIONALE[group].items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = measure_traced(workload, args.seed)
    else:
        result = measure(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
