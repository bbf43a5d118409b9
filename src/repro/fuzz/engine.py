"""The fuzz campaign: generate specs, run the oracle stack, shrink failures.

:class:`FuzzCampaign` wires the subsystem together: a seeded
:class:`~repro.fuzz.specgen.SpecGenerator` produces ``budget`` random
scenarios, each is examined by the oracle stack through a shared
:class:`~repro.fuzz.oracles.CaseContext`, every violation is delta-debugged
with :func:`~repro.fuzz.shrink.shrink_spec` down to a minimal reproducer,
and the reproducers land in a :class:`~repro.fuzz.corpus.Corpus`.

Campaigns are deterministic end to end: the same seed, budget and
configuration produce byte-identical report and corpus JSON (wall-clock
times never enter either), which is what lets CI compare two invocations
and lets a teammate regenerate any corpus entry from its campaign
coordinates alone.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..network.errors import AlgorithmError
from ..api import get_runner
from .corpus import Corpus, CorpusEntry
from .oracles import (
    CaseContext,
    Violation,
    default_algorithms,
    make_oracles,
)
from .shrink import ShrinkOutcome, shrink_spec
from .specgen import SpecGenerator, SpecSpace

__all__ = ["FuzzCampaign", "REPORT_VERSION", "report_to_json", "replay_entry"]

REPORT_VERSION = 1


def report_to_json(report: Dict[str, Any]) -> str:
    """Canonical report JSON: sorted keys, two-space indent, newline."""
    import json

    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _examine(oracle: Any, spec, context: CaseContext) -> List[Violation]:
    """Run one oracle defensively: a crash *is* a finding, not an abort."""
    try:
        return list(oracle.examine(spec, context))
    except AlgorithmError as exc:
        return [Violation(oracle.name, f"oracle raised AlgorithmError: {exc}")]
    except Exception as exc:  # noqa: BLE001 - fuzzing must survive anything
        return [Violation(oracle.name, f"oracle crashed: {exc!r}")]


class FuzzCampaign:
    """One seeded fuzzing run over ``budget`` random experiment specs.

    Parameters
    ----------
    budget:
        Number of specs to generate and examine.
    seed:
        Campaign seed — drives spec generation and nothing else.
    algorithms:
        Algorithms the oracles exercise (default: the whole registry).
    oracles:
        Oracle names from :data:`~repro.fuzz.oracles.ORACLE_REGISTRY`
        (default: the full stack).  Instantiated oracle objects are also
        accepted, which is how tests plant deliberately buggy oracles.
    space:
        The sampled :class:`SpecSpace` (default: the standard small region).
    parallel_every:
        Every Nth case additionally runs the whole case through a
        two-worker experiment engine and compares it against the serial
        engine (``0`` disables the cross-process check).
    shrink:
        Delta-debug failing specs to minimal reproducers (on by default;
        campaigns that only want detection can turn it off).
    progress:
        Optional callable receiving one line per progress event.
    """

    def __init__(
        self,
        budget: int = 100,
        seed: int = 0,
        algorithms: Optional[Sequence[str]] = None,
        oracles: Optional[Sequence[Any]] = None,
        space: Optional[SpecSpace] = None,
        parallel_every: int = 25,
        shrink: bool = True,
        min_nodes: int = 3,
        max_shrink_attempts: int = 250,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        if budget < 1:
            raise AlgorithmError("a fuzz campaign needs a budget of at least 1")
        if parallel_every < 0:
            raise AlgorithmError("parallel_every must be >= 0 (0 disables it)")
        self.budget = budget
        self.seed = seed
        self.algorithms = list(algorithms) if algorithms else default_algorithms()
        for algorithm in self.algorithms:
            get_runner(algorithm)  # fail fast (and actionably) on typos
        self.oracles = self._resolve_oracles(oracles)
        self.space = space or SpecSpace()
        self.parallel_every = parallel_every
        self.shrink = shrink
        self.min_nodes = min_nodes
        self.max_shrink_attempts = max_shrink_attempts
        self.progress = progress
        self.corpus = Corpus()

    @staticmethod
    def _resolve_oracles(oracles: Optional[Sequence[Any]]) -> List[Any]:
        if oracles is None:
            return make_oracles(None)
        resolved: List[Any] = []
        names: List[str] = []
        for oracle in oracles:
            if isinstance(oracle, str):
                names.append(oracle)
            else:
                resolved.append(oracle)
        return make_oracles(names) + resolved if names else resolved

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _emit(self, line: str) -> None:
        if self.progress is not None:
            self.progress(line)

    def _oracle_by_name(self, name: str) -> Any:
        for oracle in self.oracles:
            if oracle.name == name:
                return oracle
        raise AlgorithmError(f"no active oracle named {name!r}")

    def _still_fails(self, violation: Violation) -> Callable[[Any], bool]:
        """The shrink predicate: does the violated oracle still reject?"""
        oracle = self._oracle_by_name(violation.oracle)
        # A determinism violation may have come from the cross-process
        # check, which needs the full job list and check_parallel on to
        # reproduce; every other oracle shrinks faster on just the one
        # implicated algorithm.
        check_parallel = violation.oracle == "determinism"
        algorithms = (
            [violation.algorithm]
            if violation.algorithm and not check_parallel
            else list(self.algorithms)
        )

        def predicate(candidate) -> bool:
            context = CaseContext(candidate, algorithms, check_parallel=check_parallel)
            stats = getattr(oracle, "stats", None)
            before = dict(stats) if stats is not None else None
            try:
                found = _examine(oracle, candidate, context)
            finally:
                if before is not None:
                    # Shrink re-examinations must not inflate the campaign
                    # statistics published in the report.
                    stats.clear()
                    stats.update(before)
            if violation.algorithm is None:
                return bool(found)
            return any(v.algorithm in (None, violation.algorithm) for v in found)

        return predicate

    def _shrink(self, spec, violation: Violation) -> ShrinkOutcome:
        if not self.shrink:
            return ShrinkOutcome(spec=spec, attempts=0, accepted=())
        return shrink_spec(
            spec,
            self._still_fails(violation),
            min_nodes=self.min_nodes,
            max_attempts=self.max_shrink_attempts,
        )

    def _record(self, index: int, spec, violation: Violation) -> CorpusEntry:
        outcome = self._shrink(spec, violation)
        entry = CorpusEntry(
            oracle=violation.oracle,
            detail=violation.detail,
            algorithm=violation.algorithm,
            spec=spec.to_dict(),
            minimized=outcome.spec.to_dict(),
            campaign_seed=self.seed,
            case_index=index,
            shrink_attempts=outcome.attempts,
            shrink_steps=outcome.accepted,
        )
        if self.corpus.add(entry):
            self._emit(
                f"case {index}: {violation} -> minimized to "
                f"{outcome.spec.graph.nodes} nodes ({entry.id})"
            )
        return entry

    @staticmethod
    def _count(coverage: Dict[str, int], key: str) -> None:
        coverage[key] = coverage.get(key, 0) + 1

    def run(self) -> Dict[str, Any]:
        """Execute the campaign; returns the (deterministic) report dict."""
        generator = SpecGenerator(seed=self.seed, space=self.space)
        oracle_checks: Dict[str, int] = {oracle.name: 0 for oracle in self.oracles}
        coverage: Dict[str, Dict[str, int]] = {
            "densities": {},
            "weight_models": {},
            "workloads": {},
            "schedulers": {},
            "faults": {},
            "algorithms": {},
        }
        violation_records: List[Dict[str, Any]] = []
        for index in range(self.budget):
            spec = generator.generate()
            self._count(coverage["densities"], spec.graph.density)
            self._count(coverage["weight_models"], spec.graph.weight_model)
            self._count(
                coverage["workloads"],
                spec.workload.name if spec.workload else "<none>",
            )
            self._count(
                coverage["schedulers"],
                spec.schedule.scheduler if spec.schedule else "<none>",
            )
            self._count(
                coverage["faults"], spec.faults.name if spec.faults else "<none>"
            )
            check_parallel = (
                self.parallel_every > 0 and (index + 1) % self.parallel_every == 0
            )
            context = CaseContext(spec, self.algorithms, check_parallel=check_parallel)
            for algorithm in context.algorithms:
                self._count(coverage["algorithms"], algorithm)
            for oracle in self.oracles:
                found = _examine(oracle, spec, context)
                oracle_checks[oracle.name] += 1
                for violation in found:
                    entry = self._record(index, spec, violation)
                    violation_records.append(entry.to_dict())
            if (index + 1) % 25 == 0 or index + 1 == self.budget:
                self._emit(
                    f"{index + 1}/{self.budget} cases, "
                    f"{len(self.corpus)} distinct reproducer(s)"
                )
        violation_records.sort(key=lambda record: (record["id"], record["case_index"]))
        oracle_stats = {
            oracle.name: dict(getattr(oracle, "stats", {}))
            for oracle in self.oracles
            if getattr(oracle, "stats", None)
        }
        return {
            "version": REPORT_VERSION,
            "seed": self.seed,
            "budget": self.budget,
            "cases": self.budget,
            "algorithms": list(self.algorithms),
            "oracles": sorted(oracle.name for oracle in self.oracles),
            "space": asdict(self.space),
            "parallel_every": self.parallel_every,
            "oracle_checks": oracle_checks,
            "oracle_stats": oracle_stats,
            "axis_coverage": coverage,
            "violation_count": len(violation_records),
            "violations": violation_records,
        }


def replay_entry(
    entry: CorpusEntry, algorithms: Optional[Sequence[str]] = None
) -> List[Violation]:
    """Re-run a corpus entry's oracle on its minimized spec.

    Returns the violations observed now — non-empty means the reproducer
    still fails (the bug is alive), empty means it has been fixed.
    Determinism entries replay against the full algorithm list with the
    cross-process check enabled, since that is the only way a parallel
    divergence can reproduce.
    """
    oracles = make_oracles([entry.oracle])
    spec = entry.minimized_spec()
    check_parallel = entry.oracle == "determinism"
    if algorithms is None:
        algorithms = (
            [entry.algorithm]
            if entry.algorithm and not check_parallel
            else default_algorithms()
        )
    context = CaseContext(spec, algorithms, check_parallel=check_parallel)
    return _examine(oracles[0], spec, context)
