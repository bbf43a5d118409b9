"""Seeded random generation of valid :class:`~repro.api.scenario.ExperimentSpec`s.

The curated test grids pin correctness at hand-picked points of the
``GraphSpec × WorkloadSpec × ScheduleSpec × FaultSpec`` space; the
:class:`SpecGenerator` samples the *whole* space instead.  Everything it
emits is a valid, buildable, JSON-round-trippable spec:

* the axes are discovered by **registry introspection** —
  :func:`~repro.api.scenario.list_workloads`,
  :func:`~repro.api.faults.list_faults` and
  :func:`~repro.network.scheduler.list_schedulers` — filtered through
  :func:`~repro.api.scenario.workload_required_params` /
  :func:`~repro.api.faults.fault_required_params`, so a newly registered
  workload or fault program is fuzzed automatically while programs that
  need un-guessable parameters (``trace-replay`` needs a ``path``) are
  skipped;
* every spec carries explicit seeds (graph always; workload/schedule/fault
  seeds are sometimes set, sometimes left to resolve against the graph
  seed — both paths are part of the contract being fuzzed);
* the ``default`` and ``adversarial`` weight models keep the paper's
  distinct-weight invariant; the ``uniform`` model deliberately breaks it,
  and the oracles relax exact-MST agreement to minimum-total-weight
  agreement on such graphs — the invariant is honored by *checking the
  right property*, not by avoiding the hard inputs.

Generation is fully deterministic: two generators built with the same seed
and :class:`SpecSpace` yield the identical spec sequence, which is what
makes fuzz campaigns, their reports and their corpora replayable
byte-for-byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..api import (
    DENSITY_PROFILES,
    WEIGHT_MODELS,
    ExperimentSpec,
    FaultSpec,
    GraphSpec,
    ScheduleSpec,
    WorkloadSpec,
    fault_required_params,
    list_faults,
    list_workloads,
    workload_required_params,
)
from ..network.errors import AlgorithmError
from ..network.scheduler import list_schedulers

__all__ = ["SpecSpace", "SpecGenerator"]


#: Optional-parameter fuzzers for the built-in workloads and fault programs.
#: Unknown names simply fuzz with empty params (which every registered
#: generator must accept), so the table is an enrichment, not a gate.
_PARAM_FUZZERS: Dict[Tuple[str, str], Callable[[random.Random], Dict[str, Any]]] = {
    ("workload", "insert-heavy"): lambda rng: {
        "insert_fraction": rng.choice([0.5, 0.75, 0.9])
    },
    ("workload", "weight-ramp"): lambda rng: {"max_delta": rng.choice([2, 5, 10])},
    ("fault", "crash-leaves"): lambda rng: {
        "fraction": rng.choice([0.25, 0.5, 1.0])
    },
    ("fault", "link-storm"): lambda rng: {"count": rng.randint(1, 4)},
    ("fault", "lossy-uniform"): lambda rng: {
        "drop": rng.choice([0.02, 0.05, 0.15]),
        "duplicate": rng.choice([0.0, 0.1]),
    },
    ("fault", "partition-heal"): lambda rng: {
        "fraction": rng.choice([0.25, 0.4])
    },
    ("fault", "byz-corrupt"): lambda rng: {
        "count": rng.randint(1, 2),
        "rate": rng.choice([0.5, 1.0]),
    },
    ("fault", "byz-equivocate"): lambda rng: {"count": rng.randint(1, 2)},
    ("fault", "byz-replay"): lambda rng: {
        "count": rng.randint(1, 2),
        "rate": rng.choice([0.25, 0.5]),
    },
    ("fault", "byz-silent"): lambda rng: {"count": rng.randint(1, 2)},
}


@dataclass(frozen=True)
class SpecSpace:
    """The sampled region of the experiment-spec space.

    The defaults keep individual cases cheap (a few tens of nodes) while
    still crossing every density profile, weight model, registered workload,
    scheduler and fault program.  Probabilities are per-axis: an axis that
    is not drawn stays ``None``, so default-path behaviour (no workload, no
    schedule, fault-free) is fuzzed too.  A case with a schedule runs only
    flooding (the one runner that reads deliveries), so a schedule is drawn
    less often than the other axes to keep the other runners on most cases.
    """

    min_nodes: int = 4
    max_nodes: int = 24
    densities: Tuple[str, ...] = tuple(sorted(DENSITY_PROFILES))
    weight_models: Tuple[str, ...] = tuple(WEIGHT_MODELS)
    min_updates: int = 1
    max_updates: int = 8
    workload_probability: float = 0.6
    schedule_probability: float = 0.2
    fault_probability: float = 0.45
    param_probability: float = 0.5
    explicit_seed_probability: float = 0.5
    seed_range: int = 2 ** 20

    def __post_init__(self) -> None:
        if self.min_nodes < 2:
            raise AlgorithmError("SpecSpace.min_nodes must be at least 2")
        if self.max_nodes < self.min_nodes:
            raise AlgorithmError("SpecSpace.max_nodes must be >= min_nodes")
        if self.min_updates < 1 or self.max_updates < self.min_updates:
            raise AlgorithmError("SpecSpace update bounds must satisfy 1 <= min <= max")


class SpecGenerator:
    """Deterministic random :class:`ExperimentSpec` source.

    >>> gen = SpecGenerator(seed=0)
    >>> spec = gen.generate()
    >>> ExperimentSpec.from_json(spec.to_json()) == spec
    True
    """

    def __init__(self, seed: int = 0, space: Optional[SpecSpace] = None) -> None:
        self.seed = seed
        self.space = space or SpecSpace()
        self._rng = random.Random(seed)
        # Introspect the registries once, in sorted order, so the sampled
        # axis lists are stable within a campaign.
        self.workloads: List[str] = [
            name for name in list_workloads() if not workload_required_params(name)
        ]
        self.faults: List[str] = [
            name
            for name in list_faults()
            if name != "none" and not fault_required_params(name)
        ]
        self.schedulers: List[str] = list_schedulers()

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def _seed_for(self, rng: random.Random) -> Optional[int]:
        """An explicit axis seed, or ``None`` to resolve against the graph's."""
        if rng.random() < self.space.explicit_seed_probability:
            return rng.randrange(self.space.seed_range)
        return None

    def _params_for(self, kind: str, name: str, rng: random.Random) -> Dict[str, Any]:
        fuzzer = _PARAM_FUZZERS.get((kind, name))
        if fuzzer is None or rng.random() >= self.space.param_probability:
            return {}
        return fuzzer(rng)

    def _graph_spec(self, rng: random.Random) -> GraphSpec:
        space = self.space
        return GraphSpec(
            nodes=rng.randint(space.min_nodes, space.max_nodes),
            density=rng.choice(space.densities),
            weight_model=rng.choice(space.weight_models),
            seed=rng.randrange(space.seed_range),
        )

    def _workload_spec(self, rng: random.Random) -> Optional[WorkloadSpec]:
        if not self.workloads or rng.random() >= self.space.workload_probability:
            return None
        name = rng.choice(self.workloads)
        return WorkloadSpec(
            name=name,
            updates=rng.randint(self.space.min_updates, self.space.max_updates),
            seed=self._seed_for(rng),
            params=self._params_for("workload", name, rng),
        )

    def _schedule_spec(self, rng: random.Random) -> Optional[ScheduleSpec]:
        if not self.schedulers or rng.random() >= self.space.schedule_probability:
            return None
        scheduler = rng.choice(self.schedulers)
        seed = self._seed_for(rng) if scheduler == "random" else None
        return ScheduleSpec(scheduler=scheduler, seed=seed)

    def _fault_spec(self, rng: random.Random) -> Optional[FaultSpec]:
        if not self.faults or rng.random() >= self.space.fault_probability:
            return None
        name = rng.choice(self.faults)
        return FaultSpec(
            name=name,
            seed=self._seed_for(rng),
            params=self._params_for("fault", name, rng),
        )

    def generate(self) -> ExperimentSpec:
        """The next random spec (advances the generator's stream)."""
        rng = self._rng
        return ExperimentSpec(
            graph=self._graph_spec(rng),
            workload=self._workload_spec(rng),
            schedule=self._schedule_spec(rng),
            faults=self._fault_spec(rng),
        )

    def stream(self, count: int) -> Iterator[ExperimentSpec]:
        """Yield ``count`` specs (a fuzz campaign's case list)."""
        for _ in range(count):
            yield self.generate()
