"""Experiment-running utilities for the CLI's table views.

The claims ledger (:mod:`repro.claims`) owns the pinned experiment
definitions, the o(m) crossovers included; this module owns
:func:`run_construction_measurement` — one (n, density) construction row:
the ``kkt-mst``/``kkt-st`` registry run plus the matching baseline run
(``ghs``/``flooding``) on the same graph spec, reduced to the counters the
``build-*`` and ``sweep --kind`` tables print.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api import GraphSpec, run
from ..network.errors import AlgorithmError
from .complexity import bound_value

__all__ = ["ConstructionMeasurement", "run_construction_measurement"]


@dataclass
class ConstructionMeasurement:
    """All the counters one construction experiment row needs."""

    n: int
    m: int
    kkt_messages: int
    kkt_bits: int
    kkt_rounds: int
    kkt_phases: int
    baseline_messages: int
    baseline_name: str

    @property
    def kkt_over_m(self) -> float:
        return self.kkt_messages / max(self.m, 1)

    @property
    def baseline_over_m(self) -> float:
        return self.baseline_messages / max(self.m, 1)

    def kkt_over_bound(self, bound: str) -> float:
        return self.kkt_messages / max(bound_value(bound, self.n, self.m), 1e-12)


def run_construction_measurement(
    n: int,
    kind: str = "mst",
    density: str = "complete",
    seed: int = 1,
    c: float = 1.0,
) -> ConstructionMeasurement:
    """Run one KKT construction plus its baseline and collect the counters."""
    if kind not in ("mst", "st"):
        raise AlgorithmError("kind must be 'mst' or 'st'")
    spec = GraphSpec(nodes=n, density=density, seed=seed)
    kkt = run(f"kkt-{kind}", spec, c=c)
    baseline_name = "ghs" if kind == "mst" else "flooding"
    return ConstructionMeasurement(
        n=kkt.n,
        m=kkt.m,
        kkt_messages=kkt.messages,
        kkt_bits=kkt.bits,
        kkt_rounds=kkt.rounds,
        kkt_phases=kkt.phases,
        baseline_messages=run(baseline_name, spec).messages,
        baseline_name=baseline_name,
    )
