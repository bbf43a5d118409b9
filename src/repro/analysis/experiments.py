"""Experiment-running utilities for the CLI's table views.

The claims ledger (:mod:`repro.claims`) owns the pinned experiment
definitions; this module owns reusable mechanics:

* :class:`MeasurementSeries` — a size-indexed series of measurements with
  normalisation against the bounds of :mod:`repro.analysis.complexity`;
* :func:`run_construction_measurement` — one (n, density) construction row:
  the ``kkt-mst``/``kkt-st`` registry run plus the matching baseline run
  (``ghs``/``flooding``) on the same graph spec, reduced to the counters the
  ``build-*`` and ``sweep --kind`` tables print;
* :func:`estimate_crossover` — given two measured series (e.g. Build-ST and
  flooding), estimate the input size at which the first drops below the
  second by log-log extrapolation — used to report "where the o(m) crossover
  falls" when it lies outside the swept range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..api import GraphSpec, run
from ..network.errors import AlgorithmError
from .complexity import bound_value

__all__ = [
    "MeasurementSeries",
    "ConstructionMeasurement",
    "run_construction_measurement",
    "estimate_crossover",
    "geometric_sizes",
]


def geometric_sizes(start: int, stop: int, factor: float = 1.5) -> List[int]:
    """Geometrically spaced problem sizes in [start, stop] (inclusive-ish)."""
    if start < 1 or stop < start:
        raise AlgorithmError("need 1 <= start <= stop")
    sizes = [start]
    current = float(start)
    while True:
        current *= factor
        value = int(round(current))
        if value > stop:
            break
        if value != sizes[-1]:
            sizes.append(value)
    if sizes[-1] != stop:
        sizes.append(stop)
    return sizes


@dataclass
class MeasurementSeries:
    """A named series of measurements indexed by (n, m)."""

    name: str
    sizes: List[Tuple[int, int]] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def add(self, n: int, m: int, value: float) -> None:
        self.sizes.append((n, m))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    def normalised_by(self, bound: str) -> List[float]:
        """Pointwise value / bound(n, m)."""
        return [
            value / max(bound_value(bound, n, m), 1e-12)
            for (n, m), value in zip(self.sizes, self.values)
        ]

    def ratio_to(self, other: "MeasurementSeries") -> List[float]:
        if len(self) != len(other):
            raise AlgorithmError("series lengths differ")
        return [
            mine / theirs if theirs else float("inf")
            for mine, theirs in zip(self.values, other.values)
        ]


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


def estimate_crossover(
    first: MeasurementSeries,
    second: MeasurementSeries,
    size_axis: str = "n",
) -> Optional[float]:
    """Estimate the size at which ``first`` drops below ``second``.

    Both series must be measured at the same sizes.  If the crossover happens
    inside the measured range, the first measured size where
    ``first < second`` is returned.  Otherwise both series are fitted as
    power laws (``value ~ a · size^b`` by least squares in log-log space) and
    the analytic intersection is returned; ``None`` if the fitted exponents
    never cross (first grows at least as fast as second).
    """
    if len(first) != len(second) or len(first) < 2:
        raise AlgorithmError("need two series of equal length >= 2")
    axis_index = {"n": 0, "m": 1}[size_axis]
    sizes = [size[axis_index] for size in first.sizes]
    if sizes != [size[axis_index] for size in second.sizes]:
        raise AlgorithmError("series were measured at different sizes")

    for size, a, b in zip(sizes, first.values, second.values):
        if a < b:
            return float(size)

    def fit(values: Sequence[float]) -> Tuple[float, float]:
        xs = [math.log(size) for size in sizes]
        ys = [math.log(max(value, 1e-9)) for value in values]
        n_points = len(xs)
        mean_x = sum(xs) / n_points
        mean_y = sum(ys) / n_points
        var_x = sum((x - mean_x) ** 2 for x in xs)
        if var_x == 0:
            raise AlgorithmError("degenerate size axis")
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var_x
        intercept = mean_y - slope * mean_x
        return slope, intercept

    slope_a, intercept_a = fit(first.values)
    slope_b, intercept_b = fit(second.values)
    if slope_a >= slope_b:
        return None
    log_size = (intercept_a - intercept_b) / (slope_b - slope_a)
    return math.exp(log_size)
