"""Fitting measured costs against the paper's asymptotic bounds.

The claims ledger (:mod:`repro.claims`) checks, for each input size, the
measured message count against the value of the claimed bound (e.g. ``n log² n / log log n``); the
functions here compute the implied constants and check whether the ratio
*measured / bound* stays flat (the empirical signature of matching the
asymptotic shape) while *measured / m* shrinks (the ``o(m)`` claim).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..network.errors import AlgorithmError

__all__ = [
    "BOUNDS",
    "bound_value",
    "FitResult",
    "fit_constant",
    "ratio_series",
    "is_sublinear_in",
]


def _safe_log2(x: float) -> float:
    return math.log2(max(x, 2.0))


#: The complexity bounds quoted in Theorems 1.1 / 1.2, keyed by a short name.
BOUNDS: Dict[str, Callable[[int, int], float]] = {
    "n": lambda n, m: float(n),
    "m": lambda n, m: float(m),
    "n_log_n": lambda n, m: n * _safe_log2(n),
    "n_log2_n_over_loglog_n": lambda n, m: n
    * _safe_log2(n) ** 2
    / max(_safe_log2(_safe_log2(n)), 1.0),
    "n_log_n_over_loglog_n": lambda n, m: n
    * _safe_log2(n)
    / max(_safe_log2(_safe_log2(n)), 1.0),
    "log_n_over_loglog_n": lambda n, m: _safe_log2(n)
    / max(_safe_log2(_safe_log2(n)), 1.0),
    "m_plus_n_log_n": lambda n, m: m + n * _safe_log2(n),
}


def bound_value(name: str, n: int, m: int) -> float:
    """Evaluate the named bound at ``(n, m)``."""
    try:
        return BOUNDS[name](n, m)
    except KeyError as exc:
        raise AlgorithmError(f"unknown bound {name!r}; known: {sorted(BOUNDS)}") from exc


@dataclass
class FitResult:
    """Constant-fit of measurements against a bound."""

    bound: str
    constants: List[float]
    mean_constant: float
    max_constant: float
    min_constant: float

    @property
    def spread(self) -> float:
        """max/min ratio of the implied constants — close to 1 means a good fit."""
        if self.min_constant == 0:
            return float("inf")
        return self.max_constant / self.min_constant


def fit_constant(
    sizes: Sequence[Tuple[int, int]], measurements: Sequence[float], bound: str
) -> FitResult:
    """Implied constants ``measurement / bound(n, m)`` for each data point."""
    if len(sizes) != len(measurements):
        raise AlgorithmError("sizes and measurements must have equal length")
    if not sizes:
        raise AlgorithmError("at least one data point is required")
    constants = [
        measurement / max(bound_value(bound, n, m), 1e-12)
        for (n, m), measurement in zip(sizes, measurements)
    ]
    return FitResult(
        bound=bound,
        constants=constants,
        mean_constant=sum(constants) / len(constants),
        max_constant=max(constants),
        min_constant=min(constants),
    )


def ratio_series(
    measurements: Sequence[float], references: Sequence[float]
) -> List[float]:
    """Pointwise ``measurement / reference`` (0 when the reference is 0)."""
    if len(measurements) != len(references):
        raise AlgorithmError("series must have equal length")
    return [
        (measurement / reference) if reference else 0.0
        for measurement, reference in zip(measurements, references)
    ]


def is_sublinear_in(
    measurements: Sequence[float],
    references: Sequence[float],
    shrink_factor: float = 0.75,
) -> bool:
    """Empirical o(·) check: does measurement/reference shrink along the series?

    Returns True iff the last ratio is at most ``shrink_factor`` times the
    first ratio — i.e. the measured quantity is growing strictly slower than
    the reference along the sampled sizes.
    """
    ratios = ratio_series(measurements, references)
    if len(ratios) < 2 or ratios[0] == 0:
        raise AlgorithmError("need at least two points with a non-zero first ratio")
    return ratios[-1] <= shrink_factor * ratios[0]
