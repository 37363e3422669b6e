"""Model-free diagnostics: per-period advantage measures.

The crude advantage for a pair of consecutive periods is the ratio of
their empirical odds ratios, (X_t/(N_t-X_t)) / (X_s/(N_s-X_s)), reduced
to a single period by the (t-s)-th root when the pair spans a gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import SurveillanceSeries
from .inference import advantage_interval


@dataclass(frozen=True)
class CrudeMeasure:
    """Empirical advantage for the period ending at t_index."""

    t_index: int
    value: float
    ci_low: float
    ci_high: float


def crude_gammas(series: SurveillanceSeries, level: float = 0.95) -> list[CrudeMeasure]:
    """One measure per pair of adjacent periods.

    Zero cells get the Haldane-Anscombe +0.5 correction on all four cells
    of the affected pair. The CI is a Wald interval on the log odds-ratio
    ratio with variance 1/a + 1/b + 1/c + 1/d, exponentiated.
    """
    t = series.t_values
    n, x = (column.tolist() for column in series.binomial_counts())
    out = []
    for i in range(1, len(t)):
        cells = [float(x[i]), float(n[i] - x[i]), float(x[i - 1]), float(n[i - 1] - x[i - 1])]
        if any(c == 0.0 for c in cells):
            cells = [c + 0.5 for c in cells]
        a, b, c, d = cells
        log_ratio = math.log(a / b) - math.log(c / d)
        value, low, high = advantage_interval(
            log_ratio, 1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d, 1.0 / (t[i] - t[i - 1]), level
        )
        out.append(CrudeMeasure(t_index=t[i], value=value, ci_low=low, ci_high=high))
    return out


def crude_mean(measures: list[CrudeMeasure]) -> float:
    """Arithmetic mean of the per-period measures' values."""
    return sum(m.value for m in measures) / len(measures)


def mean_crude_gamma(series: SurveillanceSeries) -> float:
    return crude_mean(crude_gammas(series))
