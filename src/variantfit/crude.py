"""Model-free diagnostics: per-period advantage measures and proportion CIs.

The crude advantage for a pair of consecutive periods is the ratio of
their empirical odds ratios, (X_t/(N_t-X_t)) / (X_s/(N_s-X_s)), reduced
to a single period by the (t-s)-th root when the pair spans a gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import SurveillanceSeries
from .inference import normal_quantile


@dataclass(frozen=True)
class CrudeMeasure:
    """Empirical advantage for the period ending at t_index."""

    t_index: int
    value: float
    ci_low: float
    ci_high: float


def crude_gammas(series: SurveillanceSeries, level: float = 0.95) -> list[CrudeMeasure]:
    """One measure per adjacent record pair.

    Zero cells get the Haldane-Anscombe +0.5 correction on all four cells
    of the affected pair. The CI is a Wald interval on the log odds-ratio
    ratio with variance 1/a + 1/b + 1/c + 1/d, exponentiated.
    """
    z = normal_quantile(level)
    out = []
    for prev, cur in zip(series.records, series.records[1:]):
        cells = [
            float(cur.variant_count),
            float(cur.sequenced - cur.variant_count),
            float(prev.variant_count),
            float(prev.sequenced - prev.variant_count),
        ]
        if any(c == 0.0 for c in cells):
            cells = [c + 0.5 for c in cells]
        a, b, c, d = cells
        log_ratio = math.log(a / b) - math.log(c / d)
        se = math.sqrt(1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d)
        dt = cur.t_index - prev.t_index
        out.append(
            CrudeMeasure(
                t_index=cur.t_index,
                value=math.exp(log_ratio / dt),
                ci_low=math.exp((log_ratio - z * se) / dt),
                ci_high=math.exp((log_ratio + z * se) / dt),
            )
        )
    return out


def crude_mean(measures: list[CrudeMeasure]) -> float:
    """Arithmetic mean of the per-period measures' values."""
    return sum(m.value for m in measures) / len(measures)


def mean_crude_gamma(series: SurveillanceSeries) -> float:
    return crude_mean(crude_gammas(series))


def proportion_intervals(
    series: SurveillanceSeries, level: float = 0.95
) -> list[tuple[int, float, float, float]]:
    """Wilson score interval for each period's empirical proportion."""
    z = normal_quantile(level)
    out = []
    for r in series.records:
        n = r.sequenced
        if n == 0:
            continue
        p = r.variant_count / n
        denom = 1.0 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        out.append((r.t_index, p, max(center - half, 0.0), min(center + half, 1.0)))
    return out
