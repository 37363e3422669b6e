"""Model-free diagnostics: per-period advantage measures.

The crude advantage for a pair of consecutive periods is the ratio of
their empirical odds ratios, (X_t/(N_t-X_t)) / (X_s/(N_s-X_s)), reduced
to a single period by the (t-s)-th root when the pair spans a gap.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .data import SurveillanceSeries
from .inference import DEFAULT_LEVEL, advantage_interval


def crude_gammas(
    series: SurveillanceSeries, level: float = DEFAULT_LEVEL
) -> tuple[tuple[int, ...], list[float], list[float], list[float]]:
    """One measure per pair of adjacent periods, as four columns: the t of
    the pair's later period, the measure, and its interval's low and high ends.

    Zero cells get the Haldane-Anscombe +0.5 correction on all four cells
    of the affected pair. The CI is a Wald interval on the log odds-ratio
    ratio with variance 1/a + 1/b + 1/c + 1/d, exponentiated.
    """
    t, _ = series.columns
    n, x = series.binomial_counts()
    # Row i: the variant and the other cases in period i + 1, then in period i.
    cells = np.column_stack([x[1:], n[1:] - x[1:], x[:-1], n[:-1] - x[:-1]]).astype(float)
    cells += 0.5 * reduce(np.logical_or, (cells == 0.0).T)[:, None]  # whole-column ors
    a, b, c, d = cells.T
    # math.log, not np.log, which can differ from it in the last bit.
    log_odds = [list(map(math.log, odds.tolist())) for odds in (a / b, c / d)]
    log_ratio = np.subtract(*log_odds)
    variance = 1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d
    return (series.t_values[1:], *advantage_interval(log_ratio, variance, 1.0 / np.diff(t), level))
