"""Competition among m variants: simplex dynamics, fit with variance, CSV input/output.

Variant 1 is the numeraire (advantage fixed at 1). Proportions follow

    lam[j, t+1] = g[j] * lam[j, t] / sum_k g[k] * lam[k, t]

whose closed form is a multinomial-logistic curve with linear predictors
a_j + b_j * t (a_1 = b_1 = 0, b_j = log g_j). The m = 2 case collapses
to the binomial model exactly.
"""

from __future__ import annotations

import csv
import io
import operator
from typing import Optional, Sequence

import numpy as np

from .data import SurveillanceSeries, _open_text, csv_columns, int_column
from .errors import InvalidIndex, InvalidValue, ParseError
from .estimate import FitResult, fit
from .inference import VarianceEstimate, sandwich


def step_lambda_multi(
    lambdas: Sequence[float], gammas: Sequence[float]
) -> np.ndarray:
    """Advance simplex proportions one period; gammas exclude the numeraire."""
    lam = np.asarray(lambdas, dtype=float)
    g = np.concatenate([[1.0], np.asarray(gammas, dtype=float)])
    if len(g) != len(lam):
        raise InvalidValue("need one gamma per non-numeraire variant")
    if np.any(lam < 0) or abs(lam.sum() - 1.0) > 1e-9:
        raise InvalidValue("lambdas must be a probability simplex vector")
    weighted = g * lam
    return weighted / weighted.sum()


def fit_multi(
    series: SurveillanceSeries, bandwidth: Optional[int] = None
) -> tuple[FitResult, VarianceEstimate]:
    """The fit and its variance: Fisher or, given a bandwidth, HAC sandwich."""
    result = fit(series)
    return result, sandwich(result.information, result.scores, series.columns, bandwidth)


def marginalize(series: SurveillanceSeries, keep: tuple[int, int]) -> SurveillanceSeries:
    """Reduce to the two-variant series for 1-based variant indices (a, b).

    Variant b plays the emerging role: X_t = counts of b,
    N_t = counts of a + counts of b.
    """
    a, b = keep
    m = series.n_variants
    if a == b or not (1 <= a <= m) or not (1 <= b <= m):
        raise InvalidIndex(f"keep indices must be distinct and in 1..{m}, got {keep}")
    return series.select(variants=[a - 1, b - 1])


def read_multi_csv(fh, period_days: float = 7.0) -> SurveillanceSeries:
    """Schema: `t,label,count_<name1>,count_<name2>,...` with a header."""
    header, numbers, columns = csv_columns(fh)
    if len(header) < 4 or header[0] != "t" or header[1] != "label":
        raise ParseError(f"bad header {header!r}; expected t,label,count_*,...")
    names = []
    for col in header[2:]:
        if not col.startswith("count_"):
            raise ParseError(f"bad count column {col!r}; expected count_<variant>")
        names.append(col[len("count_"):])

    def fault(text):
        return "malformed integer"

    t_values = int_column(columns[0], numbers, fault)
    labels = list(map(str.strip, columns[1]))
    counts = np.array([int_column(cells, numbers, fault, count=True) for cells in columns[2:]],
                      dtype=np.int64).T
    if any(map(operator.gt, t_values, t_values[1:])):
        order = sorted(range(len(t_values)), key=t_values.__getitem__)
        t_values, labels = [t_values[i] for i in order], [labels[i] for i in order]
        counts = counts[order]
    return SurveillanceSeries(
        t_values=t_values,
        labels=labels,
        counts=np.ascontiguousarray(counts),
        variant_names=tuple(names),
        period_days=period_days,
    )


def load_multi_csv(source, period_days: float = 7.0) -> SurveillanceSeries:
    """Load the m-variant schema from a path or a binary file."""
    return read_multi_csv(_open_text(source), period_days=period_days)


def write_multi_csv(series: SurveillanceSeries, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["t", "label"] + [f"count_{n}" for n in series.variant_names])
    for i, (t, label) in enumerate(zip(series.t_values, series.labels)):
        writer.writerow([t, label] + [int(c) for c in series.counts[i]])


def to_multi_csv_string(series: SurveillanceSeries) -> str:
    buf = io.StringIO()
    write_multi_csv(series, buf)
    return buf.getvalue()
