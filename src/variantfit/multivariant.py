"""Competition among m variants: the fit with its variance, CSV input/output.

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

import numpy as np

from .data import SurveillanceSeries, _open_text, csv_columns, int_column
from .errors import ParseError
from .estimate import FitResult, fit
from .inference import VarianceEstimate, sandwich


def fit_multi(
    series: SurveillanceSeries, bandwidth: int | None = None
) -> tuple[FitResult, VarianceEstimate]:
    """`sandwich(fit(series), bandwidth)`; kept because the benchmark calls and traces it."""
    result = fit(series)
    return result, sandwich(result, bandwidth)


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


def to_multi_csv_string(series: SurveillanceSeries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "label"] + [f"count_{n}" for n in series.variant_names])
    for i, (t, label) in enumerate(zip(series.t_values, series.labels)):
        writer.writerow([t, label] + [int(c) for c in series.counts[i]])
    return buf.getvalue()
