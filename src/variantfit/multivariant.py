"""The m-variant CSV schema: `t,label,count_<name1>,count_<name2>,...`,
read into and written from a `SurveillanceSeries` (the model is in
`dynamics`' docstring)."""

from __future__ import annotations

import numpy as np

from .data import SurveillanceSeries, csv_columns, csv_text, int_columns
from .errors import ParseError


def load_multi_csv(source, period_days: float = 7.0) -> SurveillanceSeries:
    """Load the `t,label,count_<name1>,count_<name2>,...` schema, with its
    header, from a path or a binary file."""
    header, numbers, columns = csv_columns(source)
    if len(header) < 4 or header[0] != "t" or header[1] != "label":
        raise ParseError(f"bad header {header!r}; expected t,label,count_*,...")
    for col in header[2:]:
        if not col.startswith("count_"):
            raise ParseError(f"bad count column {col!r}; expected count_<variant>")

    def fault(text):
        return "malformed integer"

    t, counts = int_columns([columns[0], *columns[2:]], numbers, [fault] * (len(header) - 1))
    return SurveillanceSeries(
        t_values=t,
        labels=list(map(str.strip, columns[1])),
        counts=np.asarray(counts, dtype=np.int64).T,
        variant_names=tuple(col[len("count_"):] for col in header[2:]),
        period_days=period_days,
    )


def to_multi_csv_string(series: SurveillanceSeries) -> str:
    header = ["t", "label"] + [f"count_{name}" for name in series.variant_names]
    return csv_text(header, zip(series.t_values, series.labels, *series.counts.T.tolist()))
