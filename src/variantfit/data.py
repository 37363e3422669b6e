"""Surveillance time series: one columnar count type, validation, CSV input/output."""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CountViolation, DuplicatePeriod, EmptySeries, InvalidValue, ParseError

CSV_HEADER = ["t", "label", "sequenced", "variant_count", "total_cases", "tested"]
# Variant names of a two-variant series; neither CSV schema for it stores names.
TWO_VARIANT_NAMES = ("incumbent", "variant")


def check_periods(t_values: Sequence[int], period_days: float) -> None:
    """Require at least 2 periods, period_days > 0 and distinct, increasing t."""
    if len(t_values) < 2:
        raise EmptySeries(f"need at least 2 periods, got {len(t_values)}")
    if not period_days > 0:
        raise InvalidValue(f"period_days must be positive, got {period_days}")
    for a, b in zip(t_values, t_values[1:]):
        if a == b:
            raise DuplicatePeriod(f"repeated t_index {a}")
        if a > b:
            raise InvalidValue("periods not sorted by t_index")


@dataclass(frozen=True, eq=False)
class SurveillanceSeries:
    """Per-period counts of m >= 2 variants, held as columns.

    Row i is period `t_values[i]`, the model time: data-driven rather than
    row position, so series with missing periods are representable. Column j
    of `counts` is variant j + 1; column 0 is the numeraire. `labels` are
    opaque period names (ISO week, date); no calendar arithmetic is done on
    them. `period_days` is the calendar length of one unit of t (7 for weekly
    data, 1 for daily). `total_cases` and `tested` hold one int or None per
    period ("not recorded" when not given).

    The two-variant series is the m = 2 case with columns (N - X, X): N
    sequenced cases of which X are the variant. `two_variant` builds it and
    `binomial_counts` reads (N, X) back.

    `counts` is a read-only integer copy of the array passed in, so the
    series is immutable and safe to share.
    """

    t_values: tuple[int, ...]
    labels: tuple[str, ...]
    counts: np.ndarray
    variant_names: tuple[str, ...]
    period_days: float = 7.0
    total_cases: Optional[tuple[Optional[int], ...]] = None
    tested: Optional[tuple[Optional[int], ...]] = None
    # Read-only model arrays, built once: t (T,) and counts (T, m) as floats.
    columns: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        check_periods(self.t_values, self.period_days)
        T = len(self.t_values)
        counts = np.array(self.counts)
        if counts.ndim != 2 or counts.shape[0] != T:
            raise InvalidValue("counts must be (T, m) with one row per period")
        if counts.shape[1] != len(self.variant_names):
            raise InvalidValue("one variant name per column required")
        if counts.shape[1] < 2:
            raise InvalidValue("need at least 2 variants")
        if counts.dtype.kind not in "iu":
            raise InvalidValue(f"counts must be integers, got dtype {counts.dtype}")
        if np.any(counts < 0):
            raise InvalidValue("counts must be non-negative")
        per_period = {"labels": self.labels, "total_cases": self.total_cases, "tested": self.tested}
        for name, values in per_period.items():
            if values is not None and len(values) != T:
                raise InvalidValue(f"need one of {name} per period, got {len(values)} for {T}")
        t_values = tuple(map(operator.index, self.t_values))  # TypeError unless integers
        t = np.array(t_values, dtype=float)
        model_counts = counts.astype(float)
        counts.flags.writeable = t.flags.writeable = model_counts.flags.writeable = False
        set_field = partial(object.__setattr__, self)
        set_field("t_values", t_values)
        set_field("labels", tuple(self.labels))
        set_field("counts", counts)
        set_field("variant_names", tuple(self.variant_names))
        set_field("total_cases", tuple(self.total_cases or (None,) * T))
        set_field("tested", tuple(self.tested or (None,) * T))
        set_field("columns", (t, model_counts))

    @classmethod
    def two_variant(cls, rows: Iterable[Sequence], period_days: float = 7.0) -> SurveillanceSeries:
        """The m = 2 series from rows (t, label, sequenced N, variant_count X,
        total_cases, tested), sorted by t, with count columns (N - X, X).

        total_cases and tested may be None. Each row is checked as it is read:
        CountViolation unless 0 <= X <= N <= total_cases and tested >= 0.
        """
        checked = []
        for row in rows:
            t, _, n, x, cases, tested = row
            if n < 0 or x < 0:
                raise CountViolation(f"negative count at t={t}: sequenced={n}, variant_count={x}")
            if x > n:
                raise CountViolation(f"variant_count {x} > sequenced {n} at t={t}")
            if cases is not None and (cases < 0 or n > cases):
                raise CountViolation(f"sequenced {n} > total_cases {cases} at t={t}")
            if tested is not None and tested < 0:
                raise CountViolation(f"negative tested count at t={t}")
            checked.append(row)
        checked.sort(key=lambda row: row[0])
        t, labels, n, x, cases, tested = zip(*checked) if checked else [()] * 6
        n, x = np.array(n, dtype=np.int64), np.array(x, dtype=np.int64)
        return cls(t, labels, np.column_stack([n - x, x]), TWO_VARIANT_NAMES, period_days,
                   cases, tested)

    def __len__(self) -> int:
        return len(self.t_values)

    def __eq__(self, other):
        if not isinstance(other, SurveillanceSeries):
            return NotImplemented
        names = ("t_values", "labels", "variant_names", "period_days", "total_cases", "tested")
        return all(getattr(self, f) == getattr(other, f) for f in names) and np.array_equal(
            self.counts, other.counts
        )

    @property
    def n_variants(self) -> int:
        return self.counts.shape[1]

    @property
    def totals(self) -> np.ndarray:
        """Cases counted per period, over all variants."""
        return self.counts.sum(axis=1)

    def binomial_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(N, X) per period: sequenced and variant counts of a two-variant series.

        InvalidValue unless the series has exactly two variants.
        """
        if self.n_variants != 2:
            raise InvalidValue(f"need a two-variant series, got {self.n_variants} variants")
        return self.totals, self.counts[:, 1]

    def select(self, periods=slice(None), variants=slice(None)) -> SurveillanceSeries:
        """The series restricted to some periods (rows) and variants (columns).

        Both are numpy indices: a slice, a boolean mask or positions.
        """
        rows = np.arange(len(self))[periods].tolist()
        columns = np.arange(self.n_variants)[variants].tolist()

        def pick(values, index):
            return tuple(values[i] for i in index)

        return SurveillanceSeries(
            t_values=pick(self.t_values, rows),
            labels=pick(self.labels, rows),
            counts=self.counts[np.ix_(rows, columns)],
            variant_names=pick(self.variant_names, columns),
            period_days=self.period_days,
            total_cases=pick(self.total_cases, rows),
            tested=pick(self.tested, rows),
        )


def _parse_optional_int(text: str, row_num: int, column: str) -> Optional[int]:
    text = text.strip()
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"row {row_num}: bad {column} value {text!r}") from None


def load_csv(path: str, period_days: float = 7.0) -> SurveillanceSeries:
    """Load the `t,label,sequenced,variant_count,total_cases,tested` schema."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return read_csv(fh, period_days=period_days)


def csv_rows(fh) -> Iterator[tuple[int, list[str]]]:
    """Yield the stripped header as row 1, then each non-blank row with its number.

    ParseError on an empty file, a row whose length differs from the header's,
    text that is not UTF-8 and malformed CSV.
    """
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file, expected a header row")
        yield 1, [h.strip() for h in header]
        for row_num, row in enumerate(reader, start=2):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"row {row_num}: expected {len(header)} fields, got {len(row)}")
            yield row_num, row
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from None


def read_csv(fh, period_days: float = 7.0) -> SurveillanceSeries:
    rows = csv_rows(fh)
    _, header = next(rows)
    if header != CSV_HEADER:
        raise ParseError(f"bad header {header!r}, expected {CSV_HEADER!r}")

    def parsed():
        # A generator, so each row is checked before the next one is parsed.
        for row_num, row in rows:
            t, n, x = (_parse_optional_int(row[i], row_num, CSV_HEADER[i]) for i in (0, 2, 3))
            if None in (t, n, x):
                raise ParseError(f"row {row_num}: t, sequenced and variant_count are required")
            if n < 0 or x < 0:
                raise ParseError(f"row {row_num}: negative count")
            cases, tested = (_parse_optional_int(row[i], row_num, CSV_HEADER[i]) for i in (4, 5))
            yield t, row[1].strip(), n, x, cases, tested

    return SurveillanceSeries.two_variant(parsed(), period_days=period_days)


def write_csv(series: SurveillanceSeries, fh) -> None:
    n, x = series.binomial_counts()
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    rows = zip(series.t_values, series.labels, n.tolist(), x.tolist(), series.total_cases,
               series.tested)
    for row in rows:
        writer.writerow(["" if value is None else value for value in row])


def to_csv_string(series: SurveillanceSeries) -> str:
    buf = io.StringIO()
    write_csv(series, buf)
    return buf.getvalue()
