"""Surveillance time series: one columnar count type, validation, CSV input/output."""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, repeat
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CountViolation, DuplicatePeriod, EmptySeries, InvalidValue, ParseError

CSV_HEADER = ["t", "label", "sequenced", "variant_count", "total_cases", "tested"]
# Variant names of a two-variant series; neither CSV schema for it stores names.
TWO_VARIANT_NAMES = ("incumbent", "variant")
REQUIRED = "t, sequenced and variant_count are required"
# Largest |t_index|: the model time is a float, and above 2**53 distinct
# integers can round to one float.
MAX_T = 2**53


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


def _raise_count_violation(t, n, x, cases, tested) -> None:
    """CountViolation for the first row whose counts break 0 <= X <= N <= total_cases
    or tested >= 0; total_cases and tested may be None."""
    for t, n, x, cases, tested in zip(t, n, x, cases, tested):
        if n < 0 or x < 0:
            raise CountViolation(f"negative count at t={t}: sequenced={n}, variant_count={x}")
        if x > n:
            raise CountViolation(f"variant_count {x} > sequenced {n} at t={t}")
        if cases is not None and (cases < 0 or n > cases):
            raise CountViolation(f"sequenced {n} > total_cases {cases} at t={t}")
        if tested is not None and tested < 0:
            raise CountViolation(f"negative tested count at t={t}")


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
        if max(-t_values[0], t_values[-1]) > MAX_T:
            raise InvalidValue(f"t_index must lie within -2**53..2**53, where floats hold every "
                               f"integer; got {t_values[0]}..{t_values[-1]}")
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

        total_cases and tested may be None. CountViolation unless
        0 <= X <= N <= total_cases and tested >= 0; the columns are checked
        whole, and the first row at fault is looked for only when one is.
        """
        columns = tuple(zip(*rows)) or ((),) * 6
        t, labels, n, x, cases, tested = columns
        cases_given = list(map(operator.is_not, cases, repeat(None)))
        tested_given = map(operator.is_not, tested, repeat(None))
        if (
            min(n, default=0) < 0
            or min(x, default=0) < 0
            or any(map(operator.gt, x, n))
            # With N >= 0, N > total_cases also catches a negative total_cases.
            or any(map(operator.gt, compress(n, cases_given), compress(cases, cases_given)))
            or min(compress(tested, tested_given), default=0) < 0
        ):
            _raise_count_violation(t, n, x, cases, tested)
        if any(map(operator.gt, t, t[1:])):
            order = sorted(range(len(t)), key=t.__getitem__)
            t, labels, n, x, cases, tested = ([column[i] for i in order] for column in columns)
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


def _open_text(source) -> io.TextIOWrapper:
    """The text of a CSV path or binary file: UTF-8, a byte-order mark dropped.

    A file is read whole and left open; the text decodes as it is read.
    """
    if not hasattr(source, "read"):
        with open(source, "rb") as fh:
            return _open_text(fh)
    return io.TextIOWrapper(io.BytesIO(source.read()), encoding="utf-8-sig", newline="")


def load_csv(source, period_days: float = 7.0) -> SurveillanceSeries:
    """Load the `t,label,sequenced,variant_count,total_cases,tested` schema
    from a path or a binary file."""
    return read_csv(_open_text(source), period_days=period_days)


def csv_columns(fh) -> tuple[list[str], Sequence[int], list[tuple[str, ...]]]:
    """The stripped header, the file row number of each non-blank data row
    (the header is row 1), and those rows' cells as one tuple per column.

    ParseError on an empty file, a row whose length differs from the header's,
    text that is not UTF-8 and malformed CSV.
    """
    try:
        rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from None
    if not rows:
        raise ParseError("empty file, expected a header row")
    header = [h.strip() for h in rows[0]]
    del rows[0]
    numbers = range(2, len(rows) + 2)
    # A row is blank when its joined cells are whitespace; blank rows are skipped.
    if not all(map(str.strip, map("".join, rows))):
        kept = [i for i, row in enumerate(rows) if "".join(row).strip()]
        numbers, rows = [numbers[i] for i in kept], [rows[i] for i in kept]
    width = len(header)
    if list(map(len, rows)).count(width) != len(rows):
        number, row = next((n, row) for n, row in zip(numbers, rows) if len(row) != width)
        raise ParseError(f"row {number}: expected {width} fields, got {len(row)}")
    return header, numbers, list(zip(*rows)) or [()] * width


def int_column(
    cells: Sequence[str],
    numbers: Sequence[int],
    fault: Callable[[str], str],
    optional: bool = False,
    count: bool = False,
) -> list:
    """One CSV column's cells as ints, ignoring surrounding whitespace.

    A blank cell of an optional column is None. A count column must not be
    negative. ParseError names the first row at fault, with `fault(text)` for
    a cell whose stripped text is not an integer and "negative count" for a
    negative count; the row is looked for only once the column has failed.
    """
    try:
        if not optional:
            values = list(map(int, cells))
        elif any(texts := list(map(str.strip, cells))):
            values = [int(text) if text else None for text in texts]
        else:
            values = [None] * len(cells)
    except ValueError:
        # int() keeps some characters that str.strip() removes, so a cell
        # is at fault only if its stripped text fails too.
        values = []
        for number, cell in zip(numbers, cells):
            text = cell.strip()
            try:
                values.append(int(text) if text or not optional else None)
            except ValueError:
                raise ParseError(f"row {number}: {fault(text)}") from None
    if count and min(values, default=0) < 0:
        number = next(n for n, value in zip(numbers, values) if value < 0)
        raise ParseError(f"row {number}: negative count")
    return values


def read_csv(fh, period_days: float = 7.0) -> SurveillanceSeries:
    header, numbers, columns = csv_columns(fh)
    if header != CSV_HEADER:
        raise ParseError(f"bad header {header!r}, expected {CSV_HEADER!r}")

    def fault(name):
        return lambda text: f"bad {name} value {text!r}" if text else REQUIRED

    t, labels, n, x, cases, tested = columns
    t = int_column(t, numbers, fault("t"))
    n = int_column(n, numbers, fault("sequenced"), count=True)
    x = int_column(x, numbers, fault("variant_count"), count=True)
    cases = int_column(cases, numbers, fault("total_cases"), optional=True)
    tested = int_column(tested, numbers, fault("tested"), optional=True)
    rows = zip(t, map(str.strip, labels), n, x, cases, tested)
    return SurveillanceSeries.two_variant(rows, period_days=period_days)


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
