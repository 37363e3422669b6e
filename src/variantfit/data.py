"""Surveillance time series: one columnar count type, validation, CSV input/output."""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import compress, repeat
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import CountViolation, DuplicatePeriod, EmptySeries, InvalidValue, ParseError

CSV_HEADER = ["t", "label", "sequenced", "variant_count", "total_cases", "tested"]
# Variant names of a two-variant series; neither CSV schema for it stores names.
TWO_VARIANT_NAMES = ("incumbent", "variant")
REQUIRED = "t, sequenced and variant_count are required"
# Largest |t_index| and the bound on the span t_T - t_1: the model time is a
# float, and above 2**53 distinct integers can round to one float.
MAX_T = 2**53


def check_periods(t_values: Sequence[int], period_days: float,
                  ascending: bool = False) -> Optional[list[int]]:
    """Require at least 2 periods, a finite period_days > 0 and distinct t.
    None when t increases (or `ascending` says it does), else the stable
    order of positions that sorts t."""
    if len(t_values) < 2:
        raise EmptySeries(f"need at least 2 periods, got {len(t_values)}")
    if not 0 < period_days < math.inf:
        raise InvalidValue(f"period_days must be finite and positive, got {period_days}")
    if ascending or all(map(operator.lt, t_values, t_values[1:])):
        return None
    order = sorted(range(len(t_values)), key=t_values.__getitem__)
    for i, j in zip(order, order[1:]):
        if t_values[i] == t_values[j]:
            raise DuplicatePeriod(f"repeated t_index {t_values[i]}")
    return order


def _raise_count_violation(t, n, x, cases, tested) -> None:
    """CountViolation for the first row whose counts break 0 <= X <= N <= total_cases
    or tested >= 0. total_cases and tested are None where not recorded, and X
    is None in the rows of a series, which has no one variant count to check."""
    for t, n, x, cases, tested in zip(t, n, x, cases, tested):
        if x is not None and (n < 0 or x < 0):
            raise CountViolation(f"negative count at t={t}: sequenced={n}, variant_count={x}")
        if x is not None and x > n:
            raise CountViolation(f"variant_count {x} > sequenced {n} at t={t}")
        if cases is not None and (cases < 0 or n > cases):
            raise CountViolation(f"sequenced {n} > total_cases {cases} at t={t}")
        if tested is not None and tested < 0:
            raise CountViolation(f"negative tested count at t={t}")


def _check_recorded(t_values, counts, total_cases, tested) -> None:
    """CountViolation unless each period's cases, summed over its variants,
    are at most its total_cases and its tested count is >= 0. A None item is
    not recorded, and a column that count(None) shows blank is skipped; the
    first row at fault is looked for only when a column fails."""
    T = len(t_values)
    fault = False
    if total_cases.count(None) < T:
        n = counts.sum(axis=1).tolist()
        given = list(map(operator.is_not, total_cases, repeat(None)))
        # n > total_cases also catches a negative total_cases, as n >= 0 (or is refused).
        fault = any(map(operator.gt, compress(n, given), compress(total_cases, given)))
    if tested.count(None) < T:
        fault = fault or min(compress(tested, map(operator.is_not, tested, repeat(None)))) < 0
    if fault:
        _raise_count_violation(t_values, counts.sum(axis=1).tolist(), repeat(None), total_cases,
                               tested)


def _pick(values: Sequence, index: Sequence[int]) -> tuple:
    """The items of `values` at the positions in `index`, as a tuple."""
    if len(index) > 1:
        return operator.itemgetter(*index)(values)
    return tuple(values[i] for i in index)  # itemgetter of one position returns the item


@dataclass(frozen=True, eq=False)
class SurveillanceSeries:
    """Per-period counts of m >= 2 variants, held as columns.

    Row i is period `t_values[i]`: data-driven rather than row position, so
    series with missing periods are representable. Every series sorts its
    periods by t, however it is built; each row's fields move with it. Column
    j of `counts` is variant j + 1; column 0 is the numeraire. `labels` are
    opaque period names (ISO week, date); no calendar arithmetic is done on
    them. `period_days` is the calendar length of one unit of t (7 for weekly
    data, 1 for daily). `total_cases` and `tested` hold one int or None per
    period ("not recorded" when not given). CountViolation unless a period's
    cases over all variants are at most its total_cases and its tested count
    is >= 0, however the series is built.

    The two-variant series is the m = 2 case with columns (N - X, X): N
    sequenced cases of which X are the variant. `from_binomial_columns` builds
    it, and `binomial_counts` reads (N, X) back.

    `counts` is a read-only, C-ordered integer copy of the array passed in, so
    the series is immutable and safe to share. Variant names must be distinct.

    `columns` are the model's arrays: the model time t - `origin`, which starts
    at 1 (date-code t such as 202045 is too ill-conditioned to fit), and `counts`
    itself; |t| <= 2**53 and a span below 2**53 keep every period exact in it.
    """

    t_values: tuple[int, ...]
    labels: tuple[str, ...]
    counts: np.ndarray
    variant_names: tuple[str, ...]
    period_days: float = 7.0
    total_cases: Optional[tuple[Optional[int], ...]] = None
    tested: Optional[tuple[Optional[int], ...]] = None
    # Read-only model arrays: model time (T,) and counts (T, m).
    columns: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    origin: int = field(init=False, repr=False)  # t_1 - 1: the user's t at model time 0

    def __post_init__(self):
        t_in = self.t_values
        T = len(t_in)
        per_period = {"labels": self.labels, "total_cases": self.total_cases, "tested": self.tested}
        for name, values in per_period.items():
            if values is not None and len(values) != T:
                raise InvalidValue(f"need one of {name} per period, got {len(values)} for {T}")
        counts = np.array(self.counts, order="C")
        total_cases, tested = self.total_cases or (None,) * T, self.tested or (None,) * T
        if counts.ndim == 2 and len(counts) == T:  # else refused below, once T >= 2
            _check_recorded(t_in, counts, total_cases, tested)
        # A 1-D int64 array of t, as the CSV readers and select give, is checked as one.
        vector = isinstance(t_in, np.ndarray) and t_in.dtype == np.int64 and t_in.ndim == 1
        order = check_periods(t_in, self.period_days, vector and (t_in[1:] > t_in[:-1]).all())
        if counts.ndim != 2 or counts.shape[0] != T:
            raise InvalidValue("counts must be (T, m) with one row per period")
        if counts.shape[1] != len(self.variant_names):
            raise InvalidValue("one variant name per column required")
        if counts.shape[1] < 2:
            raise InvalidValue("need at least 2 variants")
        if len(set(self.variant_names)) < len(self.variant_names):
            raise InvalidValue(f"variant names must be distinct, got {self.variant_names!r}")
        if counts.dtype.kind not in "iu":
            raise InvalidValue(f"counts must be integers, got dtype {counts.dtype}")
        if np.any(counts < 0):
            raise InvalidValue("counts must be non-negative")
        # operator.index raises TypeError unless every t is an integer.
        t_values = tuple(t_in.tolist() if vector else map(operator.index, t_in))
        per_row = {"t_values": t_values, "labels": self.labels,
                   "total_cases": total_cases, "tested": tested}
        if order is not None:
            per_row = {name: _pick(values, order) for name, values in per_row.items()}
            counts = counts[order]
        t_values = per_row["t_values"]
        if max(-t_values[0], t_values[-1]) > MAX_T or t_values[-1] - t_values[0] >= MAX_T:
            raise InvalidValue(f"t_index must lie within -2**53..2**53 and span less than 2**53 "
                               f"periods, where floats hold every integer; "
                               f"got {t_values[0]}..{t_values[-1]}")
        t = t_in.astype(float) if vector and order is None else np.array(t_values, dtype=float)
        t = t - t_values[0] + 1  # exact within those bounds
        counts.flags.writeable = t.flags.writeable = False
        set_field = partial(object.__setattr__, self)
        for name, values in per_row.items():
            set_field(name, tuple(values))
        set_field("counts", counts)
        set_field("variant_names", tuple(self.variant_names))
        set_field("columns", (t, counts))
        set_field("origin", t_values[0] - 1)

    @classmethod
    def from_binomial_columns(
        cls,
        t: Sequence[int],
        labels: Sequence[str],
        n: Sequence[int],
        x: Sequence[int],
        total_cases: Sequence[Optional[int]],
        tested: Sequence[Optional[int]],
        period_days: float = 7.0,
    ) -> SurveillanceSeries:
        """The m = 2 series from one column per field, one item per period in
        any order of t: N sequenced cases of which X are the variant. The
        count columns are (N - X, X); the series sorts the periods by t.

        total_cases and tested items may be None; the series checks them.
        CountViolation unless 0 <= X <= N; the columns are checked whole, and
        the first row at fault, for any of the series' count checks, is looked
        for only when one is. int64 arrays, as `load_csv` reads them, are
        checked as arrays. Other N and X are compared as Python objects, so a
        string or None among them raises TypeError and an int beyond int64 is
        compared exactly before the int64 copy refuses it with OverflowError.
        """
        # X >= 0 and N >= X also rule out a negative N.
        if not all(isinstance(v, np.ndarray) and v.dtype == np.int64 for v in (n, x)):
            if min(x, default=0) < 0 or any(map(operator.gt, x, n)):
                _raise_count_violation(t, n, x, total_cases, tested)
            n, x = np.asarray(n, dtype=np.int64), np.asarray(x, dtype=np.int64)
        rest = n - x
        # One reduction; N joins X and N - X, as N - X wraps round for N near -2**63.
        if np.minimum(np.minimum(x, rest), n).min(initial=0) < 0:
            _raise_count_violation(t, n, x, total_cases, tested)
        return cls(t, labels, np.column_stack([rest, x]), TWO_VARIANT_NAMES, period_days,
                   total_cases, tested)

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
        """Cases counted per period, over all variants, as whole-column adds
        in the 64-bit integer type that `counts.sum(axis=1)` gives."""
        first, *rest = self.counts.T
        wide = np.uint64 if first.dtype.kind == "u" else np.int64
        return reduce(np.add, rest, first.astype(wide))

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
        index = np.arange(len(self))[periods]
        columns = np.arange(self.n_variants)[variants]
        pick = operator.itemgetter(periods) if isinstance(periods, slice) else partial(
            _pick, index=index.tolist())
        return SurveillanceSeries(
            t_values=self.columns[0].astype(np.int64)[index] + self.origin,
            labels=pick(self.labels),
            counts=self.counts[index][:, columns],
            variant_names=_pick(self.variant_names, columns.tolist()),
            period_days=self.period_days,
            total_cases=pick(self.total_cases),
            tested=pick(self.tested),
        )


def _open_text(source) -> str:
    """The text of a CSV path or binary file: UTF-8, a byte-order mark dropped.

    A file is read whole and left open. ParseError unless the bytes are UTF-8.
    """
    if not hasattr(source, "read"):
        with open(source, "rb") as fh:
            return _open_text(fh)
    try:
        return source.read().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None


def _split_columns(text: str) -> Optional[tuple[list[str], range, list[list[str]]]]:
    """What `csv_columns` gives for text that csv.reader would cut only at
    commas and newlines, or None for other text.

    That text has no quote, NUL or CR other than in CRLF line ends, a
    non-empty header line, at least one data line, no line longer than the
    field limit, as many commas on every data line as on the header, and no
    blank first cell (which may be a blank row) once the empty lines that end
    the text are dropped. The reader ends a line at CRLF as at LF, so CRLF is
    made LF first.

    The data lines are cut with one split, each line break its own "\\n" cell.
    That gives rows * (width + 1) - 1 cells with a "\\n" after every width
    cells exactly when each of the rows lines has width - 1 commas: the first
    line with another count moves every later "\\n" off that grid. Column k
    is every (width + 1)-th cell from k.
    """
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    head, _, body = text.partition("\n")
    body = body.rstrip("\n")  # the last line's newline, or empty rows the reader skips
    if not head or not body:
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, text.split("\n"))) > limit:
        return None
    header = [h.strip() for h in head.split(",")]
    width, rows = len(header), body.count("\n") + 1
    cells = body.replace("\n", ",\n,").split(",")
    if len(cells) != rows * (width + 1) - 1 or cells[width::width + 1].count("\n") != rows - 1:
        return None
    columns = [cells[k::width + 1] for k in range(width)]
    if not all(map(str.strip, columns[0])):
        return None
    return header, range(2, rows + 2), columns


def csv_columns(source) -> tuple[list[str], Sequence[int], list[Sequence[str]]]:
    """The stripped header, the file row number of each non-blank data row
    (the header is row 1), and those rows' cells as one sequence per column,
    of the CSV at a path or in a binary file.

    Text that csv.reader would cut only at commas and newlines (no quote, NUL
    or lone CR; lines end in \\n or \\r\\n), with as many commas on every
    data line as on the header and no blank first cell, is
    cut with one `str.split` (`_split_columns`), which gives the reader's
    result with the columns as lists. All other text goes through csv.reader
    in the excel dialect: fields may be double-quoted, and lines may end in
    \\n, \\r\\n or \\r.

    ParseError on an empty file, a row whose length differs from the header's,
    text that is not UTF-8 and malformed CSV.
    """
    text = _open_text(source)
    split = _split_columns(text)
    if split is not None:
        return split
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from None
    if not rows:
        raise ParseError("empty file, expected a header row")
    header = [h.strip() for h in rows[0]]
    del rows[0]
    numbers = range(2, len(rows) + 2)
    width = len(header)
    columns = list(zip(*rows)) if list(map(len, rows)).count(width) == len(rows) else None
    # A row is blank when its joined cells are whitespace; blank rows are
    # skipped. A blank row has another width or a blank first cell, so rows
    # are joined to look for blank ones only when some row has either.
    if columns is None or columns and not all(map(str.strip, columns[0])):
        kept = [i for i, row in enumerate(rows) if "".join(row).strip()]
        numbers, rows = [numbers[i] for i in kept], [rows[i] for i in kept]
        if list(map(len, rows)).count(width) != len(rows):
            number, row = next((n, row) for n, row in zip(numbers, rows) if len(row) != width)
            raise ParseError(f"row {number}: expected {width} fields, got {len(row)}")
        columns = list(zip(*rows))
    return header, numbers, columns or [()] * width


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
        elif "".join(cells).strip():  # some cell is not blank
            values = [int(text) if text else None for text in map(str.strip, cells)]
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


# What `int_columns` hands to np.loadtxt: digits, signs, spaces and the commas
# that join the cells. Over these, loadtxt reads a cell as int() does. Beyond
# ASCII it does not: numpy 2.4 reads "Ǿ5" as 4625, and a sweep of astral-plane
# characters crashed the process.
_PLAIN_INTEGER_TEXT = b"0123456789+- ,"


def int_columns(
    columns: Sequence[Sequence[str]],
    numbers: Sequence[int],
    faults: Sequence[Callable[[str], str]],
) -> tuple[Sequence[int], Sequence[Sequence[int]]]:
    """A file's required integer columns, as `int_column` reads them: t's
    cells, then one or more count columns, each with its `faults` entry.
    Returns t and the counts as one sequence per column.

    One `np.loadtxt` call reads every cell, joined by commas into one line,
    when the line holds only `_PLAIN_INTEGER_TEXT`: the call refuses an empty
    cell and a value beyond int64, and a cell with a comma gives more values
    than cells. Then t is an int64 array and the counts one (k, T) int64
    array, unless one is negative. Any other cells go through `int_column` a
    column at a time, in order, so the first column at fault is named, and t
    and the counts are lists.
    """
    size = len(columns) * len(numbers)
    text = ",".join(map(",".join, columns))
    plain = text.isascii() and not text.encode("ascii").translate(None, _PLAIN_INTEGER_TEXT)
    if plain and size > 1:  # loadtxt warns on no data, and gives one value as a 0-d array
        try:
            values = np.loadtxt([text], dtype=np.int64, comments=None, delimiter=",")
        except ValueError:
            values = None
        if values is not None and values.shape == (size,):
            values = values.reshape(len(columns), -1)
            if values[1:].min() >= 0:
                return values[0], values[1:]
    return int_column(columns[0], numbers, faults[0]), [
        int_column(cells, numbers, fault, count=True)
        for cells, fault in zip(columns[1:], faults[1:])]


def load_csv(source, period_days: float = 7.0) -> SurveillanceSeries:
    """Load the `t,label,sequenced,variant_count,total_cases,tested` schema
    from a path or a binary file."""
    header, numbers, columns = csv_columns(source)
    if header != CSV_HEADER:
        raise ParseError(f"bad header {header!r}, expected {CSV_HEADER!r}")

    def fault(name):
        return lambda text: f"bad {name} value {text!r}" if text else REQUIRED

    t, labels, n, x, cases, tested = columns
    t, (n, x) = int_columns([t, n, x], numbers,
                            [fault("t"), fault("sequenced"), fault("variant_count")])
    return SurveillanceSeries.from_binomial_columns(
        t,
        list(map(str.strip, labels)),
        n,
        x,
        int_column(cases, numbers, fault("total_cases"), optional=True),
        int_column(tested, numbers, fault("tested"), optional=True),
        period_days=period_days,
    )


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The CSV text of a header and rows, a None cell written empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def to_csv_string(series: SurveillanceSeries) -> str:
    n, x = series.binomial_counts()
    return csv_text(CSV_HEADER, zip(series.t_values, series.labels, n.tolist(), x.tolist(),
                                    series.total_cases, series.tested))
