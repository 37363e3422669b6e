"""Surveillance time series: records, validation, CSV input/output."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CountViolation, DuplicatePeriod, EmptySeries, InvalidValue, ParseError

CSV_HEADER = ["t", "label", "sequenced", "variant_count", "total_cases", "tested"]


@dataclass(frozen=True)
class ObservationRecord:
    """One period of sequencing surveillance.

    `t_index` is the model time, data-driven rather than row position, so
    series with missing periods are representable. `label` is an opaque
    period name (ISO week, date); no calendar arithmetic is done on it.
    """

    t_index: int
    label: str
    sequenced: int
    variant_count: int
    total_cases: Optional[int] = None
    tested: Optional[int] = None

    def __post_init__(self):
        if self.sequenced < 0 or self.variant_count < 0:
            raise CountViolation(
                f"negative count at t={self.t_index}: "
                f"sequenced={self.sequenced}, variant_count={self.variant_count}"
            )
        if self.variant_count > self.sequenced:
            raise CountViolation(
                f"variant_count {self.variant_count} > sequenced "
                f"{self.sequenced} at t={self.t_index}"
            )
        if self.total_cases is not None:
            if self.total_cases < 0 or self.sequenced > self.total_cases:
                raise CountViolation(
                    f"sequenced {self.sequenced} > total_cases "
                    f"{self.total_cases} at t={self.t_index}"
                )
        if self.tested is not None and self.tested < 0:
            raise CountViolation(f"negative tested count at t={self.t_index}")

    @property
    def proportion(self) -> float:
        """Empirical variant proportion X/N (nan for N=0)."""
        if self.sequenced == 0:
            return float("nan")
        return self.variant_count / self.sequenced


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


@dataclass(frozen=True)
class SurveillanceSeries:
    """Ordered, validated sequence of observation records.

    `period_days` is the calendar length of one unit of t_index
    (7 for weekly data, 1 for daily). Immutable; safe to share.
    """

    records: tuple[ObservationRecord, ...]
    period_days: float = 7.0

    def __post_init__(self):
        check_periods([r.t_index for r in self.records], self.period_days)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def t_values(self) -> list[int]:
        return [r.t_index for r in self.records]

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only model arrays, built once: t_index (T,) and counts (T, 2).

        The count columns are (N - X, X), incumbent first, so the two-variant
        model is the m = 2 case of the multinomial model.
        """
        t = np.array([r.t_index for r in self.records], dtype=float)
        counts = np.array(
            [(r.sequenced - r.variant_count, r.variant_count) for r in self.records],
            dtype=float,
        )
        t.flags.writeable = counts.flags.writeable = False
        return t, counts


def validate_series(
    raw: Iterable[ObservationRecord], period_days: float = 7.0
) -> SurveillanceSeries:
    """Sort records by t_index and build a validated series."""
    records = tuple(sorted(raw, key=lambda r: r.t_index))
    return SurveillanceSeries(records=records, period_days=period_days)


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
    records = []
    for row_num, row in rows:
        t_index = _parse_optional_int(row[0], row_num, "t")
        sequenced = _parse_optional_int(row[2], row_num, "sequenced")
        variant_count = _parse_optional_int(row[3], row_num, "variant_count")
        if None in (t_index, sequenced, variant_count):
            raise ParseError(f"row {row_num}: t, sequenced and variant_count are required")
        if sequenced < 0 or variant_count < 0:
            raise ParseError(f"row {row_num}: negative count")
        records.append(
            ObservationRecord(
                t_index=t_index,
                label=row[1].strip(),
                sequenced=sequenced,
                variant_count=variant_count,
                total_cases=_parse_optional_int(row[4], row_num, "total_cases"),
                tested=_parse_optional_int(row[5], row_num, "tested"),
            )
        )
    return validate_series(records, period_days=period_days)


def write_csv(series: SurveillanceSeries, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in series.records:
        writer.writerow(
            [
                r.t_index,
                r.label,
                r.sequenced,
                r.variant_count,
                "" if r.total_cases is None else r.total_cases,
                "" if r.tested is None else r.tested,
            ]
        )


def to_csv_string(series: SurveillanceSeries) -> str:
    buf = io.StringIO()
    write_csv(series, buf)
    return buf.getvalue()
