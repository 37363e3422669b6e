import csv
import io
import math
import operator
import random
import re
import warnings

import numpy as np
import pytest

from variantfit import data
from variantfit.data import REQUIRED, SurveillanceSeries, csv_columns, load_csv, to_csv_string
from variantfit.datasets import load_bundled
from variantfit.multivariant import load_multi_csv, to_multi_csv_string
from variantfit.simulation import SimConfig, simulate
from variantfit.errors import (
    CountViolation,
    DuplicatePeriod,
    EmptySeries,
    InvalidValue,
    ParseError,
    UnknownDataset,
)

def from_rows(rows, period_days=7.0):
    """The two-variant series of rows (t, label, N, X, total_cases, tested)."""
    return SurveillanceSeries.from_binomial_columns(*zip(*rows), period_days=period_days)


def text_file(text):
    """A binary file holding the text, as the CSV loaders take one."""
    return io.BytesIO(text.encode())


def rec(t, n, x, total_cases=None, tested=None):
    return (t, f"t{t}", n, x, total_cases, tested)


def period(series, label):
    """(N, X) of the period with this label."""
    n, x = series.binomial_counts()
    i = series.labels.index(label)
    return int(n[i]), int(x[i])


def test_validate_sorts_and_accepts():
    series = from_rows([rec(3, 10, 1), rec(1, 20, 2), rec(2, 30, 3)], 7.0)
    assert series.t_values == (1, 2, 3)
    assert series.period_days == 7.0


def test_single_record_rejected():
    with pytest.raises(EmptySeries):
        from_rows([rec(1, 10, 1)], 7.0)


def test_count_violation():
    with pytest.raises(CountViolation):
        from_rows([rec(1, 3, 5)])
    with pytest.raises(CountViolation):
        from_rows([rec(1, 10, 1, total_cases=5)])
    with pytest.raises(CountViolation):
        from_rows([(1, "", -1, 0, None, None)])


@pytest.mark.parametrize("t", [[2**53 - 1, 2**53, 2**53 + 1], [-(2**53) - 1, 0, 1],
                               [10**17, 10**17 + 1, 10**17 + 2],
                               # Spans of 2**53 or more: [-2**53, 2**53 - 1, 2**53]
                               # would give its last two periods one model time.
                               [-(2**53), 0, 2**53], [-(2**53), 2**53 - 1, 2**53],
                               [0, 2**53], [-(2**53), 0]])
def test_periods_beyond_float_precision_are_refused(t):
    # The model time is a float: above 2**53 distinct t can become one float.
    with pytest.raises(InvalidValue, match="2\\*\\*53"):
        from_rows([rec(v, 100, 10) for v in t])
    with pytest.raises(InvalidValue):
        load_multi_csv(text_file("t,label,count_a,count_b\n"
                                   + "".join(f"{v},p,90,10\n" for v in t)))


@pytest.mark.parametrize("t, model_time", [
    ([2**53 - 2, 2**53 - 1, 2**53], [1, 2, 3]),
    ([-(2**53), -(2**53) + 1, -(2**53) + 5], [1, 2, 6]),
    ([-(2**53), -1], [1, 2**53]),
    ([1, 2, 2**53], [1, 2, 2**53]),
])
def test_periods_up_to_float_precision_are_kept_exactly(t, model_time):
    # Out to |t| = 2**53, and over a span below 2**53, the model time
    # t - t_1 + 1 holds every period exactly.
    series = from_rows([rec(v, 100, 10 * i) for i, v in enumerate(t)])
    assert series.t_values == tuple(t)
    assert series.origin == t[0] - 1
    assert series.columns[0].tolist() == [float(v) for v in model_time]


def test_duplicate_period():
    with pytest.raises(DuplicatePeriod):
        from_rows([rec(1, 10, 1), rec(1, 20, 2)], 7.0)
    with pytest.raises(DuplicatePeriod, match="^repeated t_index 3$"):
        three_variant(np.ones((3, 3), dtype=int), t_values=(3, 1, 3))


def test_bundled_shapes():
    assert len(load_bundled("alpha")) == 18
    assert len(load_bundled("delta")) == 10
    assert len(load_bundled("omicron")) == 31


def test_bundled_spot_checks():
    alpha = load_bundled("alpha")
    assert alpha.labels[0] == "W46"
    assert period(alpha, "W46") == (1486, 4)
    delta = load_bundled("delta")
    assert period(delta, "W25") == (1165, 345)
    omicron = load_bundled("omicron")
    assert period(omicron, "2021-12-08") == (6232, 649)
    assert omicron.period_days == 1.0


def test_bundled_proportions_match_printed_precision():
    alpha = load_bundled("alpha")
    n, x = period(alpha, "W03")
    assert round(100 * x / n, 2) == 12.83
    # printed percentages, one per row, weekly Alpha table
    printed = [0.27, 0.15, 0.33, 0.38, 0.38, 0.75, 1.76, 2.04, 3.77,
               7.04, 12.83, 19.51, 29.66, 47.06, 65.81, 76.11, 85.18, 92.45]
    n, x = alpha.binomial_counts()
    for n_t, x_t, pct in zip(n.tolist(), x.tolist(), printed):
        assert round(100 * x_t / n_t, 2) == pytest.approx(pct, abs=0.005)


def test_unknown_dataset():
    with pytest.raises(UnknownDataset):
        load_bundled("epsilon")


def test_csv_round_trip(tmp_path):
    series = load_bundled("delta")
    path = tmp_path / "delta.csv"
    path.write_text(to_csv_string(series), encoding="utf-8")
    again = load_csv(str(path), period_days=series.period_days)
    assert again == series


def test_csv_header_only():
    with pytest.raises(EmptySeries):
        load_csv(text_file("t,label,sequenced,variant_count,total_cases,tested\n"))


def test_csv_negative_count_is_parse_error():
    text = "t,label,sequenced,variant_count,total_cases,tested\n1,a,-5,0,,\n2,b,10,1,,\n"
    with pytest.raises(ParseError):
        load_csv(text_file(text))


def test_csv_malformed_row_reports_row_number():
    text = "t,label,sequenced,variant_count,total_cases,tested\n1,a,10,1,,\nx,b,10,1,,\n"
    with pytest.raises(ParseError, match="row 3"):
        load_csv(text_file(text))


def test_csv_optional_fields_empty():
    text = "t,label,sequenced,variant_count,total_cases,tested\n1,a,10,1,,\n2,b,20,2,25,100\n"
    series = load_csv(text_file(text))
    assert series.total_cases[0] is None
    assert series.tested[1] == 100


def three_variant(counts, t_values=(1, 2, 3)):
    return SurveillanceSeries(
        t_values=t_values,
        labels=tuple(f"w{t}" for t in t_values),
        counts=counts,
        variant_names=("a", "b", "c"),
    )


def test_counts_are_a_read_only_copy():
    counts = np.array([[10, 5, 1], [5, 6, 2], [3, 9, 4]])
    series = three_variant(counts)
    counts[0, 0] = 999
    assert series.counts[0, 0] == 10
    assert series.columns[1] is series.counts
    with pytest.raises(ValueError):
        series.counts[0, 0] = 999
    assert not series.columns[0].flags.writeable


def test_counts_are_c_ordered_whatever_the_layout_passed_in():
    # A Fortran-ordered array, such as the transpose of per-variant columns,
    # used to be kept in its own layout.
    counts = np.asfortranarray(np.arange(9).reshape(3, 3))
    series = three_variant(counts)
    assert series.counts.flags.c_contiguous
    assert series.counts.tolist() == counts.tolist()
    multi = load_multi_csv(text_file(MULTI_HEADER + "1,a,1,2\n2,b,3,4\n"))
    assert multi.counts.flags.c_contiguous


def test_repeated_variant_names_are_refused():
    # A series named ("a", "a") used to be fitted, as variant a over numeraire a.
    with pytest.raises(InvalidValue, match="^variant names must be distinct, got \\('x', 'x'\\)$"):
        SurveillanceSeries((1, 2), ("a", "b"), np.ones((2, 2), dtype=int), ("x", "x"))
    with pytest.raises(InvalidValue, match="distinct"):
        load_multi_csv(text_file("t,label,count_a,count_a\n1,w1,90,10\n2,w2,80,20\n"))
    with pytest.raises(InvalidValue, match="distinct"):
        three_variant(np.arange(9).reshape(3, 3)).select(variants=[1, 1])


def test_periods_are_checked_before_the_counts():
    with pytest.raises(EmptySeries, match="got 0"):
        three_variant(np.zeros((0,), dtype=int), t_values=())
    with pytest.raises(DuplicatePeriod):
        three_variant(np.array([[1, -1, 1], [1, 1, 1], [1, 1, 1]]), t_values=(1, 1, 2))
    with pytest.raises(InvalidValue, match="non-negative"):
        three_variant(np.array([[1, -1, 1], [1, 1, 1], [1, 1, 1]]))


@pytest.mark.parametrize(
    "counts",
    [np.ones((3, 2), dtype=int), np.ones((2, 3), dtype=int), np.ones((3, 3)), np.ones(3, dtype=int)],
    ids=["too-few-columns", "too-few-rows", "floats", "one-dimensional"],
)
def test_malformed_counts_are_invalid(counts):
    with pytest.raises(InvalidValue):
        three_variant(counts)


def test_binomial_counts_need_two_variants():
    n, x = load_bundled("delta").binomial_counts()
    assert (int(n[0]), int(x[0])) == (5366, 13)
    with pytest.raises(InvalidValue, match="two-variant"):
        three_variant(np.ones((3, 3), dtype=int)).binomial_counts()


def test_select_keeps_the_chosen_periods_and_variants():
    series = three_variant(np.arange(9).reshape(3, 3))
    part = series.select(periods=[0, 2], variants=[2, 0])
    assert part.t_values == (1, 3)
    assert part.labels == ("w1", "w3")
    assert part.variant_names == ("c", "a")
    assert part.counts.tolist() == [[2, 0], [8, 6]]
    assert part.total_cases == (None, None)


def test_equal_series_compare_equal():
    a = three_variant(np.arange(9).reshape(3, 3))
    assert a == three_variant(np.arange(9).reshape(3, 3))
    assert a != three_variant(np.arange(9).reshape(3, 3) + 1)
    assert a != load_bundled("alpha")


HEADER = "t,label,sequenced,variant_count,total_cases,tested\n"
MULTI_HEADER = "t,label,count_a,count_b\n"


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_csv, HEADER + "1,a,10,1,,\nx,b,20,5,,\n", "row 3: bad t value 'x'"),
        (load_csv, HEADER + "1,a,10,1,,\n2,b, 2x ,5,,\n", "row 3: bad sequenced value '2x'"),
        (load_csv, HEADER + "1,a,10,1,,\n2,b,20,5.0,,\n", "row 3: bad variant_count value '5.0'"),
        (load_csv, HEADER + "1,a,10,1,,\n2,b,20,,,\n",
         "row 3: t, sequenced and variant_count are required"),
        (load_csv, HEADER + "1,a,10,1,,\n2,b,20,5,z,\n", "row 3: bad total_cases value 'z'"),
        (load_csv, HEADER + "1,a,10,1,30,\n2,b,20,5,,-\n", "row 3: bad tested value '-'"),
        (load_csv, HEADER + "1,a,10,1,,\n2,b,-20,5,,\n", "row 3: negative count"),
        (load_csv, HEADER + "1,a,10,1,,\n2,b,20,5,\n", "row 3: expected 6 fields, got 5"),
        (load_csv, HEADER + "1,a,10,1,,\n\n , ,, , ,\n2,b,x,5,,\n",
         "row 5: bad sequenced value 'x'"),
        (load_csv, HEADER + '1,a,10,1,,\n2,"b,20,5,,\n', "row 3: expected 6 fields, got 2"),
        (load_csv, "t,label,sequenced,variant,total_cases,tested\n1,a,10,1,,\n", "bad header"),
        (load_csv, "", "empty file"),
        (load_multi_csv, MULTI_HEADER + "1,a,10,1\n2,b,20,x\n", "row 3: malformed integer"),
        (load_multi_csv, MULTI_HEADER + "1,a,10,1\n,b,20,5\n", "row 3: malformed integer"),
        (load_multi_csv, MULTI_HEADER + "1,a,10,1\n\n2,b,20\n", "row 4: expected 4 fields, got 3"),
        (load_multi_csv, "t,label,a,count_b\n1,a,10,1\n", "bad count column 'a'"),
    ],
)
def test_a_file_with_one_fault_names_it(load, text, message):
    with pytest.raises(ParseError, match="^" + re.escape(message)):
        load(text_file(text))


@pytest.mark.parametrize("load", [load_csv, load_multi_csv], ids=["two-variant", "multi"])
def test_negative_count_is_a_parse_error_in_both_schemas(load):
    header = HEADER if load is load_csv else MULTI_HEADER
    rows = "1,a,10,1,,\n2,b,20,-5,,\n" if load is load_csv else "1,a,10,1\n2,b,20,-5\n"
    with pytest.raises(ParseError, match="^row 3: negative count$"):
        load(text_file(header + rows))


@pytest.mark.parametrize(
    "load, text",
    [(load_csv, HEADER + "1,a,10,1,,\n2,b,20,5,30,\n"),
     (load_multi_csv, MULTI_HEADER + "1,a,10,1\n2,b,20,5\n")],
    ids=["two-variant", "multi"],
)
def test_loaders_read_a_binary_file_as_they_read_a_path(tmp_path, load, text):
    path = tmp_path / "series.csv"
    path.write_text(text, encoding="utf-8-sig")  # with a byte-order mark
    with open(path, "rb") as fh:
        assert load(fh, period_days=1.0) == load(str(path), period_days=1.0)
        assert not fh.closed  # a file passed in is left open
    assert load(io.BytesIO(path.read_bytes())) == load(path)


def test_cells_are_read_without_surrounding_whitespace():
    # str.strip() also removes \x1c-\x1f, which int() alone refuses.
    text = HEADER + " 2 ,\tb ,\x1c20\x1f, 5 , 25 ,\n1,a,10,1,,\n3,c,30,9,,7\n"
    series = load_csv(text_file(text))
    assert series.t_values == (1, 2, 3)
    assert series.labels == ("a", "b", "c")
    assert [c.tolist() for c in series.binomial_counts()] == [[10, 20, 30], [1, 5, 9]]
    assert series.total_cases == (None, 25, None)
    assert series.tested == (None, None, 7)


def test_unsorted_rows_are_sorted_stably_by_t():
    text = MULTI_HEADER + "3,c,5,6\n1,a,1,2\n2,b,3,4\n"
    series = load_multi_csv(text_file(text))
    assert series.t_values == (1, 2, 3)
    assert series.labels == ("a", "b", "c")
    assert series.counts.tolist() == [[1, 2], [3, 4], [5, 6]]
    assert series.counts.flags.c_contiguous


COUNT_VIOLATIONS = [
    ((2, "b", 20, 25, None, None), "variant_count 25 > sequenced 20 at t=2"),
    ((2, "b", 20, 5, 10, None), "sequenced 20 > total_cases 10 at t=2"),
    ((2, "b", 20, 5, -1, None), "sequenced 20 > total_cases -1 at t=2"),
    ((2, "b", 20, 5, None, -3), "negative tested count at t=2"),
    ((2, "b", 20, -5, None, None), "negative count at t=2: sequenced=20, variant_count=-5"),
]


@pytest.mark.parametrize("row, message", COUNT_VIOLATIONS)
def test_count_violation_names_the_first_period_at_fault(row, message):
    rows = [(1, "a", 10, 1, 12, 100), row, (3, "c", 5, 9, None, None)]
    with pytest.raises(CountViolation, match="^" + re.escape(message) + "$"):
        from_rows(rows)


@pytest.mark.parametrize("row, message", COUNT_VIOLATIONS)
def test_count_violation_of_int64_columns_names_the_first_period_at_fault(row, message):
    rows = [(1, "a", 10, 1, 12, 100), row, (3, "c", 5, 9, None, None)]
    t, labels, n, x, cases, tested = zip(*rows)
    n, x = np.array(n, dtype=np.int64), np.array(x, dtype=np.int64)
    with pytest.raises(CountViolation, match="^" + re.escape(message) + "$"):
        SurveillanceSeries.from_binomial_columns(t, labels, n, x, cases, tested)


@pytest.mark.parametrize("n, x, message", [
    ([-(2**63), 10], [1, 2], f"negative count at t=1: sequenced={-(2**63)}, variant_count=1"),
    ([10, 2**62], [1, -(2**63)],
     f"negative count at t=2: sequenced={2**62}, variant_count={-(2**63)}"),
    ([10, 2**63 - 1], [11, 2**63 - 1], "variant_count 11 > sequenced 10 at t=1"),
], ids=["n-at-the-bottom", "x-at-the-bottom", "x-above-n"])
def test_int64_counts_whose_difference_wraps_round_are_refused(n, x, message):
    # N - X lies beyond int64 in the first two cases, and wraps round to 2**63 - 1 in the first.
    n, x = np.array(n, dtype=np.int64), np.array(x, dtype=np.int64)
    with pytest.raises(CountViolation, match="^" + re.escape(message) + "$"):
        SurveillanceSeries.from_binomial_columns((1, 2), ("a", "b"), n, x, (None,) * 2,
                                                 (None,) * 2)


@pytest.mark.parametrize("n, x, kind, message", [
    (["10", "20"], [1, 2], TypeError, "'>' not supported between instances of 'int' and 'str'"),
    ([10, 20], ["1", "2"], TypeError, "'<' not supported between instances of 'str' and 'int'"),
    ([10, 2**63], [1, 2], OverflowError, "Python int too large to convert to C long"),
    ([10, 20], [1, 2**63], CountViolation, f"variant_count {2**63} > sequenced 20 at t=2"),
], ids=["string-n", "string-x", "n-beyond-int64", "x-beyond-int64"])
def test_the_binomial_constructor_compares_listed_counts_as_python_objects(n, x, kind, message):
    with pytest.raises(kind, match="^" + re.escape(message) + "$"):
        SurveillanceSeries.from_binomial_columns((1, 2), ("a", "b"), n, x, (None,) * 2,
                                                 (None,) * 2)
    bools = SurveillanceSeries.from_binomial_columns((1, 2), ("a", "b"), [True, True],
                                                     [False, True], (None,) * 2, (None,) * 2)
    assert bools.counts.tolist() == [[1, 0], [0, 1]]


@pytest.mark.parametrize(
    "load, header, first, second, bad, full_width_blank",
    [(load_csv, HEADER, "1,a,10,1,,\n", "2,b,20,5,,\n", "2,b,x,5,,\n", ",,,,,\n"),
     (load_multi_csv, MULTI_HEADER, "1,a,10,1\n", "2,b,20,5\n", "2,b,x,5\n", ",,,\n")],
    ids=["two-variant", "multi"],
)
def test_blank_rows_are_skipped_in_both_schemas(load, header, first, second, bad,
                                                full_width_blank):
    # An empty line, a whitespace-only line and a row of empty cells: rows 3 to 5.
    blanks = "\n" + " \t \n" + full_width_blank
    expected = load(text_file(header + first + second))
    assert load(text_file(header + first + blanks + second + blanks)) == expected
    assert load(text_file(header + blanks + first + second)) == expected
    with pytest.raises(ParseError, match="^row 6: "):
        load(text_file(header + first + blanks + bad))


def test_load_csv_equals_two_variant_of_its_rows():
    rows = [(3, "c", 30, 9, None, 7), (1, "a", 10, 1, 12, None), (5, "e", 8, 0, 9, 100),
            (2, "b", 20, 5, None, None), (4, "d", 0, 0, None, 0)]
    text = HEADER + "".join(",".join("" if v is None else str(v) for v in row) + "\n"
                            for row in rows)
    for period_days in (7.0, 1.0):
        series = load_csv(io.BytesIO(text.encode()), period_days=period_days)
        assert series == from_rows(rows, period_days=period_days)
        assert series.t_values == (1, 2, 3, 4, 5)
        assert series.total_cases == (12, None, None, None, 9)
        assert series.tested == (None, None, 7, 0, 100)


def test_an_infinite_period_is_refused():
    # An infinite period used to pass, and an interval at the series' own
    # period then raised OverflowError, from a scale of inf / inf.
    with pytest.raises(InvalidValue, match="period_days"):
        SurveillanceSeries((1, 2), ("a", "b"), np.ones((2, 2), dtype=int), ("x", "y"),
                           period_days=math.inf)
    with pytest.raises(InvalidValue, match="period_days"):
        load_csv(io.BytesIO((HEADER + "1,a,10,1,,\n2,b,20,5,,\n").encode()),
                 period_days=math.inf)
    with pytest.raises(InvalidValue, match="period_days"):
        load_multi_csv(io.BytesIO((MULTI_HEADER + "1,a,10,1\n2,b,20,5\n").encode()),
                       period_days=math.inf)


@pytest.mark.parametrize(
    "periods, variants, expected",
    [(slice(None), slice(None), ((1, 2, 3), ("a", "b", "c"))),
     (np.array([True, False, True]), [1, 2], ((1, 3), ("b", "c"))),
     (slice(1, None), [2, 0], ((2, 3), ("c", "a"))),
     ([2, 0, 1], slice(None), ((1, 2, 3), ("a", "b", "c")))],
)
def test_select_picks_what_a_list_of_positions_picks(periods, variants, expected):
    series = three_variant(np.arange(9).reshape(3, 3))
    part = series.select(periods=periods, variants=variants)
    assert (part.t_values, part.variant_names) == expected
    rows = [series.t_values.index(t) for t in part.t_values]
    columns = [series.variant_names.index(name) for name in part.variant_names]
    assert part == SurveillanceSeries(
        expected[0], tuple(series.labels[i] for i in rows), series.counts[np.ix_(rows, columns)],
        expected[1])


@pytest.mark.parametrize("periods, got", [([], 0), ([1], 1), (np.array([False, True, False]), 1)])
def test_select_of_fewer_than_two_periods_is_an_empty_series(periods, got):
    with pytest.raises(EmptySeries, match=f"got {got}$"):
        three_variant(np.arange(9).reshape(3, 3)).select(periods=periods)


def test_select_of_one_variant_is_refused():
    series = SurveillanceSeries((1, 2), ("a", "b"), np.ones((2, 2), dtype=int), ("xy", "zw"))
    with pytest.raises(InvalidValue, match="^need at least 2 variants$"):
        series.select(variants=[1])


def built(t, period_days=7.0):
    """The series of periods t, with t as given, or the error's type and message."""
    k = np.arange(len(t))
    try:
        return SurveillanceSeries(t, tuple(f"w{v}" for v in k), np.column_stack([k + 5, k]),
                                  ("x", "y"), period_days, tuple(map(int, 3 * k + 9)),
                                  (None,) * len(t))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("t", [[1, 2, 3], [-4, 0, 7, 9], [3, 1, 2], [202046, 202045, 202050, 1],
                               [2**53 - 2, 2**53 - 1, 2**53], [-(2**53), -1]],
                         ids=["sorted", "negative", "shuffled", "week-codes", "top", "span"])
def test_a_series_of_int64_periods_is_the_series_of_their_tuple(t):
    array, listed = built(np.array(t, dtype=np.int64)), built(tuple(t))
    assert array == listed
    for name in ("t_values", "labels", "total_cases", "tested", "origin"):
        assert getattr(array, name) == getattr(listed, name)
        assert type(getattr(array, name)) is type(getattr(listed, name))
    assert all(type(v) is int for v in array.t_values) and array.t_values == tuple(sorted(t))
    for ours, theirs in zip(array.columns, listed.columns):
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()
        assert not ours.flags.writeable


@pytest.mark.parametrize("t, period_days", [
    ([1, 2, 1], 7.0), ([4, 4], 1.0), ([5], 7.0), ([], 7.0), ([0, 2**53 + 1], 7.0),
    ([-(2**53) - 1, 0], 7.0), ([-(2**53), 0, 2**53], 7.0), ([1, 2], math.inf),
    ([1, 2], math.nan), ([2, 1], -1.0),
], ids=["repeated", "repeated-pair", "one-period", "no-period", "beyond-top", "beyond-bottom",
        "span", "infinite-period", "nan-period", "negative-period"])
def test_int64_and_tuple_periods_are_refused_alike(t, period_days):
    refused = built(tuple(t), period_days)
    assert isinstance(refused, tuple) and issubclass(refused[0], Exception), refused
    assert built(np.array(t, dtype=np.int64), period_days) == refused


def select_by_positions(series, periods=slice(None), variants=slice(None)):
    """select as it was written before it indexed arrays: the period tuples
    picked position by position, the counts with np.ix_."""
    def pick(values, index):
        return operator.itemgetter(*index)(values) if len(index) > 1 else tuple(
            values[i] for i in index)

    rows = np.arange(len(series))[periods].tolist()
    columns = np.arange(series.n_variants)[variants].tolist()
    return SurveillanceSeries(pick(series.t_values, rows), pick(series.labels, rows),
                              series.counts[np.ix_(rows, columns)],
                              pick(series.variant_names, columns), series.period_days,
                              pick(series.total_cases, rows), pick(series.tested, rows))


def random_index(rng, size):
    kind = rng.random()
    if kind < 0.4:
        step = rng.choice([1, 1, 1, 2, 3, -1, -2, None])
        return slice(rng.choice([None, *range(-size, size + 1)]),
                     rng.choice([None, *range(-size, size + 1)]), step)
    if kind < 0.7:
        return np.array([rng.random() < 0.7 for _ in range(size)])
    return [rng.randrange(-size, size) for _ in range(rng.randint(0, size + 1))]


def test_select_gives_what_picking_by_positions_gives():
    rng = random.Random(32)
    outcomes = set()
    for _ in range(1_500):
        T, m = rng.randint(2, 12), rng.randint(2, 4)
        t = sorted(rng.sample(range(-50, 50), T))
        origin = rng.choice([0, 202045, -(2**52), 2**53 - 100])
        counts = np.array([[rng.randint(0, 9) for _ in range(m)] for _ in range(T)])
        series = SurveillanceSeries(
            [v + origin for v in t], tuple(f"p{v}" for v in t), counts,
            tuple("abcd"[:m]), rng.choice([1.0, 7.0]),
            tuple(rng.choice([None, 40]) for _ in t), tuple(rng.choice([None, 3]) for _ in t))
        periods, variants = random_index(rng, T), random_index(rng, m)
        got, want = [], []
        for select, out in ((SurveillanceSeries.select, got), (select_by_positions, want)):
            try:
                part = select(series, periods=periods, variants=variants)
                out += [part, part.columns[0].tobytes(), part.counts.tobytes(), part.origin,
                        part.total_cases, part.tested]
            except Exception as exc:
                out += [type(exc), str(exc)]
        assert got == want, (t, origin, periods, variants)
        outcomes.add(got[0] if isinstance(got[0], type) else "series")
    assert {"series", EmptySeries, DuplicatePeriod, InvalidValue} <= outcomes


def test_the_constructor_sorts_its_periods_by_t():
    rows = [(3, "c", [5, 6], 30, 3), (1, "a", [1, 2], 10, 1), (2, "b", [3, 4], 20, None)]

    def build(rows):
        t, labels, counts, cases, tested = zip(*rows)
        return SurveillanceSeries(t, labels, np.array(counts), ("x", "y"),
                                  total_cases=cases, tested=tested)

    series = build(rows)
    assert series == build(sorted(rows))
    assert series.t_values == (1, 2, 3) and series.labels == ("a", "b", "c")
    assert series.counts.tolist() == [[1, 2], [3, 4], [5, 6]]
    assert (series.total_cases, series.tested) == ((10, 20, 30), (1, None, 3))
    assert series.counts.flags.c_contiguous and not series.counts.flags.writeable
    assert series.columns[0].tolist() == [1.0, 2.0, 3.0] and series.origin == 0


@pytest.mark.parametrize("counts", [[[6 - t, t] for t in (1, 2, 3)],
                                    [[3, 3 - t, t] for t in (1, 2, 3)]], ids=["m2", "m3"])
@pytest.mark.parametrize("total_cases, tested, message", [
    ((-4, 1, None), (-9, None, 2), "sequenced 6 > total_cases -4 at t=1"),
    ((None, 5, None), None, "sequenced 6 > total_cases 5 at t=2"),
    (None, (None, None, -2), "negative tested count at t=3"),
], ids=["negative-total-cases", "total-cases-below-cases", "negative-tested"])
def test_every_constructor_checks_the_recorded_counts(counts, total_cases, tested, message):
    # The library constructor took these, and select carried them on. The
    # checks read each period's cases over all its variants, 6 here.
    names = ("x", "y", "z")[:len(counts[0])]
    with pytest.raises(CountViolation, match="^" + re.escape(message) + "$"):
        SurveillanceSeries((1, 2, 3), ("a", "b", "c"), counts, names,
                           total_cases=total_cases, tested=tested)


def test_the_series_needs_one_label_per_period():
    with pytest.raises(InvalidValue, match="^need one of labels per period, got 2 for 3$"):
        SurveillanceSeries((1, 2, 3), ("a", "b"), [[5, 1], [5, 2], [5, 3]], ("x", "y"))


def test_a_field_beyond_the_csv_field_limit_is_malformed_csv():
    field = "w" * (csv.field_size_limit() + 1)
    with pytest.raises(ParseError, match="^malformed CSV: "):
        load_csv(text_file(HEADER + f"1,{field},10,1,,\n2,b,10,2,,\n"))


# The texts' alphabet. SPECIAL's characters are special to csv.reader or keep
# text off the split; they are drawn rarely, so that both paths read many texts.
CELL = "0123456789-+_aZé \t\x0b"
SPECIAL = ',\n\r"\0'
WORDS = ["0", "17", "-3", "+4", "1_0", "a", "Zé", " 5 ", "\t9", "6\x0b"]


def random_char(rng, special):
    return rng.choice(SPECIAL if rng.random() < special else CELL)


def random_text(rng):
    """Free text over the CSV alphabet, or near-rectangular rows with ragged,
    blank and trailing blank lines; either with or without a byte-order mark."""
    bom = "\ufeff" if rng.random() < 0.1 else ""
    if rng.random() < 0.3:
        return bom + "".join(rng.choice(",\n") if rng.random() < 0.2 else random_char(rng, 0.03)
                             for _ in range(rng.randint(0, 30)))
    width = rng.randint(1, 5)
    lines = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.random()
        if kind < 0.02:
            lines.append("")
        elif kind < 0.04:
            lines.append(",".join(rng.choice(["", " ", "\t"]) for _ in range(width)))
        else:
            ragged = width + (rng.choice([-1, 1]) if kind > 0.99 else 0)
            lines.append(",".join("".join(random_char(rng, 0.05) for _ in range(rng.randint(0, 3)))
                                  if rng.random() < 0.1 else rng.choice(WORDS)
                                  for _ in range(max(ragged, 1))))
    ends = ["\n"] * 6 + ["\r\n"] * 3 + ["\r"]
    end = rng.choice(ends)
    if rng.random() < 0.05:  # mixed line ends
        return bom + "".join(line + rng.choice(ends) for line in lines)
    return bom + end.join(lines) + end * rng.choice([0, 1, 1, 1, 2])


def with_a_blank_line(rng, text):
    """The text with an empty line, in its own line end, after one of its data
    lines but the last; None for text with fewer than two data lines."""
    end = "\r\n" if "\r\n" in text else "\n"
    lines = text.rstrip(end).split(end)
    if len(lines) < 3:
        return None
    i = rng.randint(2, len(lines) - 1)
    return end.join(lines[:i] + [""] + lines[i:]) + end


def read_columns(text):
    """csv_columns of the text, its columns as lists, or the ParseError's type and message."""
    try:
        header, numbers, columns = csv_columns(text_file(text))
    except ParseError as exc:
        return type(exc), str(exc)
    return header, list(numbers), [list(column) for column in columns]


def takes_the_split(text):
    return data._split_columns(data._open_text(text_file(text))) is not None


LIMIT = csv.field_size_limit()
NAMED = {
    "quoted comma": (HEADER + '1,"a,b",10,1,,\n2,b,20,5,,\n', False),
    "crlf": (HEADER.replace("\n", "\r\n") + "1,a,10,1,,\r\n2,b,20,5,,\r\n", True),
    "crlf, no final newline": (HEADER.replace("\n", "\r\n") + "1,a,10,1,,\r\n2,b,20,5,,", True),
    "lf and crlf": (HEADER + "1,a,10,1,,\r\n2,b,20,5,,\n", True),
    "crlf and a lone cr": (HEADER.replace("\n", "\r\n") + "1,a,10,1,,\r2,b,20,5,,\r\n", False),
    "cr before crlf": (HEADER.replace("\n", "\r\n") + "1,a,10,1,,\r\r\n2,b,20,5,,\r\n", False),
    "quoted crlf": (HEADER.replace("\n", "\r\n") + '"1","a","10","1","",""\r\n', False),
    "crlf blank line": (HEADER.replace("\n", "\r\n") + "1,a,10,1,,\r\n\r\n2,b,20,5,,\r\n", False),
    "lone cr": (HEADER.replace("\n", "\r") + "1,a,10,1,,\r2,b,20,5,,\r", False),
    "empty header line": ("\n1,a\n2,b\n", False),
    "empty header, one column": ("\n1\n2\n", False),
    "blank data lines": (HEADER + "1,a,10,1,,\n\n \n,,,,,\n2,b,20,5,,\n", False),
    "blank line, one column": ("t\n1\n\n2\n", False),
    "empty lines at the end": (HEADER + "1,a,10,1,,\n2,b,20,5,,\n\n\n", True),
    "crlf empty lines at the end": (HEADER.replace("\n", "\r\n") + "1,a,10,1,,\r\n\r\n", True),
    "empty lines after the header": (HEADER + "\n\n", False),
    "blank row at the end": (HEADER + "1,a,10,1,,\n,,,,,\n", False),
    "whitespace first cell": (HEADER + "1,a,10,1,,\n \t,b,20,5,,\n", False),
    "field beyond the limit": (HEADER + f"1,{'w' * (LIMIT + 1)},10,1,,\n", False),
    "field at the limit": (HEADER + f"1,{'w' * LIMIT},10,1,,\n", False),
    "line at the limit": (f"t,label\n1,{'w' * (LIMIT - 2)}\n", True),
    "nul": (HEADER + "1,a\0,10,1,,\n2,b,20,5,,\n", False),
    "20 000 short rows": (HEADER + "".join(f"{t},w,10,1,,\n" for t in range(20_000)), True),
    "plain": (HEADER + "1,a,10,1,,\n2,b,20,5,30,\n", True),
    "no final newline": (MULTI_HEADER + "1,a,10,1\n2,b,20,5", True),
    # As many commas in all as the header's on every line, but not on each.
    "a comma more, then a comma fewer": (HEADER + "1,a,10,1,,,\n2,b,20,5,\n3,c,9,2,,\n", False),
    "a comma fewer, then a comma more": (HEADER + "1,a,10,1,\n2,b,20,5,,,\n3,c,9,2,,\n", False),
    "one line with all the commas": ("t,a,b\n1,2,3,4,5\n6\n", False),
    "one column, a comma more and an empty line": ("t\n1,2\n\n3\n", False),
    "a comma more and an empty line": ("t,a\n1,2,3\n\n4,5\n", False),
    "empty line between data rows": (HEADER + "1,a,10,1,,\n\n2,b,20,5,,\n", False),
    "whitespace-only row": (HEADER + "1,a,10,1,,\n \t \n2,b,20,5,,\n", False),
    "several trailing blank lines": (HEADER + "1,a,10,1,,\n2,b,20,5,,\n\n\n\n\n\n", True),
    "one column": ("t\n1\n2\n3\n", True),
    "header only": (HEADER, False),
}


def test_the_split_gives_what_csv_reader_gives(monkeypatch):
    rng = random.Random(20260)
    texts = [random_text(rng) for _ in range(20_000)]
    taken = list(map(takes_the_split, texts))
    assert 5_000 < sum(taken) < 15_000  # both paths are exercised
    # Texts the split takes, with a blank line between data rows: the reader's.
    blank = [with_a_blank_line(rng, text) for text, split in zip(texts, taken) if split]
    blank = [text for text in blank if text is not None]
    assert len(blank) > 1_000 and not any(map(takes_the_split, blank))
    assert {name: takes_the_split(text) for name, (text, _) in NAMED.items()} == {
        name: taken for name, (_, taken) in NAMED.items()}
    assert len(NAMED["20 000 short rows"][0]) > LIMIT
    texts += blank + [text for text, _ in NAMED.values()]
    either = list(map(read_columns, texts))
    monkeypatch.setattr(data, "_split_columns", lambda text: None)
    reader = list(map(read_columns, texts))
    differ = [(text, a, b) for text, a, b in zip(texts, either, reader) if a != b]
    assert not differ[:3], f"{len(differ)} texts differ"


def test_the_program_s_own_csv_and_unquoted_crlf_take_the_split(monkeypatch):
    two = to_csv_string(simulate(SimConfig((1.6,), (0.98, 0.02), (500,) * 12, seed=1)))
    three = to_multi_csv_string(simulate(SimConfig((1.6, 0.8), (0.65, 0.05, 0.3), (500,) * 12,
                                                   seed=1)))
    expected = load_csv(text_file(two)), load_multi_csv(text_file(three))
    quoted = io.StringIO()
    csv.writer(quoted, quoting=csv.QUOTE_ALL).writerows(csv.reader(io.StringIO(two)))
    assert load_csv(text_file(quoted.getvalue())) == expected[0]

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", refuse)
    assert (load_csv(text_file(two)), load_multi_csv(text_file(three))) == expected
    crlf = two.replace("\n", "\r\n"), three.replace("\n", "\r\n")
    assert (load_csv(text_file(crlf[0])), load_multi_csv(text_file(crlf[1]))) == expected
    with pytest.raises(AssertionError, match="^csv.reader called$"):
        load_csv(text_file(quoted.getvalue()))


# Integer cells in forms that int() reads: a sign, spaces, an underscore, and
# digits of another script. The first two are read by one np.loadtxt call,
# the others by int_column; both must give the series of plain digits.
INTEGER_FORMS = {
    "plus": "+{}".format,
    "spaces": " {} ".format,
    "underscore": "{:_}".format,
    "arabic-indic": lambda v: str(v).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
}
SCHEMAS = {
    "two-variant": (load_csv, HEADER, "{},{},{},{},,\n"),
    "multi": (load_multi_csv, MULTI_HEADER, "{},{},{},{}\n"),
}
ROWS = [(1, "a", 1000, 12), (2, "b", 20, 3), (3, "c", 12, 12)]


def schema_text(schema, rows, form=str):
    """The CSV text of rows (t, label, two counts) in a schema, each
    integer cell written by `form`."""
    _, header, line = SCHEMAS[schema]
    return header + "".join(line.format(form(t), label, form(a), form(b))
                            for t, label, a, b in rows)


@pytest.mark.parametrize("schema", SCHEMAS)
@pytest.mark.parametrize("form", INTEGER_FORMS.values(), ids=INTEGER_FORMS.keys())
def test_integer_cells_in_any_form_int_reads_load_as_plain_digits(schema, form):
    load = SCHEMAS[schema][0]
    expected = load(text_file(schema_text(schema, ROWS)))
    assert form(1000) != "1000"
    assert load(text_file(schema_text(schema, ROWS, form))) == expected


@pytest.mark.parametrize("schema", SCHEMAS)
def test_plain_digits_are_read_without_int_column(monkeypatch, schema):
    load = SCHEMAS[schema][0]
    read = []
    int_column = data.int_column

    def spy(cells, *args, **kwargs):
        read.append(list(cells))
        return int_column(cells, *args, **kwargs)

    monkeypatch.setattr(data, "int_column", spy)
    series = load(text_file(schema_text(schema, ROWS)))
    assert series.t_values == (1, 2, 3)
    # Only load_csv's optional columns, total_cases and tested, are read by int_column.
    assert read == ([["", "", ""]] * 2 if schema == "two-variant" else [])
    assert load(text_file(schema_text(schema, ROWS, "{:_}".format))) == series
    assert ["1", "2", "3"] in read  # t, once the underscore sends the cells to int_column


BEYOND = 2**63
T_BEYOND = (f"t_index must lie within -2**53..2**53 and span less than 2**53 periods, "
            f"where floats hold every integer; got 1..{BEYOND}")
# The middle row of a file, and the error it gets. Cells beyond int64 are read
# exactly, as int() reads them, and refused by the series: a count where the
# int64 copy is made, after the two-variant schema has compared X with N.
BEYOND_INT64 = {
    ("two-variant", "sequenced"): ((2, "b", BEYOND, 5), OverflowError,
                                   "Python int too large to convert to C long"),
    ("two-variant", "variant_count"): ((2, "b", 20, BEYOND), CountViolation,
                                       f"variant_count {BEYOND} > sequenced 20 at t=2"),
    ("two-variant", "t"): ((BEYOND, "b", 20, 5), InvalidValue, T_BEYOND),
    ("two-variant", "negative"): ((2, "b", 20, -BEYOND - 1), ParseError, "row 3: negative count"),
    ("multi", "count"): ((2, "b", BEYOND, 5), OverflowError,
                         "Python int too large to convert to C long"),
    ("multi", "t"): ((BEYOND, "b", 20, 5), InvalidValue, T_BEYOND),
    ("multi", "negative"): ((2, "b", -BEYOND - 1, 5), ParseError, "row 3: negative count"),
}


@pytest.mark.parametrize("case", BEYOND_INT64, ids="-".join)
def test_integers_beyond_int64_are_read_exactly_and_refused_by_the_series(case):
    load = SCHEMAS[case[0]][0]
    middle, kind, message = BEYOND_INT64[case]
    with pytest.raises(kind, match="^" + re.escape(message) + "$"):
        load(text_file(schema_text(case[0], [ROWS[0], middle, ROWS[2]])))
    largest = (2, "b", BEYOND - 1, BEYOND - 1)
    series = load(text_file(schema_text(case[0], [ROWS[0], largest, ROWS[2]])))
    assert series.counts[1, 1] == BEYOND - 1


@pytest.mark.parametrize("schema", SCHEMAS)
@pytest.mark.parametrize("column", [0, 2, 3], ids=["t", "first-count", "last-count"])
def test_an_empty_required_cell_names_its_row(schema, column):
    _, header, line = SCHEMAS[schema]
    cells = [str(v) for v in ROWS[1]]
    cells[column] = ""
    text = header + line.format(*ROWS[0]) + line.format(*cells) + line.format(*ROWS[2])
    message = "row 3: t, sequenced and variant_count are required" if schema == "two-variant" \
        else "row 3: malformed integer"
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        SCHEMAS[schema][0](text_file(text))


@pytest.mark.parametrize("schema", SCHEMAS)
@pytest.mark.parametrize("rows", [0, 1], ids=["header-only", "one-row"])
def test_a_file_without_two_periods_is_an_empty_series_and_warns_nothing(schema, rows):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptySeries, match=f"^need at least 2 periods, got {rows}$"):
            SCHEMAS[schema][0](text_file(schema_text(schema, ROWS[:rows])))


# Cells that int_column reads or refuses: digits with signs, underscores,
# spaces and tabs around or inside them, control characters that str.strip()
# removes but int() refuses (\x0b, \x1c) or keeps, NBSP, digits of other
# scripts, a letter that np.loadtxt misreads as digits (it reads "Ǿ5" as 4625,
# numpy 2.4), empty cells, and values at the edges of int64.
CELL_CHARS = "0123456789+-_ \t\x0b\x1c\x7f\xa0٣३３Ǿ,."
EDGES = [2**63 - 2, 2**63 - 1, 2**63, 2**63 + 1, -(2**63) - 1, -(2**63), -(2**63) + 1]


def random_integer_cell(rng):
    kind = rng.random()
    if kind < 0.05:
        return ""
    if kind < 0.12:
        return str(rng.choice(EDGES))
    if kind < 0.85:
        sign = rng.choice(["", "", "", "+", "-"]) if rng.random() < 0.1 else ""
        pad = rng.choice(["", "", "", " "])
        return pad + sign + str(rng.randint(0, 10 ** rng.randint(1, 7))) + pad
    return "".join(rng.choice(CELL_CHARS) for _ in range(rng.randint(0, 4)))


def int_column_values(columns, numbers, faults):
    """What int_column gives for t and the count columns, as lists, or the
    first ParseError's message."""
    try:
        return [data.int_column(columns[0], numbers, faults[0])] + [
            data.int_column(cells, numbers, fault, count=True)
            for cells, fault in zip(columns[1:], faults[1:])]
    except ParseError as exc:
        return str(exc)


def int_columns_values(columns, numbers, faults):
    try:
        t, counts = data.int_columns(columns, numbers, faults)
    except ParseError as exc:
        return str(exc), False
    # np.loadtxt's read gives t as an int64 array and int_column's a list, as the counts.
    by_numpy = isinstance(counts, np.ndarray)
    assert isinstance(t, np.ndarray) == by_numpy and (not by_numpy or t.dtype == np.int64)
    t = t.tolist() if by_numpy else t
    return [t] + [[int(v) for v in cells] for cells in counts], by_numpy


# Columns whose joined cells hold as many commas as a rectangle of other
# cells would, or empty and blank cells that the join keeps.
NAMED_COLUMNS = [
    [["1,2", "3"], ["4,5", "6"]],
    [["1", "2"], ["3,", "4"]],
    [["1", "2"], [",3", "4"]],
    [["", "1"], ["2", "3"]],
    [["1"], [" "]],
    [["1", "2", "3"], ["4", "5", ""]],
    [["5"], ["-0"], ["+0"]],
    [["Ǿ5", "1"], ["2", "3"]],
]


def test_int_columns_gives_what_int_column_gives():
    rng = random.Random(280)
    faults = [lambda text, k=k: f"bad column {k} value {text!r}" if text else REQUIRED
              for k in range(4)]
    cases = NAMED_COLUMNS + [
        [[random_integer_cell(rng) for _ in range(length)] for _ in range(rng.randint(2, 4))]
        for length in (rng.randint(1, 3) for _ in range(20_000))]
    by_numpy = 0
    for columns in cases:
        numbers = sorted(rng.sample(range(2, 40), len(columns[0])))
        got, numpy_read = int_columns_values(columns, numbers, faults[:len(columns)])
        assert got == int_column_values(columns, numbers, faults[:len(columns)]), columns
        by_numpy += numpy_read
    assert 5_000 < by_numpy < 15_000  # both readers are exercised
