import io
import re

import numpy as np
import pytest

from variantfit.data import (
    SurveillanceSeries,
    load_csv,
    read_csv,
    to_csv_string,
)
from variantfit.datasets import load_bundled
from variantfit.multivariant import load_multi_csv, read_multi_csv
from variantfit.errors import (
    CountViolation,
    DuplicatePeriod,
    EmptySeries,
    InvalidValue,
    ParseError,
    UnknownDataset,
)

two_variant = SurveillanceSeries.two_variant


def rec(t, n, x, total_cases=None, tested=None):
    return (t, f"t{t}", n, x, total_cases, tested)


def period(series, label):
    """(N, X) of the period with this label."""
    n, x = series.binomial_counts()
    i = series.labels.index(label)
    return int(n[i]), int(x[i])


def test_validate_sorts_and_accepts():
    series = two_variant([rec(3, 10, 1), rec(1, 20, 2), rec(2, 30, 3)], 7.0)
    assert series.t_values == (1, 2, 3)
    assert series.period_days == 7.0


def test_single_record_rejected():
    with pytest.raises(EmptySeries):
        two_variant([rec(1, 10, 1)], 7.0)


def test_count_violation():
    with pytest.raises(CountViolation):
        two_variant([rec(1, 3, 5)])
    with pytest.raises(CountViolation):
        two_variant([rec(1, 10, 1, total_cases=5)])
    with pytest.raises(CountViolation):
        two_variant([(1, "", -1, 0, None, None)])


@pytest.mark.parametrize("t", [[2**53 - 1, 2**53, 2**53 + 1], [-(2**53) - 1, 0, 1],
                               [10**17, 10**17 + 1, 10**17 + 2]])
def test_periods_beyond_float_precision_are_refused(t):
    # The model time is a float: above 2**53 distinct t can become one float.
    with pytest.raises(InvalidValue, match="2\\*\\*53"):
        two_variant([rec(v, 100, 10) for v in t])
    with pytest.raises(InvalidValue):
        read_multi_csv(io.StringIO("t,label,count_a,count_b\n"
                                   + "".join(f"{v},p,90,10\n" for v in t)))


def test_periods_up_to_float_precision_are_kept_exactly():
    series = two_variant([rec(t, 100, 10 * i) for i, t in enumerate([-(2**53), 0, 2**53])])
    assert series.t_values == (-(2**53), 0, 2**53)
    assert series.columns[0].tolist() == [-(2.0**53), 0.0, 2.0**53]


def test_duplicate_period():
    with pytest.raises(DuplicatePeriod):
        two_variant([rec(1, 10, 1), rec(1, 20, 2)], 7.0)


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
        read_csv(io.StringIO("t,label,sequenced,variant_count,total_cases,tested\n"))


def test_csv_negative_count_is_parse_error():
    text = "t,label,sequenced,variant_count,total_cases,tested\n1,a,-5,0,,\n2,b,10,1,,\n"
    with pytest.raises(ParseError):
        read_csv(io.StringIO(text))


def test_csv_malformed_row_reports_row_number():
    text = "t,label,sequenced,variant_count,total_cases,tested\n1,a,10,1,,\nx,b,10,1,,\n"
    with pytest.raises(ParseError, match="row 3"):
        read_csv(io.StringIO(text))


def test_csv_optional_fields_empty():
    text = "t,label,sequenced,variant_count,total_cases,tested\n1,a,10,1,,\n2,b,20,2,25,100\n"
    series = read_csv(io.StringIO(text))
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
    assert series.columns[1][0, 0] == 10.0
    with pytest.raises(ValueError):
        series.counts[0, 0] = 999
    assert not series.columns[0].flags.writeable and not series.columns[1].flags.writeable


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
    "read, text, message",
    [
        (read_csv, HEADER + "1,a,10,1,,\nx,b,20,5,,\n", "row 3: bad t value 'x'"),
        (read_csv, HEADER + "1,a,10,1,,\n2,b, 2x ,5,,\n", "row 3: bad sequenced value '2x'"),
        (read_csv, HEADER + "1,a,10,1,,\n2,b,20,5.0,,\n", "row 3: bad variant_count value '5.0'"),
        (read_csv, HEADER + "1,a,10,1,,\n2,b,20,,,\n",
         "row 3: t, sequenced and variant_count are required"),
        (read_csv, HEADER + "1,a,10,1,,\n2,b,20,5,z,\n", "row 3: bad total_cases value 'z'"),
        (read_csv, HEADER + "1,a,10,1,30,\n2,b,20,5,,-\n", "row 3: bad tested value '-'"),
        (read_csv, HEADER + "1,a,10,1,,\n2,b,-20,5,,\n", "row 3: negative count"),
        (read_csv, HEADER + "1,a,10,1,,\n2,b,20,5,\n", "row 3: expected 6 fields, got 5"),
        (read_csv, HEADER + "1,a,10,1,,\n\n , ,, , ,\n2,b,x,5,,\n",
         "row 5: bad sequenced value 'x'"),
        (read_csv, HEADER + '1,a,10,1,,\n2,"b,20,5,,\n', "row 3: expected 6 fields, got 2"),
        (read_csv, "t,label,sequenced,variant,total_cases,tested\n1,a,10,1,,\n", "bad header"),
        (read_csv, "", "empty file"),
        (read_multi_csv, MULTI_HEADER + "1,a,10,1\n2,b,20,x\n", "row 3: malformed integer"),
        (read_multi_csv, MULTI_HEADER + "1,a,10,1\n,b,20,5\n", "row 3: malformed integer"),
        (read_multi_csv, MULTI_HEADER + "1,a,10,1\n\n2,b,20\n", "row 4: expected 4 fields, got 3"),
        (read_multi_csv, "t,label,a,count_b\n1,a,10,1\n", "bad count column 'a'"),
    ],
)
def test_a_file_with_one_fault_names_it(read, text, message):
    with pytest.raises(ParseError, match="^" + re.escape(message)):
        read(io.StringIO(text))


@pytest.mark.parametrize("read", [read_csv, read_multi_csv], ids=["two-variant", "multi"])
def test_negative_count_is_a_parse_error_in_both_schemas(read):
    header = HEADER if read is read_csv else MULTI_HEADER
    rows = "1,a,10,1,,\n2,b,20,-5,,\n" if read is read_csv else "1,a,10,1\n2,b,20,-5\n"
    with pytest.raises(ParseError, match="^row 3: negative count$"):
        read(io.StringIO(header + rows))


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
    series = read_csv(io.StringIO(text))
    assert series.t_values == (1, 2, 3)
    assert series.labels == ("a", "b", "c")
    assert [c.tolist() for c in series.binomial_counts()] == [[10, 20, 30], [1, 5, 9]]
    assert series.total_cases == (None, 25, None)
    assert series.tested == (None, None, 7)


def test_unsorted_rows_are_sorted_stably_by_t():
    text = MULTI_HEADER + "3,c,5,6\n1,a,1,2\n2,b,3,4\n"
    series = read_multi_csv(io.StringIO(text))
    assert series.t_values == (1, 2, 3)
    assert series.labels == ("a", "b", "c")
    assert series.counts.tolist() == [[1, 2], [3, 4], [5, 6]]
    assert series.counts.flags.c_contiguous


@pytest.mark.parametrize(
    "row, message",
    [
        ((2, "b", 20, 25, None, None), "variant_count 25 > sequenced 20 at t=2"),
        ((2, "b", 20, 5, 10, None), "sequenced 20 > total_cases 10 at t=2"),
        ((2, "b", 20, 5, -1, None), "sequenced 20 > total_cases -1 at t=2"),
        ((2, "b", 20, 5, None, -3), "negative tested count at t=2"),
        ((2, "b", 20, -5, None, None), "negative count at t=2: sequenced=20, variant_count=-5"),
    ],
)
def test_count_violation_names_the_first_period_at_fault(row, message):
    rows = [(1, "a", 10, 1, 12, 100), row, (3, "c", 5, 9, None, None)]
    with pytest.raises(CountViolation, match="^" + re.escape(message) + "$"):
        two_variant(rows)
