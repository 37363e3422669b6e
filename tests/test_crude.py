import math
from fractions import Fraction

import numpy as np
import pytest

from variantfit.cli import crude_report
from variantfit.data import SurveillanceSeries
from variantfit.datasets import load_bundled
from variantfit.errors import InvalidValue
from variantfit.inference import crude_gammas, normal_quantile


def _periods(series):
    """(t, N, X) per period of a two-variant series."""
    n, x = series.binomial_counts()
    return list(zip(series.t_values, n.tolist(), x.tolist()))


def _series(*pairs):
    """A two-variant series with one (N, X) pair per period, at t = 1, 2, ..."""
    T = len(pairs)
    return SurveillanceSeries.from_binomial_columns(
        range(1, T + 1), ("a", "b")[:T], *zip(*pairs), [None] * T, [None] * T, 7.0)


def _crude_mean(series):
    """The mean of the series' crude measures, as the `crude` report gives it."""
    report, _ = crude_report({}, series, crude_gammas(series), 0.95)
    return report()["mean"]


def _odds(period):
    _, n, x = period
    return Fraction(x, n - x)


def _oracle_mean(series):
    values = []
    periods = _periods(series)
    prev = periods[0]
    for rec in periods[1:]:
        gap = rec[0] - prev[0]
        ratio = float(_odds(rec) / _odds(prev))
        values.append(ratio ** (1.0 / gap))
        prev = rec
    return sum(values) / len(values)


@pytest.mark.parametrize("name", ["alpha", "delta", "omicron"])
def test_values_match_odds_ratio_oracle(name):
    series = load_bundled(name)
    t, values, _, _ = crude_gammas(series)
    assert len(t) == len(values) == len(series) - 1
    periods = _periods(series)
    prev = periods[0]
    for t_index, value, rec in zip(t, values, periods[1:]):
        assert t_index == rec[0]
        expected = float(_odds(rec) / _odds(prev)) ** (1.0 / (rec[0] - prev[0]))
        assert value == pytest.approx(expected, rel=1e-12)
        prev = rec


@pytest.mark.parametrize(
    "name,expected",
    [("alpha", 1.728777), ("delta", 3.021371), ("omicron", 1.269316)],
)
def test_crude_mean(name, expected):
    series = load_bundled(name)
    assert _crude_mean(series) == pytest.approx(_oracle_mean(series), rel=1e-12)
    assert _crude_mean(series) == pytest.approx(expected, abs=1e-5)


def test_alpha_and_omicron_means_match_reported_rounding():
    assert round(_crude_mean(load_bundled("alpha")), 2) == 1.73
    assert round(_crude_mean(load_bundled("omicron")), 2) == 1.27


def test_first_alpha_ratio_by_hand():
    # W46: 4 of 1486, W47: 3 of 1941
    series = load_bundled("alpha")
    expected = float(Fraction(3, 1938) / Fraction(4, 1482))
    _, values, _, _ = crude_gammas(series)
    assert values[0] == pytest.approx(expected, rel=1e-14)


def test_geometric_mean_telescopes():
    # with consecutive periods and no zero cells the product of crude odds
    # ratios collapses to the endpoint odds ratio
    series = load_bundled("alpha")
    _, values, _, _ = crude_gammas(series)
    product = math.prod(values)
    endpoint = float(_odds(_periods(series)[-1]) / _odds(_periods(series)[0]))
    assert product == pytest.approx(endpoint, rel=1e-10)


def test_zero_cell_uses_continuity_correction():
    series = _series((100, 0), (100, 10))
    _, (value,), (low,), (high,) = crude_gammas(series)
    expected = (10.5 / 90.5) / (0.5 / 100.5)
    assert value == pytest.approx(expected, rel=1e-12)
    assert math.isfinite(low) and math.isfinite(high)


def test_crude_ci_brackets_point_and_uses_wald_width():
    series = load_bundled("delta")
    _, values, lows, highs = crude_gammas(series)
    for value, low, high in zip(values, lows, highs):
        assert low < value < high


def test_wald_interval_by_hand():
    series = _series((120, 20), (130, 40))
    _, (value,), (low,), (high,) = crude_gammas(series)
    ratio = (40 / 90) / (20 / 100)
    se = math.sqrt(1 / 40 + 1 / 90 + 1 / 20 + 1 / 100)
    assert value == pytest.approx(ratio, rel=1e-12)
    assert low == pytest.approx(ratio * math.exp(-1.96 * se), rel=1e-9)
    assert high == pytest.approx(ratio * math.exp(1.96 * se), rel=1e-9)


def test_crude_needs_two_variants():
    three = SurveillanceSeries(
        t_values=(1, 2, 3),
        labels=("a", "b", "c"),
        counts=np.array([[10, 5, 1], [5, 6, 2], [3, 9, 4]]),
        variant_names=("v1", "v2", "v3"),
    )
    with pytest.raises(InvalidValue, match="two-variant"):
        crude_gammas(three)


def test_gap_spreads_the_interval_over_the_periods():
    # Periods 1 and 4: the measure and both endpoints are cube roots of the
    # one-period figures.
    gap = SurveillanceSeries.from_binomial_columns(
        (1, 4), ("a", "b"), (120, 130), (20, 40), (None, None), (None, None), 7.0)
    one = _series((120, 20), (130, 40))
    (t,), *spread = crude_gammas(gap)
    _, *per_period = crude_gammas(one)
    assert t == 4
    for (got,), (single,) in zip(spread, per_period):  # the measure, then both ends
        assert got == pytest.approx(single ** (1 / 3), rel=1e-12)


def _crude_reference(series, level):
    """The scalar formula, one pair of periods at a time: the reference for crude_gammas."""
    z = normal_quantile(level)
    t = series.t_values
    n, x = (column.tolist() for column in series.binomial_counts())
    out = []
    for i in range(1, len(t)):
        cells = [float(x[i]), float(n[i] - x[i]), float(x[i - 1]), float(n[i - 1] - x[i - 1])]
        if any(c == 0.0 for c in cells):
            cells = [c + 0.5 for c in cells]
        a, b, c, d = cells
        log_ratio = math.log(a / b) - math.log(c / d)
        se = math.sqrt(1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d)
        scale = 1.0 / (t[i] - t[i - 1])
        out.append((t[i], math.exp(scale * log_ratio), math.exp(scale * (log_ratio - z * se)),
                    math.exp(scale * (log_ratio + z * se))))
    return out


def _gappy_series():
    """Zero cells of each kind (no variant, all variant, nothing sequenced) and gaps of 4 and 5."""
    pairs = [(1, 100, 0), (2, 120, 3), (3, 80, 80), (7, 0, 0), (8, 150, 40), (13, 200, 190),
             (14, 210, 0), (15, 90, 45)]
    t, n, x = zip(*pairs)
    return SurveillanceSeries.from_binomial_columns(
        t, [f"p{v}" for v in t], n, x, [None] * len(t), [None] * len(t))


@pytest.mark.parametrize("level", [0.95, 0.9])
@pytest.mark.parametrize("name", ["gaps-and-zero-cells", "alpha", "delta", "omicron"])
def test_crude_gammas_equal_the_scalar_formula(name, level):
    series = _gappy_series() if name == "gaps-and-zero-cells" else load_bundled(name)
    columns = crude_gammas(series, level=level)
    expected = _crude_reference(series, level)
    assert len(columns) == 4 and all(len(column) == len(expected) for column in columns)
    assert list(columns[0]) == [e[0] for e in expected]
    for got, (_, value, low, high) in zip(zip(*columns[1:]), expected):
        assert got == pytest.approx((value, low, high), rel=1e-15)
