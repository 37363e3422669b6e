import math
from fractions import Fraction

import numpy as np
import pytest

from variantfit.crude import CrudeMeasure, crude_gammas, crude_mean
from variantfit.data import SurveillanceSeries
from variantfit.datasets import load_bundled
from variantfit.errors import InvalidValue
from variantfit.inference import normal_quantile


def _periods(series):
    """(t, N, X) per period of a two-variant series."""
    n, x = series.binomial_counts()
    return list(zip(series.t_values, n.tolist(), x.tolist()))


def _series(*pairs):
    """A two-variant series with one (N, X) pair per period, at t = 1, 2, ..."""
    rows = [(t, "ab"[t - 1], n, x, None, None) for t, (n, x) in enumerate(pairs, start=1)]
    return SurveillanceSeries.two_variant(rows, 7.0)


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
    measures = crude_gammas(series)
    assert len(measures) == len(series) - 1
    periods = _periods(series)
    prev = periods[0]
    for measure, rec in zip(measures, periods[1:]):
        assert measure.t_index == rec[0]
        expected = float(_odds(rec) / _odds(prev)) ** (1.0 / (rec[0] - prev[0]))
        assert measure.value == pytest.approx(expected, rel=1e-12)
        prev = rec


@pytest.mark.parametrize(
    "name,expected",
    [("alpha", 1.728777), ("delta", 3.021371), ("omicron", 1.269316)],
)
def test_crude_mean(name, expected):
    series = load_bundled(name)
    assert crude_mean(crude_gammas(series)) == pytest.approx(_oracle_mean(series), rel=1e-12)
    assert crude_mean(crude_gammas(series)) == pytest.approx(expected, abs=1e-5)


def test_alpha_and_omicron_means_match_reported_rounding():
    assert round(crude_mean(crude_gammas(load_bundled("alpha"))), 2) == 1.73
    assert round(crude_mean(crude_gammas(load_bundled("omicron"))), 2) == 1.27


def test_first_alpha_ratio_by_hand():
    # W46: 4 of 1486, W47: 3 of 1941
    series = load_bundled("alpha")
    expected = float(Fraction(3, 1938) / Fraction(4, 1482))
    assert crude_gammas(series)[0].value == pytest.approx(expected, rel=1e-14)


def test_geometric_mean_telescopes():
    # with consecutive periods and no zero cells the product of crude odds
    # ratios collapses to the endpoint odds ratio
    series = load_bundled("alpha")
    measures = crude_gammas(series)
    product = math.prod(m.value for m in measures)
    endpoint = float(_odds(_periods(series)[-1]) / _odds(_periods(series)[0]))
    assert product == pytest.approx(endpoint, rel=1e-10)


def test_zero_cell_uses_continuity_correction():
    series = _series((100, 0), (100, 10))
    measure = crude_gammas(series)[0]
    expected = (10.5 / 90.5) / (0.5 / 100.5)
    assert measure.value == pytest.approx(expected, rel=1e-12)
    assert math.isfinite(measure.ci_low) and math.isfinite(measure.ci_high)


def test_crude_ci_brackets_point_and_uses_wald_width():
    series = load_bundled("delta")
    for m in crude_gammas(series):
        assert m.ci_low < m.value < m.ci_high


def test_wald_interval_by_hand():
    series = _series((120, 20), (130, 40))
    m = crude_gammas(series)[0]
    ratio = (40 / 90) / (20 / 100)
    se = math.sqrt(1 / 40 + 1 / 90 + 1 / 20 + 1 / 100)
    assert m.value == pytest.approx(ratio, rel=1e-12)
    assert m.ci_low == pytest.approx(ratio * math.exp(-1.96 * se), rel=1e-9)
    assert m.ci_high == pytest.approx(ratio * math.exp(1.96 * se), rel=1e-9)


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
    gap = SurveillanceSeries.two_variant(
        [(1, "a", 120, 20, None, None), (4, "b", 130, 40, None, None)], 7.0
    )
    one = _series((120, 20), (130, 40))
    m, m1 = crude_gammas(gap)[0], crude_gammas(one)[0]
    assert m.t_index == 4
    assert m.value == pytest.approx(m1.value ** (1 / 3), rel=1e-12)
    assert m.ci_low == pytest.approx(m1.ci_low ** (1 / 3), rel=1e-12)
    assert m.ci_high == pytest.approx(m1.ci_high ** (1 / 3), rel=1e-12)


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
    return SurveillanceSeries.two_variant([(t, f"p{t}", n, x, None, None) for t, n, x in pairs])


@pytest.mark.parametrize("level", [0.95, 0.9])
@pytest.mark.parametrize("name", ["gaps-and-zero-cells", "alpha", "delta", "omicron"])
def test_crude_gammas_equal_the_scalar_formula(name, level):
    series = _gappy_series() if name == "gaps-and-zero-cells" else load_bundled(name)
    measures = crude_gammas(series, level=level)
    expected = _crude_reference(series, level)
    assert [m.t_index for m in measures] == [e[0] for e in expected]
    for m, (_, value, low, high) in zip(measures, expected):
        assert isinstance(m, CrudeMeasure)
        assert (m.value, m.ci_low, m.ci_high) == pytest.approx((value, low, high), rel=1e-15)
