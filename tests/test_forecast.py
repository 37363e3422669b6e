import math

import numpy as np
import pytest
from scipy.special import expit

from variantfit.data import SurveillanceSeries
from variantfit.datasets import load_bundled
from variantfit.errors import InvalidValue, NegativeC
from variantfit.estimate import at_zero, fit
from variantfit.inference import fisher_information, forecast, hac_sandwich


def _truncate(series, through):
    return series.select(periods=np.array(series.t_values) <= through)


def test_c_zero_collapses_to_point():
    series = load_bundled("alpha")
    result = fit(series)
    variance = fisher_information(series, result)
    _, point, lower, upper = forecast(result, variance, horizons=range(1, 25), c=0.0)
    assert np.allclose(lower, point)
    assert np.allclose(upper, point)


def test_point_path_matches_logistic_curve():
    series = load_bundled("omicron")
    result = fit(series)
    variance = fisher_information(series, result)
    t_values, point, _, _ = forecast(result, variance, horizons=range(1, 40), c=2.0)
    a, b = result.params.alpha, result.params.beta
    for t, p in zip(t_values, point):
        assert p == pytest.approx(expit(a + b * t), rel=1e-12)


def test_band_matches_hand_delta_method():
    series = load_bundled("alpha")
    result = fit(series)
    variance = hac_sandwich(series, result, 4)
    c = 2.0
    t_values, _, lower, upper = forecast(result, variance, horizons=[3, 10, 25], c=c)
    a, b = result.params.alpha, result.params.beta
    sigma = variance.matrix
    for t, lo, hi in zip(t_values, lower, upper):
        v = sigma[0, 0] + 2 * t * sigma[0, 1] + t * t * sigma[1, 1]
        assert lo == pytest.approx(expit(a + b * t - c * math.sqrt(v)), rel=1e-10)
        assert hi == pytest.approx(expit(a + b * t + c * math.sqrt(v)), rel=1e-10)


def test_bands_nested_in_c():
    series = load_bundled("delta")
    result = fit(series)
    variance = fisher_information(series, result)
    _, point, lower, upper = map(np.asarray, forecast(result, variance, range(1, 15), c=1.0))
    _, _, wide_lower, wide_upper = map(np.asarray, forecast(result, variance, range(1, 15), c=3.0))
    assert np.all(wide_lower <= lower)
    assert np.all(upper <= wide_upper)
    assert np.all(lower <= point)
    assert np.all(point <= upper)


def test_negative_c_rejected():
    series = load_bundled("alpha")
    result = fit(series)
    variance = fisher_information(series, result)
    for c in (-0.5, math.nan):
        with pytest.raises(NegativeC):
            forecast(result, variance, horizons=[1, 2], c=c)


@pytest.mark.parametrize("horizon, error", [
    (math.nan, InvalidValue),
    (math.inf, InvalidValue),
    (-math.inf, InvalidValue),
    # beta_hat * t overflows, and the variance's terms give inf - inf.
    (1.7e308, OverflowError),
    # beta_hat * t is a float, but t * t * var(beta_hat) overflows.
    (1e200, OverflowError),
])
def test_horizons_beyond_a_float_are_refused(horizon, error):
    series = load_bundled("delta")
    result = fit(series)
    variance = fisher_information(series, result)
    with pytest.raises(error):
        forecast(result, variance, horizons=[20, horizon], c=2.0)


def test_train_early_covers_later_observations():
    # fit on the first eight weeks, check the c=4 band contains every
    # later observed share
    series = load_bundled("alpha")
    train = _truncate(series, 8)
    result = fit(train)
    variance = fisher_information(train, result)
    n, x = series.binomial_counts()
    held_out = [(t, n_t, x_t) for t, n_t, x_t in zip(series.t_values, n.tolist(), x.tolist())
                if t > 8]
    _, _, lower, upper = forecast(result, variance, horizons=[t for t, _, _ in held_out], c=4.0)
    for (_, n_t, x_t), lo, hi in zip(held_out, lower, upper):
        share = x_t / n_t
        assert lo <= share <= hi


def test_band_width_shrinks_as_training_window_grows():
    series = load_bundled("alpha")
    target = 18
    widths = []
    for through in (8, 10, 12, 14):
        train = _truncate(series, through)
        result = fit(train)
        variance = fisher_information(train, result)
        _, _, lower, upper = forecast(result, variance, horizons=[target], c=2.0)
        widths.append(upper[0] - lower[0])
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_band_stays_inside_unit_interval():
    series = load_bundled("omicron")
    result = fit(series)
    variance = hac_sandwich(series, result, 4)
    _, _, lower, upper = forecast(result, variance, horizons=range(-20, 80), c=5.0)
    assert np.all(np.asarray(lower) >= 0.0)
    assert np.all(np.asarray(upper) <= 1.0)


@pytest.mark.parametrize("base", [0, 1_000])
def test_params_pair_with_the_variance_at_t_zero_at_any_origin(base):
    # `theta` and `matrix` are in model time, t - origin; `params` and
    # `at_zero(matrix, origin)` are at the user's t = 0. Either pair, each at
    # its own t, gives the band at the user's t.
    series = load_bundled("alpha")
    shifted = SurveillanceSeries(tuple(t + base for t in series.t_values), series.labels,
                                 series.counts, series.variant_names, series.period_days)
    result = fit(shifted)
    variance = hac_sandwich(shifted, result, 4)
    assert result.series.origin == base
    c = 2.0
    t_values, _, lower, upper = forecast(result, variance, [base + 3, base + 10, base + 25], c=c)
    frames = [
        (result.params.alpha, result.params.beta, at_zero(variance.matrix, base), 0),
        (*result.theta, variance.matrix, base),
    ]
    for a, b, sigma, origin in frames:
        for t, lo, hi in zip(t_values, lower, upper):
            t = t - origin
            v = sigma[0, 0] + 2 * t * sigma[0, 1] + t * t * sigma[1, 1]
            assert lo == pytest.approx(expit(a + b * t - c * math.sqrt(v)), rel=1e-8)
            assert hi == pytest.approx(expit(a + b * t + c * math.sqrt(v)), rel=1e-8)


def test_horizons_far_from_zero_map_exactly_to_model_time():
    # At t_1 = -2**53 the origin t_1 - 1 is not a float; horizons taken to
    # model time in floats landed one period early.
    series = load_bundled("alpha")
    far = SurveillanceSeries(tuple(t - series.t_values[0] - 2**53 for t in series.t_values),
                             series.labels, series.counts, series.variant_names,
                             series.period_days)
    bands = []
    for s in (series, far):
        result = fit(s)
        horizons = [t + s.t_values[0] for t in (0, 5, len(s) - 1, len(s) + 3)]
        bands.append(forecast(result, hac_sandwich(s, result, 4), horizons, c=2.0))
    near, moved = bands
    # One model time, so one fit and the same shares, to the bit.
    assert moved[1:] == near[1:]
