import dataclasses
import math

import numpy as np
import pytest

from variantfit.data import SurveillanceSeries
from variantfit.datasets import load_bundled
from variantfit.dynamics import Advantage
from variantfit.errors import (
    BandwidthTooLarge,
    InvalidIndex,
    InvalidValue,
    PeriodMismatch,
    Singular,
)
from variantfit.estimate import fit, model_derivatives
from variantfit.inference import (
    AdvantageEstimate,
    advantage_interval,
    compose_advantages,
    fisher_information,
    hac_sandwich,
    interval_for_gamma,
    kernel_weighted_outer,
    parzen_kernel,
    sandwich,
)
from variantfit.simulate import SimConfig, simulate

# Published gamma CIs per 4.7 days for each variance estimator
SENSITIVITY_TABLE = {
    "alpha": {
        "fisher": (1.5037, 1.5262),
        0: (1.4994, 1.5306),
        1: (1.4990, 1.5310),
        2: (1.4986, 1.5314),
        3: (1.4980, 1.5320),
        4: (1.4971, 1.5329),
        5: (1.4962, 1.5339),
        6: (1.4952, 1.5349),
    },
    "delta": {
        "fisher": (2.1319, 2.2033),
        0: (2.0215, 2.3236),
        1: (2.0119, 2.3347),
        2: (2.0009, 2.3476),
        3: (1.9949, 2.3546),
        4: (1.9909, 2.3593),
        5: (1.9888, 2.3618),
        6: (1.9888, 2.3618),
    },
}


def test_parzen_kernel_shape():
    assert parzen_kernel(0.0) == 1.0
    assert parzen_kernel(1.0) == 0.0
    assert parzen_kernel(1.5) == 0.0
    assert parzen_kernel(-0.3) == parzen_kernel(0.3)
    xs = np.linspace(0, 1, 101)
    ks = [parzen_kernel(x) for x in xs]
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    assert parzen_kernel(0.5) == pytest.approx(0.25)


def all_pairs_kernel_sum(t_values, scores, bandwidth):
    """Reference: the Parzen-weighted sum over every pair of periods, O(T^2)."""
    j = scores.T @ scores
    if bandwidth == 0:
        return j
    n = len(t_values)
    for a in range(n):
        for b in range(a + 1, n):
            w = parzen_kernel((t_values[b] - t_values[a]) / (bandwidth + 1))
            if w == 0.0:
                continue
            cross = np.outer(scores[a], scores[b])
            j = j + w * (cross + cross.T)
    return j


@pytest.mark.parametrize("bandwidth", [0, 1, 2, 4, 7])
def test_banded_kernel_sum_matches_all_pairs(bandwidth):
    t = np.array([1, 2, 3, 5, 6, 9, 10, 11, 12, 15, 16, 20, 27, 28], dtype=float)
    scores = np.random.default_rng(5).normal(size=(len(t), 4))
    want = all_pairs_kernel_sum(t, scores, bandwidth)
    got = kernel_weighted_outer(t, scores, bandwidth)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["alpha", "delta"])
def test_sensitivity_table_reproduced(name):
    series = load_bundled(name)
    result = fit(series)
    for key, (lo, hi) in SENSITIVITY_TABLE[name].items():
        if key == "fisher":
            variance = fisher_information(series, result)
        else:
            variance = hac_sandwich(series, result, key)
        est = interval_for_gamma(variance, result, target_days=4.7)
        assert est.ci_low == pytest.approx(lo, abs=2e-3)
        assert est.ci_high == pytest.approx(hi, abs=2e-3)


def test_symmetry_and_nonnegative_diagonal():
    for name in ("alpha", "delta", "omicron"):
        series = load_bundled(name)
        result = fit(series)
        for variance in (
            fisher_information(series, result),
            hac_sandwich(series, result, 0),
            hac_sandwich(series, result, 4),
        ):
            m = variance.matrix
            assert np.max(np.abs(m - m.T)) < 1e-12
            assert m[0, 0] >= 0 and m[1, 1] >= 0


def test_interval_widths_grow_with_bandwidth():
    for name in ("alpha", "delta"):
        series = load_bundled(name)
        result = fit(series)
        widths = []
        for k in range(7):
            est = interval_for_gamma(hac_sandwich(series, result, k), result, 4.7)
            widths.append(est.ci_high - est.ci_low)
        # widths generally grow with the bandwidth; small dips are possible
        # because sample autocovariances can be negative
        assert all(a <= b + 1e-3 for a, b in zip(widths, widths[1:]))
        assert widths[0] < widths[6]


def test_doubling_counts_halves_fisher_variance():
    series = load_bundled("alpha")
    doubled = SurveillanceSeries(
        series.t_values, series.labels, 2 * series.counts, series.variant_names, series.period_days
    )
    v1 = fisher_information(series, fit(series)).matrix
    v2 = fisher_information(doubled, fit(doubled)).matrix
    assert np.allclose(v2, v1 / 2, rtol=1e-8)


def test_bandwidth_too_large():
    series = load_bundled("delta")
    result = fit(series)
    with pytest.raises(BandwidthTooLarge):
        hac_sandwich(series, result, len(series))


def test_k0_matches_fisher_under_correct_specification():
    # Monte Carlo: with a correctly specified model and large counts, the
    # score outer-product and information estimates converge to each other.
    from variantfit.simulate import SimConfig, simulate

    config = SimConfig(
        gammas=(1.6,),
        initial_proportions=(0.98, 0.02),
        sequenced=tuple([200_000] * 12),
        seed=31,
    )
    fisher_avg = np.zeros((2, 2))
    sandwich_avg = np.zeros((2, 2))
    n_rep = 40
    for rep in range(n_rep):
        series = simulate(config, replication=rep)
        result = fit(series)
        fisher_avg += fisher_information(series, result).matrix
        sandwich_avg += hac_sandwich(series, result, 0).matrix
    fisher_avg /= n_rep
    sandwich_avg /= n_rep
    assert np.allclose(sandwich_avg, fisher_avg, rtol=0.15)


def test_interval_for_gamma_week_alpha():
    series = load_bundled("alpha")
    result = fit(series)
    est = interval_for_gamma(hac_sandwich(series, result, 4), result, 7.0)
    assert est.gamma.value == pytest.approx(1.86, abs=0.01)
    assert est.ci_low == pytest.approx(1.82, abs=0.01)
    assert est.ci_high == pytest.approx(1.89, abs=0.01)


def test_degenerate_interval_when_se_zero():
    series = load_bundled("alpha")
    result = fit(series)
    variance = fisher_information(series, result)
    zero = type(variance)(kind="fisher", matrix=np.zeros((2, 2)))
    est = interval_for_gamma(zero, result, 4.7)
    assert est.ci_low == est.gamma.value == est.ci_high


@pytest.mark.parametrize("bandwidth", [0, 2])
def test_sandwich_refuses_scores_that_vanish_at_the_fit(bandwidth):
    # The logits of 3/10, 5/10 and 7/10 lie on a line: the fit is exact, every
    # score is 0 and J_K ~ 1e-27, so the interval would have zero width.
    series = SurveillanceSeries.two_variant(
        [(t, f"w{t}", 10, x, None, None) for t, x in [(1, 3), (2, 5), (3, 7)]])
    result = fit(series)
    with pytest.raises(Singular, match="scores vanish"):
        hac_sandwich(series, result, bandwidth)
    assert fisher_information(series, result).matrix[1, 1] > 0.1


def test_compose_advantages_points_and_endpoints():
    # Points multiply; the lower and upper log-distances add in quadrature.
    a = AdvantageEstimate(Advantage(1.86, 7.0), 1.82, 1.89, 0.95)
    b = AdvantageEstimate(Advantage(3.16, 7.0), 2.79, 3.59, 0.95)
    combined = compose_advantages(a, b)
    point = 1.86 * 3.16
    below = math.sqrt(math.log(1.86 / 1.82) ** 2 + math.log(3.16 / 2.79) ** 2)
    above = math.sqrt(math.log(1.89 / 1.86) ** 2 + math.log(3.59 / 3.16) ** 2)
    assert combined.gamma.value == pytest.approx(point, rel=1e-12)
    assert combined.ci_low == pytest.approx(point * math.exp(-below), rel=1e-12)
    assert combined.ci_high == pytest.approx(point * math.exp(above), rel=1e-12)
    # Narrower than the product of the endpoints, which adds the distances.
    assert 1.82 * 2.79 < combined.ci_low and combined.ci_high < 1.89 * 3.59


@pytest.mark.parametrize("level", [0.9, 0.95])
def test_compose_wald_intervals_sums_log_variances(level):
    # For Wald intervals exp(beta -+ z se) the composed interval is the Wald
    # interval of beta_a + beta_b with variance var_a + var_b.
    (beta_a, var_a), (beta_b, var_b) = (0.62, 0.0004), (1.15, 0.0049)

    def estimate(beta, variance):
        point, low, high = advantage_interval(beta, variance, 1.0, level)
        return AdvantageEstimate(Advantage(point, 7.0), low, high, level)

    combined = compose_advantages(estimate(beta_a, var_a), estimate(beta_b, var_b))
    point, low, high = advantage_interval(beta_a + beta_b, var_a + var_b, 1.0, level)
    assert combined.gamma.value == pytest.approx(point, rel=1e-12)
    assert combined.ci_low == pytest.approx(low, rel=1e-12)
    assert combined.ci_high == pytest.approx(high, rel=1e-12)


def test_compose_identity():
    a = AdvantageEstimate(Advantage(1.7, 7.0), 1.6, 1.8, 0.95)
    unit = AdvantageEstimate(Advantage(1.0, 7.0), 1.0, 1.0, 0.95)
    combined = compose_advantages(a, unit)
    assert (combined.gamma.value, combined.ci_low, combined.ci_high) == pytest.approx(
        (1.7, 1.6, 1.8), rel=1e-12
    )


def test_compose_zero_lower_endpoint():
    a = AdvantageEstimate(Advantage(1.7, 7.0), 0.0, 1.8, 0.95)
    b = AdvantageEstimate(Advantage(2.0, 7.0), 1.9, 2.1, 0.95)
    combined = compose_advantages(a, b)
    assert combined.ci_low == 0.0
    assert combined.gamma.value == pytest.approx(3.4)


def test_compose_period_mismatch():
    a = AdvantageEstimate(Advantage(1.7, 7.0), 1.6, 1.8, 0.95)
    b = AdvantageEstimate(Advantage(1.7, 4.7), 1.6, 1.8, 0.95)
    with pytest.raises(PeriodMismatch):
        compose_advantages(a, b)


def test_compose_level_mismatch_is_invalid_value():
    a = AdvantageEstimate(Advantage(1.7, 7.0), 1.6, 1.8, 0.95)
    b = AdvantageEstimate(Advantage(1.7, 7.0), 1.6, 1.8, 0.9)
    with pytest.raises(InvalidValue, match="levels differ"):
        compose_advantages(a, b)
    with pytest.raises(ValueError):
        compose_advantages(a, b)


@pytest.mark.parametrize("bandwidth", [None, 4])
def test_variance_refuses_a_series_with_more_variants_than_the_fit(bandwidth):
    # Unchecked, the fit's (alpha, beta) broadcast over both non-numeraire
    # columns of the copied-column series and give a 4x4 "covariance".
    alpha = load_bundled("alpha")
    three = SurveillanceSeries(
        t_values=alpha.t_values,
        labels=alpha.labels,
        counts=np.column_stack([alpha.counts, alpha.counts[:, 1]]),
        variant_names=("ancestral", "alpha", "copy"),
        period_days=alpha.period_days,
    )
    result = fit(alpha)
    with pytest.raises(InvalidValue, match="series the fit was made from"):
        if bandwidth is None:
            fisher_information(three, result)
        else:
            hac_sandwich(three, result, bandwidth)


def test_delta_vs_ancestral_composition():
    alpha, delta = load_bundled("alpha"), load_bundled("delta")
    fa, fd = fit(alpha), fit(delta)
    ea = interval_for_gamma(hac_sandwich(alpha, fa, 4), fa, 4.7)
    ed = interval_for_gamma(hac_sandwich(delta, fd, 4), fd, 4.7)
    combined = compose_advantages(ea, ed)
    assert combined.gamma.value == pytest.approx(3.28, abs=0.03)
    week = compose_advantages(
        interval_for_gamma(hac_sandwich(alpha, fa, 4), fa, 7.0),
        interval_for_gamma(hac_sandwich(delta, fd, 4), fd, 7.0),
    )
    assert week.gamma.value == pytest.approx(5.87, abs=0.02)


@pytest.mark.parametrize("bandwidth", [None, 4])
def test_variance_refuses_a_different_series(bandwidth):
    # The Alpha fit with the Delta counts: both are two-variant series, so
    # only the check against the fit's own series stops a covariance of the
    # Alpha estimates computed from the Delta counts.
    alpha, delta = load_bundled("alpha"), load_bundled("delta")
    result = fit(alpha)
    with pytest.raises(InvalidValue, match="series the fit was made from"):
        if bandwidth is None:
            fisher_information(delta, result)
        else:
            hac_sandwich(delta, result, bandwidth)


def test_variance_accepts_an_equal_series():
    result = fit(load_bundled("alpha"))
    again = load_bundled("alpha")
    assert again is not result.series
    expected = hac_sandwich(result.series, result, 4).matrix
    assert np.array_equal(hac_sandwich(again, result, 4).matrix, expected)


def _simulated(m):
    config = SimConfig(
        gammas=tuple(1.2 + 0.1 * k for k in range(m - 1)),
        initial_proportions=(0.9,) + (0.1 / (m - 1),) * (m - 1),
        sequenced=(3000,) * 18,
        seed=10 + m,
    )
    return simulate(config)


@pytest.mark.parametrize("bandwidth", [None, 4])
@pytest.mark.parametrize("m", [2, 3])
def test_variance_from_the_fit_equals_recomputed_at_theta(m, bandwidth):
    series = _simulated(m)
    result = fit(series)
    scores, h = model_derivatives(np.array(result.theta), *series.columns)
    recomputed = dataclasses.replace(result, scores=scores, information=-h)
    expected = sandwich(recomputed, bandwidth).matrix
    if bandwidth is None:
        got = fisher_information(series, result).matrix
    else:
        got = hac_sandwich(series, result, bandwidth).matrix
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_fit_and_variance_evaluate_the_derivatives_once_per_newton_step(monkeypatch):
    # Newton evaluates the derivatives once per step and once more at the
    # optimum, where the fit keeps them; the variance evaluates nothing.
    import variantfit.estimate as estimate

    calls = []

    def counted(*args):
        calls.append(1)
        return model_derivatives(*args)

    monkeypatch.setattr(estimate, "model_derivatives", counted)
    series = load_bundled("alpha")
    result = fit(series)
    fisher_information(series, result)
    hac_sandwich(series, result, 4)
    assert result.iterations == 4
    assert len(calls) == result.iterations + 1


def test_interval_for_each_variant():
    series = _simulated(3)
    result = fit(series)
    variance = hac_sandwich(series, result, 4)
    for j in (1, 2):
        est = interval_for_gamma(variance, result, 4.7, variant=j)
        b, v = result.theta[2 * j - 1], variance.matrix[2 * j - 1, 2 * j - 1]
        scale = 4.7 / series.period_days
        assert est.gamma.value == pytest.approx(math.exp(scale * b), rel=1e-14)
        assert est.ci_low == pytest.approx(math.exp(scale * (b - 1.96 * math.sqrt(v))), rel=1e-14)
    for j in (0, 3):
        with pytest.raises(InvalidIndex):
            interval_for_gamma(variance, result, 4.7, variant=j)


def test_k0_sandwich_matches_hand_computation():
    series = load_bundled("omicron")
    result = fit(series)
    scores, h = model_derivatives(np.array(result.theta), *series.columns)
    info = -h
    j = scores.T @ scores
    expected = np.linalg.solve(info, j) @ np.linalg.inv(info)
    got = hac_sandwich(series, result, 0).matrix
    assert np.allclose(got, expected, rtol=1e-10)
