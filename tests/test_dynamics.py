import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from variantfit.datasets import load_bundled
from variantfit.dynamics import Advantage, AdvantageEstimate, ModelParams, Proportion
from variantfit.errors import InvalidValue, NonPositivePeriod
from variantfit.estimate import fit, log_softmax
from variantfit.inference import hac_sandwich, interval_for_gamma

from oracles import step_lambda


def from_log_odds(value: float) -> Proportion:
    """expit(value) through the package's one logistic map, the log-softmax
    of the two-variant logits (0, value)."""
    return Proportion(float(np.exp(log_softmax(np.array([0.0, value])))[1]))


def _log_odds(p: float) -> float:
    return math.log(p) - math.log1p(-p)


def _odds(lam: Proportion) -> float:
    return lam.value / (1.0 - lam.value)


def test_value_classes_equal_only_their_own_class():
    assert Proportion(0.5) != (0.5,)
    assert Proportion(0.5) == Proportion(0.5)


@pytest.mark.parametrize("make, error", [
    (lambda: Proportion(0.5)._replace(value=2.0), InvalidValue),
    (lambda: Advantage(0.0), InvalidValue),
    (lambda: ModelParams(math.nan, 0.0), InvalidValue),
    (lambda: AdvantageEstimate(Advantage(2.0), 2.5, 3.0, 0.95), InvalidValue),
    # nan fails `<= 0` as well as `> 0`, so the tests read `not x > 0`.
    (lambda: Advantage(math.nan), InvalidValue),
    (lambda: Advantage(2.0, math.nan), NonPositivePeriod),
    (lambda: Advantage(2.0, 0.0), NonPositivePeriod),
], ids=["replaced-proportion", "zero-advantage", "nan-params", "point-outside-interval",
        "nan-advantage", "nan-period", "zero-period"])
def test_value_classes_validate_their_fields(make, error):
    with pytest.raises(error):
        make()


def test_step_identity_at_gamma_one():
    assert step_lambda(Proportion(0.5), Advantage(1.0)).value == 0.5


def test_step_absorbing_boundaries():
    assert step_lambda(Proportion(0.0), Advantage(3.0)).value == 0.0
    assert step_lambda(Proportion(1.0), Advantage(3.0)).value == 1.0


def test_step_direct_arithmetic():
    out = step_lambda(Proportion(0.1), Advantage(1.86))
    assert out.value == pytest.approx(0.186 / 1.086, abs=1e-12)


def test_lambda_at_symmetric():
    # The closed form lam_t = expit(alpha + beta * t).
    assert from_log_odds(0.0 + 0.0 * 17.0).value == 0.5


def test_lambda_at_published_parameters():
    assert from_log_odds(-4.11 + 0.244 * 0).value == pytest.approx(
        1.0 / (1.0 + math.exp(4.11)), abs=1e-12
    )
    assert from_log_odds(-7.8 + 0.619 * 40).value > 0.999


@given(
    alpha=st.floats(-10, 5),
    beta=st.floats(-1, 2),
    t=st.integers(0, 50),
)
def test_recursion_equals_closed_form(alpha, beta, t):
    stepped = step_lambda(from_log_odds(alpha + beta * t), Advantage(math.exp(beta)))
    assert stepped.value == pytest.approx(from_log_odds(alpha + beta * (t + 1)).value, abs=1e-12)


@given(alpha=st.floats(-5, 5), beta=st.floats(-0.3, 0.3), t=st.integers(0, 30))
def test_log_odds_affine_in_t(alpha, beta, t):
    # keep |alpha + beta*t| moderate: the proportion is stored as a double,
    # so the round trip degrades exponentially in the linear predictor
    lo = _log_odds(from_log_odds(alpha + beta * t).value)
    assert lo == pytest.approx(alpha + beta * t, rel=1e-9, abs=1e-9)


def test_odds_values():
    # Odds 1 and 3 are the proportions 1/2 and 3/4.
    assert from_log_odds(math.log(1.0)).value == pytest.approx(0.5)
    assert from_log_odds(math.log(3.0)).value == pytest.approx(0.75)


def test_odds_ratio_is_gamma():
    lam = Proportion(0.3)
    nxt = step_lambda(lam, Advantage(2.0))
    assert _odds(nxt) / _odds(lam) == pytest.approx(2.0, abs=1e-12)


@given(st.floats(0.001, 0.999))
def test_log_odds_round_trip(p):
    assert from_log_odds(_log_odds(p)).value == pytest.approx(p, abs=1e-14)


def test_boundary_odds():
    # Log-odds far beyond the double range of exp still give the boundary
    # proportions, without overflow or any other warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert from_log_odds(800.0).value == 1.0
        assert from_log_odds(-800.0).value == 0.0


def test_minus_infinite_logit_gives_an_exact_zero_share():
    logits = np.array([[-np.inf, 0.0, 1.0], [2.0, -np.inf, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shares = np.exp(log_softmax(logits))
    assert shares[0, 0] == 0.0 and shares[1, 1] == 0.0
    assert shares[0, 1:] == pytest.approx([1 / (1 + math.e), math.e / (1 + math.e)], rel=1e-15)
    assert shares.sum(axis=1) == pytest.approx([1.0, 1.0], rel=1e-15)


def test_log_softmax_maps_the_last_axis_of_any_shape():
    logits = np.random.default_rng(7).normal(scale=5.0, size=(3, 4, 5))
    before = logits.copy()
    out = log_softmax(logits)
    assert out.shape == logits.shape and np.array_equal(logits, before)
    for index in np.ndindex(3, 4):
        row = logits[index]
        assert out[index] == pytest.approx(row - math.log(sum(map(math.exp, row))), abs=1e-12)


def test_monotone_progression_to_one():
    lam = Proportion(0.01)
    prev = lam.value
    for _ in range(200):
        lam = step_lambda(lam, Advantage(1.5))
        assert lam.value >= prev
        prev = lam.value
    assert lam.value > 1 - 1e-9


def _alpha_fit():
    series = load_bundled("alpha")
    result = fit(series)
    return result, hac_sandwich(series, result, 4)


def test_rescale_week_to_generation():
    result, variance = _alpha_fit()
    g = interval_for_gamma(variance, result, 4.7)
    assert g.gamma.value == pytest.approx(math.exp((4.7 / 7) * result.params.beta), rel=1e-12)
    assert g.gamma.value == pytest.approx(1.51, abs=0.005)  # published per-generation value


def test_rescale_day_to_week():
    series = load_bundled("omicron")
    result = fit(series)
    g = interval_for_gamma(hac_sandwich(series, result, 4), result, 7.0)
    assert g.gamma.value == pytest.approx(result.params.gamma**7, rel=1e-12)
    # the unrounded daily estimate reproduces the printed weekly value
    assert g.gamma.value == pytest.approx(5.52, abs=0.005)


def test_rescale_identity_and_composition():
    result, variance = _alpha_fit()
    own = interval_for_gamma(variance, result)
    assert own.gamma.value == pytest.approx(result.params.gamma, rel=1e-14)
    # Rescaling is a power of the point and of both endpoints: the interval
    # over 11 days is the one over 3 days raised to 11/3.
    three = interval_for_gamma(variance, result, 3.0)
    eleven = interval_for_gamma(variance, result, 11.0)
    for a, b in [(three.gamma.value, eleven.gamma.value), (three.ci_low, eleven.ci_low),
                 (three.ci_high, eleven.ci_high)]:
        assert a ** (11 / 3) == pytest.approx(b, rel=1e-12)


def test_rescale_rejects_nonpositive():
    result, variance = _alpha_fit()
    for days in (0.0, -4.7):
        with pytest.raises(NonPositivePeriod):
            interval_for_gamma(variance, result, days)
