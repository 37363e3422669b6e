import hashlib
import io
import math

import numpy as np
import pytest

from variantfit.data import SurveillanceSeries
from variantfit.datasets import load_bundled
from variantfit.errors import EmptySeries, ParseError, Separation
from variantfit.estimate import fit, model_derivatives, model_log_likelihood
from variantfit.inference import fisher_information, fit_multi, hac_sandwich
from variantfit.multivariant import load_multi_csv, to_multi_csv_string
from variantfit.simulation import SimConfig, simulate


def _three_variant_series(n=10**6, t_max=12):
    # expected counts under a known softmax path, rounded to integers
    alphas = (-4.0, -7.0)
    betas = (0.35, 0.65)
    rows = []
    for t in range(1, t_max + 1):
        etas = np.array([0.0, alphas[0] + betas[0] * t, alphas[1] + betas[1] * t])
        p = np.exp(etas - etas.max())
        p /= p.sum()
        rows.append(np.round(n * p).astype(int))
    counts = np.array(rows)
    return SurveillanceSeries(
        t_values=tuple(range(1, t_max + 1)),
        labels=tuple(f"p{t}" for t in range(1, t_max + 1)),
        counts=counts,
        variant_names=("wild", "one", "two"),
        period_days=7.0,
    )


def _betas(result):
    return tuple(result.theta[1::2])


def _gammas(result):
    return tuple(np.exp(result.theta[1::2]))


def _binary_multi(series):
    n, x = series.binomial_counts()
    counts = np.column_stack([n - x, x])
    return SurveillanceSeries(
        t_values=series.t_values,
        labels=series.labels,
        counts=counts,
        variant_names=("incumbent", "variant"),
        period_days=series.period_days,
    )


@pytest.mark.parametrize("name", ["alpha", "delta", "omicron"])
def test_two_variant_fit_reduces_to_binary(name):
    series = load_bundled(name)
    binary = fit(series)
    result, variance = fit_multi(_binary_multi(series))
    assert result.params.alpha == pytest.approx(binary.params.alpha, abs=1e-8)
    assert result.params.beta == pytest.approx(binary.params.beta, abs=1e-8)
    assert result.params.gamma == pytest.approx(binary.params.gamma, rel=1e-8)


def test_two_variant_hac_variance_matches_binary():
    series = load_bundled("delta")
    binary = fit(series)
    v_binary = hac_sandwich(series, binary, 4).matrix
    _, variance = fit_multi(_binary_multi(series), bandwidth=4)
    assert np.allclose(variance.matrix, v_binary, rtol=1e-6)


def test_recovers_generating_parameters_from_expected_counts():
    series = _three_variant_series()
    result, _ = fit_multi(series)
    assert tuple(result.theta[0::2]) == pytest.approx((-4.0, -7.0), abs=5e-4)
    assert _betas(result) == pytest.approx((0.35, 0.65), abs=5e-5)
    assert _gammas(result) == pytest.approx((math.exp(0.35), math.exp(0.65)), rel=1e-4)


def test_marginalization_consistency():
    # fitting the reduced two-variant series directly gives nearly the same
    # advantage as the joint fit; exact up to integer rounding of counts
    series = _three_variant_series()
    joint, _ = fit_multi(series)
    for j in (2, 3):
        reduced = series.select(variants=[0, j - 1])
        pairwise = fit(reduced)
        assert pairwise.params.beta == pytest.approx(_betas(joint)[j - 2], abs=1e-5)


def test_select_pair_counts_and_roles():
    series = _three_variant_series(n=1000, t_max=5)
    reduced = series.select(variants=[1, 2])
    sequenced, variant_count = reduced.binomial_counts()
    for n, x, i in zip(sequenced, variant_count, range(5)):
        assert x == series.counts[i, 2]
        assert n == series.counts[i, 1] + series.counts[i, 2]


def test_relabeling_numeraire_preserves_pairwise_advantages():
    series = _three_variant_series(n=10**6)
    swapped = SurveillanceSeries(
        t_values=series.t_values,
        labels=series.labels,
        counts=series.counts[:, [1, 0, 2]],
        variant_names=("one", "wild", "two"),
        period_days=series.period_days,
    )
    base, _ = fit_multi(series)
    other, _ = fit_multi(swapped)
    base_gammas, other_gammas = _gammas(base), _gammas(other)
    # advantage of variant 3 over variant 2 must not depend on the numeraire
    ratio_base = base_gammas[1] / base_gammas[0]
    ratio_other = other_gammas[1] * other_gammas[0] ** 0  # two vs new numeraire "one"
    # under the swap, gamma of "wild" is 1/old gamma of "one", gamma of
    # "two" is old gamma_two / old gamma_one
    assert other_gammas[0] == pytest.approx(1.0 / base_gammas[0], rel=1e-6)
    assert other_gammas[1] == pytest.approx(ratio_base, rel=1e-6)
    assert ratio_other == pytest.approx(base_gammas[1] / base_gammas[0], rel=1e-6)


def test_score_and_hessian_match_finite_differences():
    rng = np.random.default_rng(77)
    counts = rng.integers(1, 400, size=(8, 3))
    series = SurveillanceSeries(
        t_values=tuple(range(1, 9)),
        labels=tuple("abcdefgh"),
        counts=counts,
        variant_names=("v1", "v2", "v3"),
        period_days=7.0,
    )
    theta = np.array([0.2, 0.05, -0.4, 0.1])

    def ll(vec):
        return model_log_likelihood(vec, *series.columns)

    eps = 1e-6
    scores, hess = model_derivatives(theta, *series.columns)
    grad = scores.sum(axis=0)
    for i in range(4):
        e = np.zeros(4)
        e[i] = eps
        fd = (ll(theta + e) - ll(theta - e)) / (2 * eps)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-5)
        fd_row = (
            np.array(
                [
                    (ll(theta + e + f) - ll(theta + e - f) - ll(theta - e + f) + ll(theta - e - f))
                    / (4 * eps * eps)
                    for f in np.eye(4) * eps
                ]
            )
        )
        assert np.allclose(hess[i], fd_row, rtol=1e-3, atol=1e-2)


def test_hessian_negative_definite_at_interior_point():
    series = _three_variant_series(n=1000, t_max=8)
    _, h = model_derivatives(np.array([-1.0, 0.2, -2.0, 0.4]), *series.columns)
    eigenvalues = np.linalg.eigvalsh(h)
    assert np.all(eigenvalues < 0)


def test_separation_raises():
    counts = np.array([[50, 0, 10], [40, 0, 20], [30, 0, 30]])
    series = SurveillanceSeries(
        t_values=(1, 2, 3),
        labels=("a", "b", "c"),
        counts=counts,
        variant_names=("v1", "v2", "v3"),
        period_days=7.0,
    )
    with pytest.raises(Separation):
        fit_multi(series)


def test_csv_round_trip():
    series = _three_variant_series(n=1000, t_max=5)
    text = to_multi_csv_string(series)
    back = load_multi_csv(io.BytesIO(text.encode()), period_days=series.period_days)
    assert back.t_values == series.t_values
    assert back.labels == series.labels
    assert back.variant_names == series.variant_names
    assert np.array_equal(back.counts, series.counts)


def test_csv_rejects_bad_header_and_values():
    with pytest.raises(ParseError):
        load_multi_csv(io.BytesIO("t,label\n1,a\n".encode()))
    bad = "t,label,count_a,count_b\n1,w1,10,x\n2,w2,5,6\n"
    with pytest.raises(ParseError):
        load_multi_csv(io.BytesIO(bad.encode()))


def test_csv_header_only_is_empty_series():
    with pytest.raises(EmptySeries, match="need at least 2 periods, got 0"):
        load_multi_csv(io.BytesIO("t,label,count_a,count_b\n".encode()))


def test_ten_variant_long_series_converges():
    # Nine faster variants take over from a numeraire that starts at 91%.
    # At the optimum the score is at float resolution, which is above any
    # fixed absolute bound at this scale.
    gammas = tuple(1.01 + 0.01 * k for k in range(9))
    config = SimConfig(
        gammas=gammas,
        initial_proportions=(0.91,) + (0.01,) * 9,
        sequenced=(3000,) * 500,
        seed=7,
    )
    series = simulate(config)
    result, variance = fit_multi(series)
    g = model_derivatives(result.theta, *series.columns)[0].sum(axis=0)
    n = series.totals.astype(float)
    t = np.asarray(series.t_values, dtype=float)
    assert np.all(np.abs(g[0::2]) <= 1e-12 * n.sum())
    assert np.all(np.abs(g[1::2]) <= 1e-12 * (n * t).sum())
    assert _gammas(result) == pytest.approx(gammas, rel=1e-3)
    assert variance.kind == "fisher"


def test_separation_when_a_variant_appears_after_the_others_vanish():
    counts = np.array([[10, 5, 0], [10, 6, 0], [10, 7, 5]])
    series = SurveillanceSeries(
        t_values=(1, 2, 3), labels=("a", "b", "c"), counts=counts, variant_names=("v1", "v2", "v3")
    )
    with pytest.raises(Separation):
        fit_multi(series)


def test_fit_when_one_variant_vanishes_before_another_appears():
    # Variants 2 and 3 are never seen together, but each overlaps the
    # numeraire, so the MLE exists although not every pair of ranges overlaps.
    counts = np.array([[50, 20, 0], [50, 15, 0], [50, 10, 0], [50, 0, 5], [50, 0, 10], [50, 0, 20]])
    series = SurveillanceSeries(
        t_values=tuple(range(1, 7)),
        labels=tuple("abcdef"),
        counts=counts,
        variant_names=("v1", "v2", "v3"),
    )
    result, variance = fit_multi(series)
    scores = model_derivatives(result.theta, *series.columns)[0]
    assert np.max(np.abs(scores.sum(axis=0))) < 1e-8 * counts.sum()
    assert np.all(np.isfinite(variance.matrix)) and np.all(np.diag(variance.matrix) > 0)


@pytest.mark.parametrize("bandwidth", [None, 0, 4])
@pytest.mark.parametrize("m", [2, 3, 10])
def test_fit_multi_is_fit_plus_variance(m, bandwidth):
    config = SimConfig(
        gammas=tuple(1.05 + 0.05 * k for k in range(m - 1)),
        initial_proportions=(0.9,) + (0.1 / (m - 1),) * (m - 1),
        sequenced=(3000,) * 40,
        seed=m,
    )
    series = simulate(config)
    result, variance = fit_multi(series, bandwidth)
    alone = fit(series)
    if bandwidth is None:
        expected = fisher_information(series, alone)
    else:
        expected = hac_sandwich(series, alone, bandwidth)
    for name in ("theta", "scores", "information", "shares"):
        assert np.array_equal(getattr(result, name), getattr(alone, name))
    assert (result.log_likelihood, result.iterations, result.score_norm) == (
        alone.log_likelihood, alone.iterations, alone.score_norm
    )
    assert variance.kind == expected.kind
    assert np.array_equal(variance.matrix, expected.matrix)


# SHA-256 of fit_multi's covariance bytes for one seeded m = 3 series,
# recorded before the variance took the fit whole: it must not change by a bit.
FIT_MULTI_COVARIANCE_SHA256 = {
    None: "135aef8f35ab0724fc8182c78d936f3516244c02a272d1a9531893a10a540804",
    4: "282cac229d36244b452564add89acc43c137b4d3eae927b9abbc56496be911d0",
}


@pytest.mark.parametrize("bandwidth", [None, 4])
def test_fit_multi_covariance_is_pinned(bandwidth):
    config = SimConfig(gammas=(1.2, 1.3), initial_proportions=(0.9, 0.05, 0.05),
                       sequenced=(3000,) * 18, seed=13)
    _, variance = fit_multi(simulate(config), bandwidth)
    assert variance.kind == ("fisher" if bandwidth is None else f"sandwich({bandwidth})")
    digest = hashlib.sha256(variance.matrix.tobytes()).hexdigest()
    assert digest == FIT_MULTI_COVARIANCE_SHA256[bandwidth]
