import math
from functools import reduce

import mpmath
import numpy as np
import pytest

from variantfit import estimate
from variantfit.cli import main
from variantfit.data import SurveillanceSeries
from variantfit.datasets import load_bundled
from variantfit.dynamics import ModelParams
from variantfit.errors import InvalidValue, MaxIterations, Separation, Singular
from variantfit.estimate import (FitResult, at_zero, fit, model_derivatives,
                                 model_log_likelihood)
from variantfit.inference import hac_sandwich
from variantfit.simulation import SimConfig, simulate


def series_from_counts(pairs, start=1, period_days=7.0):
    t = range(start, start + len(pairs))
    n, x = zip(*pairs)
    return SurveillanceSeries.from_binomial_columns(
        t, list(map(str, t)), n, x, [None] * len(t), [None] * len(t), period_days)


def random_series(rng, n_periods=8, n_max=500):
    pairs = []
    while True:
        pairs = []
        for _ in range(n_periods):
            n = int(rng.integers(1, n_max))
            pairs.append((n, int(rng.integers(0, n + 1))))
        xs = [x for _, x in pairs]
        ns = [n for n, _ in pairs]
        if any(0 < x for x in xs) and any(x < n for x, n in zip(xs, ns)):
            return series_from_counts(pairs)


def _theta(params):
    return np.array([params.alpha, params.beta])


def log_likelihood_at(series, params):
    return model_log_likelihood(_theta(params), *series.columns)


def score_at(series, params):
    return model_derivatives(_theta(params), *series.columns)[0].sum(axis=0)


def hessian_at(series, params):
    return model_derivatives(_theta(params), *series.columns)[1]


def mp_log_likelihood(series, params):
    """Independent summation oracle in 50-digit arithmetic."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        sequenced, variant_count = series.binomial_counts()
        for t, n, x in zip(series.t_values, sequenced.tolist(), variant_count.tolist()):
            eta = mpmath.mpf(params.alpha) + mpmath.mpf(params.beta) * t
            lam = 1 / (1 + mpmath.e**-eta)
            if x:
                total += x * mpmath.log(lam)
            if n - x:
                total += (n - x) * mpmath.log(1 - lam)
        return float(total)


def test_log_likelihood_even_split_at_origin():
    series = series_from_counts([(10, 5), (20, 10), (8, 4)])
    total_n = 10 + 20 + 8
    assert log_likelihood_at(series, ModelParams(0.0, 0.0)) == pytest.approx(
        total_n * math.log(0.5), rel=1e-12
    )


def test_log_likelihood_matches_extended_precision_oracle():
    series = load_bundled("alpha")
    params = ModelParams(-8.75, 0.619)
    assert log_likelihood_at(series, params) == pytest.approx(
        mp_log_likelihood(series, params), rel=1e-9
    )


def test_log_likelihood_maximized_at_fit():
    series = load_bundled("delta")
    result = fit(series)
    best = result.log_likelihood
    rng = np.random.default_rng(4)
    for _ in range(100):
        perturbed = ModelParams(
            result.params.alpha + rng.normal(scale=0.5),
            result.params.beta + rng.normal(scale=0.2),
        )
        assert log_likelihood_at(series, perturbed) <= best + 1e-10


def fd_score(series, params, h=1e-6):
    out = []
    for i in range(2):
        d = [0.0, 0.0]
        d[i] = h
        hi = log_likelihood_at(series, ModelParams(params.alpha + d[0], params.beta + d[1]))
        lo = log_likelihood_at(series, ModelParams(params.alpha - d[0], params.beta - d[1]))
        out.append((hi - lo) / (2 * h))
    return np.array(out)


def fd_hessian(series, params, h=1e-5):
    out = np.zeros((2, 2))
    for i in range(2):
        d = [0.0, 0.0]
        d[i] = h
        hi = score_at(series, ModelParams(params.alpha + d[0], params.beta + d[1]))
        lo = score_at(series, ModelParams(params.alpha - d[0], params.beta - d[1]))
        out[:, i] = (hi - lo) / (2 * h)
    return out


def test_score_matches_finite_differences_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(100):
        series = random_series(rng, n_periods=int(rng.integers(3, 9)))
        params = ModelParams(float(rng.normal(scale=2)), float(rng.normal(scale=0.4)))
        analytic = score_at(series, params)
        approx = fd_score(series, params)
        denom = max(1.0, float(np.max(np.abs(analytic))))
        assert np.max(np.abs(analytic - approx)) / denom < 1e-5


def test_hessian_matches_finite_differences_on_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(100):
        series = random_series(rng, n_periods=int(rng.integers(3, 9)))
        params = ModelParams(float(rng.normal(scale=2)), float(rng.normal(scale=0.4)))
        analytic = hessian_at(series, params)
        approx = fd_hessian(series, params)
        denom = max(1.0, float(np.max(np.abs(analytic))))
        assert np.max(np.abs(analytic - approx)) / denom < 1e-5


def test_hessian_symmetric_negative_definite_at_optimum():
    series = load_bundled("alpha")
    result = fit(series)
    h = hessian_at(series, result.params)
    assert h[0, 1] == h[1, 0]
    assert np.all(np.linalg.eigvalsh(h) < 0)


def test_score_vanishes_at_optimum():
    series = load_bundled("alpha")
    result = fit(series)
    assert np.max(np.abs(score_at(series, result.params))) < 1e-6


def test_singular_hessian_single_period_mass():
    series = series_from_counts([(100, 30), (0, 0), (0, 0)])
    h = hessian_at(series, ModelParams(0.0, 0.0))
    assert abs(np.linalg.det(h)) < 1e-8 * abs(h[0, 0]) ** 2
    with pytest.raises(Singular):
        fit(series)


def test_separation_raises():
    with pytest.raises(Separation):
        fit(series_from_counts([(10, 0), (20, 0), (30, 0)]))
    with pytest.raises(Separation):
        fit(series_from_counts([(10, 10), (20, 20)]))


def test_saturated_two_point_fit():
    series = series_from_counts([(10, 2), (10, 5)])
    result = fit(series)
    assert result.shares[:, 1] == pytest.approx([0.2, 0.5], abs=1e-9)


def test_published_point_estimates():
    assert fit(load_bundled("alpha")).params.beta == pytest.approx(0.619, abs=0.002)
    assert fit(load_bundled("delta")).params.gamma == pytest.approx(3.16, abs=0.02)
    omicron = fit(load_bundled("omicron"))
    assert omicron.params.alpha == pytest.approx(-4.11, abs=0.02)
    assert omicron.params.beta == pytest.approx(0.244, abs=0.002)


def grid_search(series, bounds=((-15.0, 5.0), (-1.0, 3.0)), coarse=41, refinements=6):
    """Independent optimizer: nested grid refinement down to 1e-4 spacing."""
    (a_lo, a_hi), (b_lo, b_hi) = bounds
    best = None
    for _ in range(refinements):
        alphas = np.linspace(a_lo, a_hi, coarse)
        betas = np.linspace(b_lo, b_hi, coarse)
        values = np.array(
            [
                [log_likelihood_at(series, ModelParams(a, b)) for b in betas]
                for a in alphas
            ]
        )
        i, j = np.unravel_index(np.argmax(values), values.shape)
        best = (alphas[i], betas[j])
        da = (a_hi - a_lo) / (coarse - 1)
        db = (b_hi - b_lo) / (coarse - 1)
        a_lo, a_hi = best[0] - 2 * da, best[0] + 2 * da
        b_lo, b_hi = best[1] - 2 * db, best[1] + 2 * db
        if da < 1e-4 and db < 1e-4:
            break
    return best


def test_grid_search_oracle_agreement():
    rng = np.random.default_rng(21)
    for _ in range(5):
        series = random_series(rng, n_periods=int(rng.integers(3, 7)), n_max=200)
        result = fit(series)
        if not (-14 < result.params.alpha < 4 and -0.9 < result.params.beta < 2.9):
            continue
        a, b = grid_search(series)
        assert result.params.alpha == pytest.approx(a, abs=1e-3)
        assert result.params.beta == pytest.approx(b, abs=1e-3)


def test_sequencing_intensity_invariance():
    series = load_bundled("delta")
    scaled = SurveillanceSeries(
        series.t_values, series.labels, 7 * series.counts, series.variant_names, series.period_days
    )
    base = fit(series)
    big = fit(scaled)
    assert big.params.alpha == pytest.approx(base.params.alpha, abs=1e-10)
    assert big.params.beta == pytest.approx(base.params.beta, abs=1e-10)


def test_time_shift_covariance():
    series = load_bundled("alpha")
    shift = 5
    shifted = SurveillanceSeries(
        tuple(t + shift for t in series.t_values),
        series.labels,
        series.counts,
        series.variant_names,
        series.period_days,
    )
    base = fit(series)
    moved = fit(shifted)
    assert moved.params.beta == pytest.approx(base.params.beta, abs=1e-8)
    assert moved.params.alpha == pytest.approx(
        base.params.alpha - base.params.beta * shift, abs=1e-8
    )


def _shifted(series, base):
    return SurveillanceSeries(tuple(t + base for t in series.t_values), series.labels,
                              series.counts, series.variant_names, series.period_days)


@pytest.mark.parametrize("base", [-7, 5_000, 7_000, 18_962, 202_045, 20_211_130, 10**9])
def test_fit_is_made_in_model_time_and_reported_at_t_zero(base):
    series = load_bundled("alpha")
    base_fit, moved = fit(series), fit(_shifted(series, base))
    # Model time t - t_1 + 1 is the same array for both, and so is the fit.
    assert base_fit.series.origin == 0 and moved.series.origin == base
    assert np.array_equal(moved.series.columns[0], series.columns[0])
    assert np.array_equal(moved.theta, base_fit.theta)
    assert np.array_equal(moved.shares, base_fit.shares)
    alpha, beta = base_fit.params
    assert moved.params.beta == beta
    assert moved.params.alpha == pytest.approx(alpha - beta * base, rel=1e-10)
    # The covariance at t = 0 is A cov A' for a = a' - b * base.
    cov = hac_sandwich(series, base_fit, 4).matrix
    moved_cov = at_zero(hac_sandwich(moved.series, moved, 4).matrix, moved.series.origin)
    expected = [[cov[0, 0] - 2 * base * cov[0, 1] + base**2 * cov[1, 1],
                 cov[0, 1] - base * cov[1, 1]],
                [cov[0, 1] - base * cov[1, 1], cov[1, 1]]]
    assert moved_cov == pytest.approx(np.array(expected), rel=1e-9)


@pytest.mark.parametrize("base", [0, 202_045, 10**9])
def test_the_series_columns_pair_with_the_fit_at_any_origin(base):
    # `columns` are the arrays the fit was made from, so the model evaluated
    # on them at theta gives the fit's log-likelihood and zero summed scores.
    series = _shifted(load_bundled("alpha"), base)
    result = fit(series)
    assert model_log_likelihood(result.theta, *series.columns) == result.log_likelihood
    scores = model_derivatives(result.theta, *series.columns)[0]
    assert np.array_equal(scores, result.scores)
    assert scores.sum(axis=0) == pytest.approx([0.0, 0.0], abs=1e-6)


def test_at_zero_moves_every_intercept_of_any_m():
    series = _simulated(3)
    result = fit(_shifted(series, 1_000))
    a2, b2, a3, b3 = result.theta
    assert at_zero(result.theta, result.series.origin) == pytest.approx(
        [a2 - 1_000 * b2, b2, a3 - 1_000 * b3, b3], rel=1e-14)
    unshifted = fit(series)
    assert np.array_equal(at_zero(unshifted.theta, 0), unshifted.theta)


def test_zero_weight_period_has_no_effect():
    base = series_from_counts([(100, 10), (100, 30), (100, 60)])
    padded = SurveillanceSeries(
        base.t_values + (4,),
        base.labels + ("pad",),
        np.vstack([base.counts, [0, 0]]),
        base.variant_names,
        base.period_days,
    )
    a = fit(base)
    b = fit(padded)
    assert a.params.alpha == pytest.approx(b.params.alpha, abs=1e-9)
    assert a.params.beta == pytest.approx(b.params.beta, abs=1e-9)


def test_fitted_values_in_open_interval():
    result = fit(load_bundled("omicron"))
    assert np.all((0.0 < result.shares) & (result.shares < 1.0))
    assert result.shares.sum(axis=1) == pytest.approx(1.0, abs=1e-14)
    assert result.score_norm <= 1e-8


def test_long_daily_series_converges():
    # Daily shares sweep from 0.0004 to 0.9996 over 1000 days, N = 2000 a
    # day. At the optimum the score is at float resolution, which is above
    # any fixed absolute bound at this scale, so only a scale-free stopping
    # rule ends the fit.
    T = 1000
    edge = math.log((1 - 0.0004) / 0.0004)
    beta = 2 * edge / (T - 1)
    lam0 = 1 / (1 + math.exp(edge + beta))
    config = SimConfig(
        gammas=(math.exp(beta),),
        initial_proportions=(1 - lam0, lam0),
        sequenced=(2000,) * T,
        seed=1,
        period_days=1.0,
    )
    series = simulate(config, replication=1)
    result = fit(series)
    n = np.array(series.binomial_counts()[0], dtype=float)
    t = np.array(series.t_values, dtype=float)
    g = score_at(series, result.params)
    assert abs(g[0]) <= 1e-12 * n.sum()
    assert abs(g[1]) <= 1e-12 * (n * np.abs(t)).sum()
    assert result.params.beta == pytest.approx(beta, rel=0.01)


@pytest.mark.parametrize(
    "pairs",
    [
        [(50, 0), (50, 0), (50, 50), (50, 50)],
        [(5, 0), (5, 0), (5, 5)],
        [(50, 0), (50, 10), (50, 50), (50, 50)],
    ],
    ids=["complete", "complete-three-periods", "quasi-complete"],
)
def test_separated_series_raise_separation(pairs):
    # The variant's and the incumbent's observed periods overlap in at most
    # one period, so the likelihood keeps rising as beta grows.
    with pytest.raises(Separation):
        fit(series_from_counts(pairs))


def _identified_by_the_walk(t, counts, n):
    # _check_identified without its early return: every pattern takes the
    # walk over the overlap graph of the variants' observed ranges.
    if np.count_nonzero(n) < 2:
        raise Singular("need at least 2 periods with positive counts")
    m = counts.shape[1]
    seen = counts > 0
    unseen = np.flatnonzero(~seen.any(axis=0))
    if unseen.size:
        raise Separation(f"variant {unseen[0] + 1} of {m} is never observed; the MLE does not exist")
    first = t[seen.argmax(axis=0)]
    last = t[len(t) - 1 - seen[::-1].argmax(axis=0)]
    overlap = (first[:, None] < last[None, :]) & (first[None, :] < last[:, None])
    linked, frontier = {0}, [0]
    while frontier:
        new = set(np.flatnonzero(overlap[frontier.pop()]).tolist()) - linked
        linked |= new
        frontier += new
    if len(linked) < m:
        group = ", ".join(str(j + 1) for j in sorted(linked))
        raise Separation(
            f"the observed periods of variants ({group}) and of the other variants "
            "overlap in at most one period; the MLE does not exist"
        )


def _outcome(check, t, counts, n):
    try:
        check(t, counts, n)
    except (Singular, Separation) as exc:
        return type(exc), str(exc)
    return None


def test_the_identification_accept_gives_the_walk_s_outcome():
    # Seeded count patterns, T = 2..8 periods (with gaps) and m = 2..4
    # variants, ~60 % zeros; in every third one exactly one period sees every
    # variant, so the early return does not apply and the walk decides.
    rng = np.random.default_rng(31)
    outcomes = {"accepted early": 0, "accepted by the walk": 0, "refused": 0}
    for case in range(6000):
        T, m = int(rng.integers(2, 9)), int(rng.integers(2, 5))
        counts = rng.integers(1, 40, (T, m)) * (rng.random((T, m)) >= 0.6)
        if case % 3 == 0:
            complete = rng.integers(T)
            counts[complete] = rng.integers(1, 40, m)
            for row in set(range(T)) - {complete}:
                counts[row, rng.integers(m)] = 0
        counts = counts.astype(float)
        t = np.sort(rng.choice(np.arange(1.0, 13.0), T, replace=False))
        n = counts.sum(axis=1)
        expected = _outcome(_identified_by_the_walk, t, counts, n)
        assert _outcome(estimate._check_identified, t, counts, n) == expected, (t, counts)
        early = np.count_nonzero((counts > 0).all(axis=1)) >= 2
        outcomes["refused" if expected else
                 "accepted early" if early else "accepted by the walk"] += 1
    assert min(outcomes.values()) >= 200, outcomes


def test_params_view_needs_two_variants():
    three = SurveillanceSeries(
        t_values=(1, 2, 3),
        labels=("a", "b", "c"),
        counts=np.array([[10, 5, 1], [5, 6, 2], [3, 9, 4]]),
        variant_names=("v1", "v2", "v3"),
    )
    result = fit(three)
    assert result.theta.shape == (4,)
    with pytest.raises(InvalidValue, match="two-variant"):
        result.params


def _simulated(m, T=18):
    gammas = tuple(1.1 + 0.1 * k for k in range(m - 1))
    config = SimConfig(
        gammas=gammas,
        initial_proportions=(0.9,) + (0.1 / (m - 1),) * (m - 1),
        sequenced=(3000,) * T,
        seed=m,
    )
    return simulate(config)


@pytest.mark.parametrize("m", [2, 3, 10])
def test_fit_result_for_any_m(m):
    series = _simulated(m)
    result = fit(series)
    k = 2 * (m - 1)
    assert isinstance(result, FitResult)
    assert result.series is series
    assert result.theta.shape == (k,)
    assert result.scores.shape == (len(series), k)
    assert result.information.shape == (k, k)
    assert result.shares.shape == (len(series), m)
    assert result.shares.sum(axis=1) == pytest.approx(1.0, abs=1e-14)
    assert result.score_norm == np.max(np.abs(result.scores.sum(axis=0)))
    for array in (result.theta, result.scores, result.information, result.shares):
        with pytest.raises(ValueError):
            array[0] = 0.0


@pytest.mark.parametrize("m", [2, 3])
def test_fit_holds_the_derivatives_at_theta(m):
    series = _simulated(m)
    result = fit(series)
    scores, h = model_derivatives(result.theta, *series.columns)
    assert np.array_equal(result.scores, scores)
    assert np.array_equal(result.information, -h)
    assert result.log_likelihood == model_log_likelihood(result.theta, *series.columns)



@pytest.mark.parametrize("name", ["alpha", "delta", "omicron"])
def test_fit_evaluates_the_softmax_once_per_theta(monkeypatch, name):
    # Once at the start and once per line-search candidate: the derivatives
    # at an accepted step reuse the candidate's softmax. No bundled fit halves
    # a step, so that is iterations + 1 calls.
    import variantfit.estimate as estimate

    calls = []
    log_softmax = estimate._log_softmax

    def counted(*args):
        calls.append(args[0])
        return log_softmax(*args)

    monkeypatch.setattr(estimate, "_log_softmax", counted)
    series = load_bundled(name)
    result = fit(series)
    hac_sandwich(series, result, 4)
    assert result.iterations == 4
    assert len(calls) == 5
    assert np.array_equal(calls[-1], result.theta)

def kron_information(theta, t, counts):
    """-H as the per-period sum of kron(n_t (diag p_t - p_t p_t'), x_t x_t')."""
    m = counts.shape[1]
    eta = np.zeros((len(t), m))
    eta[:, 1:] = theta[0::2] + t[:, None] * theta[1::2]
    total = np.zeros((2 * (m - 1), 2 * (m - 1)))
    for t_i, c_t, eta_t in zip(t, counts, eta):
        p = np.exp(eta_t - eta_t.max())
        p = (p / p.sum())[1:]
        x = np.array([1.0, t_i])
        total += np.kron(c_t.sum() * (np.diag(p) - np.outer(p, p)), np.outer(x, x))
    return total


@pytest.mark.parametrize("T", [18, 500])
@pytest.mark.parametrize("m", [2, 3, 10])
def test_hessian_equals_per_period_kron_sum(m, T):
    rng = np.random.default_rng([m, T])
    t = np.arange(1.0, T + 1)
    counts = rng.integers(0, 3000, size=(T, m)).astype(float)
    # Each log-odds against the numeraire moves by at most 3 over the window.
    theta = np.column_stack([rng.uniform(-1, 1, m - 1), rng.uniform(-3, 3, m - 1) / T]).ravel()
    _, h = model_derivatives(theta, t, counts)
    reference = kron_information(theta, t, counts)
    assert np.array_equal(h, h.T)
    assert np.max(np.abs(h + reference)) <= 1e-12 * np.max(np.abs(reference))


def rowwise_log_softmax(logits):
    """The log-softmax as numpy's row-wise reductions over the last axis."""
    shifted = logits - logits.max(-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))


def rowwise_log_shares(theta, t, m):
    eta = np.zeros((len(t), m))
    eta[:, 1:] = theta[0::2] + t[:, None] * theta[1::2]
    return rowwise_log_softmax(eta)


def rowwise_derivatives(theta, t, counts):
    """model_derivatives as one (T, m - 1, 2) broadcast for the scores and
    (T, m - 1, 4) for the Hessian operand, with row-wise totals."""
    T, m = counts.shape
    k = m - 1
    counts = counts.astype(float)
    n = counts.sum(axis=1)
    xx = np.column_stack([np.ones(T), t, t, t * t])
    p = np.exp(rowwise_log_shares(theta, t, m))[:, 1:]
    resid = counts[:, 1:] - n[:, None] * p
    scores = (resid[:, :, None] * xx[:, None, :2]).reshape(T, -1)
    w = n[:, None] * p
    h = ((w[:, :, None] * xx[:, None, :]).reshape(T, -1).T @ p).reshape(k, 2, 2, k)
    h = h.transpose(0, 1, 3, 2).reshape(2 * k, 2 * k)
    diagonal = np.arange(k)
    h.reshape(k, 2, k, 2)[diagonal, :, diagonal, :] = ((w * (p - 1.0)).T @ xx).reshape(k, 2, 2)
    return scores, 0.5 * (h + h.T)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 10, 16])
def test_log_softmax_is_the_rowwise_one(m):
    # Below 8 variants numpy sums a row left to right, as the kernel's
    # whole-column adds do, so the bits agree; from 8 on it sums rows
    # pairwise, and only the last bits may differ.
    rng = np.random.default_rng(m)
    for shape in [(m,), (1, m), (18, m), (500, m), (3, 7, m)]:
        logits = rng.normal(0.0, 20.0, size=shape)
        # -inf in any column but the first, so each row keeps a finite max.
        logits[..., 1:][rng.random(shape[:-1] + (m - 1,)) < 0.2] = -np.inf
        got, want = estimate.log_softmax(logits), rowwise_log_softmax(logits)
        assert got.shape == want.shape and got.flags.c_contiguous
        if m < 8:
            assert np.array_equal(got, want), shape
        else:
            assert np.allclose(got, want, rtol=1e-15, atol=1e-15), shape


@pytest.mark.parametrize("T", [18, 500])
@pytest.mark.parametrize("m", [2, 3])
def test_kernel_is_bitwise_the_rowwise_one(m, T):
    rng = np.random.default_rng([m, T, 1])
    t = np.arange(1.0, T + 1)
    counts = rng.integers(0, 3000, size=(T, m))
    counts[rng.random(T) < 0.1] = 0
    for _ in range(5):
        theta = np.column_stack([rng.uniform(-2, 2, m - 1), rng.uniform(-3, 3, m - 1) / T]).ravel()
        want = float(np.sum(counts.astype(float) * rowwise_log_shares(theta, t, m)))
        assert model_log_likelihood(theta, t, counts) == want
        scores, h = model_derivatives(theta, t, counts)
        want_scores, want_h = rowwise_derivatives(theta, t, counts)
        assert np.array_equal(scores, want_scores)
        assert np.array_equal(h, want_h)


def columnwise_log_softmax(logits):
    """log_softmax with the max, as well as the sum of exponentials, taken as
    m - 1 whole-column calls over the variant axis."""
    columns = logits.T
    shifted = columns - reduce(np.maximum, columns)
    log_total = np.log(reduce(np.add, np.exp(shifted)))
    log_shares = np.empty(logits.shape)
    np.subtract(shifted, log_total, out=log_shares.T)
    return log_shares


def columnwise_kernel(theta, t, counts):
    """The log-likelihood, scores and Hessian from a zero-filled eta, the
    exponentials of all m columns and the (T, k, 4) operand by broadcasting,
    with a symmetrised Hessian at every m."""
    T, m = counts.shape
    k = m - 1
    eta = np.zeros((m, T))
    eta[1:] = theta[0::2, None] + theta[1::2, None] * t
    log_shares = columnwise_log_softmax(eta.T)
    counts = counts.astype(float)
    ll = float(np.sum(counts * log_shares))
    n = reduce(np.add, counts.T)
    xx = np.column_stack([np.ones(T), t, t, t * t])
    p = np.exp(log_shares)[:, 1:]
    w = n[:, None] * p
    resid = counts[:, 1:] - w
    scores = np.column_stack([resid, resid * t[:, None]]).reshape(T, 2, k)
    scores = scores.transpose(0, 2, 1).reshape(T, 2 * k)
    blocks = ((w * (p - 1.0)).T @ xx).reshape(k, 2, 2)
    if k == 1:
        h = blocks[0]
    else:
        h = ((w[:, :, None] * xx[:, None, :]).reshape(T, -1).T @ p).reshape(k, 2, 2, k)
        h = h.transpose(0, 1, 3, 2).reshape(2 * k, 2 * k)
        diagonal = np.arange(k)
        h.reshape(k, 2, k, 2)[diagonal, :, diagonal, :] = blocks
    return ll, scores, 0.5 * (h + h.T)


@pytest.mark.parametrize("T", [1, 2, 17, 500])
@pytest.mark.parametrize("m", [2, 3, 8, 10, 16])
def test_kernel_is_bitwise_the_columnwise_one(m, T):
    # At every m, rows with no counts and shares near 0 and 1 included.
    rng = np.random.default_rng([m, T, 2])
    t = np.arange(1.0, T + 1)
    counts = rng.integers(0, 3000, size=(T, m))
    counts[rng.random(T) < 0.2] = 0
    for spread in (1.0, 30.0):
        theta = np.column_stack([rng.uniform(-spread, spread, m - 1),
                                 rng.uniform(-3, 3, m - 1) * spread / T]).ravel()
        want_ll, want_scores, want_h = columnwise_kernel(theta, t, counts)
        assert model_log_likelihood(theta, t, counts) == want_ll
        scores, h = model_derivatives(theta, t, counts)
        assert np.array_equal(scores, want_scores)
        assert np.array_equal(h, want_h)
        if m == 2:
            assert np.array_equal(h, h.T)


@pytest.mark.parametrize("m", [2, 3, 8, 10, 16])
def test_log_softmax_is_bitwise_the_columnwise_one(m):
    rng = np.random.default_rng([m, 3])
    for shape in [(m,), (1, m), (17, m), (500, m), (3, 7, m)]:
        logits = rng.normal(0.0, 20.0, size=shape)
        # -inf in any column but the first, so each row keeps a finite max.
        logits[..., 1:][rng.random(shape[:-1] + (m - 1,)) < 0.2] = -np.inf
        for order in "CF":
            # Compared as int64 views: np.array_equal would take -0.0 for 0.0.
            given = np.asarray(logits, order=order)
            got = estimate.log_softmax(given)
            assert got.flags.c_contiguous
            want = columnwise_log_softmax(given)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (shape, order)


@pytest.mark.parametrize("name", ["alpha", "delta", "omicron", 3, 10])
def test_the_centred_design_gives_the_same_fit(monkeypatch, name):
    # The design (1, t - mean t) spans what (1, t) does, so the maximum and
    # every slope b_j agree; only the intercepts move.
    series = load_bundled(name) if isinstance(name, str) else _simulated(name)
    plain = fit(series)
    design = estimate._design
    monkeypatch.setattr(estimate, "_design", lambda t, counts: design(t - t.mean(), counts))
    centred = fit(series)
    assert centred.log_likelihood == pytest.approx(plain.log_likelihood, rel=1e-12, abs=0.0)
    slopes = estimate._SLOPES
    assert centred.theta[slopes] == pytest.approx(plain.theta[slopes], rel=1e-12, abs=0.0)
    assert not np.allclose(centred.theta, plain.theta)


@pytest.mark.parametrize("m", [2, 3])
def test_a_quadratic_design_s_derivatives_match_finite_differences(m):
    # The kernel on the design (1, t, t^2), p = 3: its summed scores and its
    # Hessian against central differences of its own log-likelihood, in
    # coordinates scaled by each design column's largest value.
    T = 12
    rng = np.random.default_rng([m, 4])
    t = np.arange(1.0, T + 1)
    X = np.column_stack([np.ones(T), t, t * t])
    counts = rng.integers(0, 3000, size=(T, m)).astype(float)
    n = counts.sum(axis=1)
    xx = (X[:, :, None] * X[:, None, :]).reshape(T, -1)
    scale = np.tile(X.max(axis=0), m - 1)
    theta = np.column_stack([rng.uniform(-1, 1, m - 1), rng.uniform(-3, 3, m - 1) / T,
                             rng.uniform(-3, 3, m - 1) / T**2]).ravel()

    def ll(step):
        return estimate._log_likelihood(theta + step / scale, X, counts)[0]

    scores, h = estimate._derivatives(estimate._log_softmax(theta, X), X, counts, n, xx)
    assert scores.shape == (T, 3 * (m - 1)) and h.shape == (3 * (m - 1),) * 2
    eye = 1e-4 * np.eye(len(theta))
    fd_score = np.array([(ll(e) - ll(-e)) / 2e-4 for e in eye])
    fd_h = np.array([[(ll(e + f) - ll(e - f) - ll(f - e) + ll(-e - f)) / 4e-8 for f in eye]
                     for e in eye])
    score = scores.sum(axis=0) / scale
    assert np.max(np.abs(score - fd_score)) <= 1e-6 * np.max(np.abs(score))
    h = h / np.outer(scale, scale)
    assert np.max(np.abs(h - fd_h)) <= 1e-5 * np.max(np.abs(h))


def test_fit_does_not_depend_on_the_scale_of_the_counts():
    # The decrement's rounding floor grows with the counts: at 1e8 times
    # alpha's it is 1.1e-20, above a fixed stop of 1e-20, and the fit ran out
    # of iterations.
    series = load_bundled("alpha")
    scaled = SurveillanceSeries(series.t_values, series.labels, series.counts * 10**8,
                                series.variant_names, series.period_days)
    assert fit(scaled).theta == pytest.approx(fit(series).theta, rel=1e-9)


def test_a_fit_that_runs_out_of_iterations_is_refused(monkeypatch, capsys):
    # Bundled alpha takes 4 Newton steps.
    monkeypatch.setattr(estimate, "MAX_ITERATIONS", 1)
    with pytest.raises(MaxIterations, match="^no convergence in 1 iterations$"):
        fit(load_bundled("alpha"))
    assert main(["estimate", "alpha"]) == 1
    assert capsys.readouterr() == ("", "error: MaxIterations: no convergence in 1 iterations\n")


def test_a_singular_hessian_during_newton_is_refused():
    n = 10**17
    series = SurveillanceSeries.from_binomial_columns(
        (1, 2, 3), ("a", "b", "c"), (n,) * 3, (1, n // 2, n - 1), (None,) * 3, (None,) * 3)
    with pytest.raises(Singular, match="^singular Hessian during Newton iteration$"):
        fit(series)
