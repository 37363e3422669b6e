"""Fisher and HAC sandwich covariance matrices, and the intervals built
from a variance: advantage intervals, crude measures and forecast bands.

Variance estimators at the fitted optimum:

    fisher:      inv(I),            I = -sum_t h_t
    sandwich(K): inv(I) J_K inv(I), J_K = J + sum_j k(j/K) * (lagged score
                 cross products), J = sum_t s_t s_t'

with the Parzen kernel k. K = 0 gives the plain heteroskedasticity-only
sandwich. Lags are counted in t_index units, so series with gaps weight
each pair by its actual time separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from .data import SurveillanceSeries
# AdvantageEstimate, DEFAULT_BANDWIDTH and DEFAULT_LEVEL live in dynamics,
# which the CLI's scalar commands import without numpy; callers also import
# them from here.
from .dynamics import (DEFAULT_BANDWIDTH, DEFAULT_LEVEL, Advantage, AdvantageEstimate,
                       check_level)
from .errors import (BandwidthTooLarge, InvalidIndex, InvalidValue, NegativeC,
                     NonPositivePeriod, PeriodMismatch, Singular, checked_index)
from .estimate import _SLOPES, FitResult, fit, log_softmax


@dataclass(frozen=True, eq=False)
class VarianceEstimate:
    """Covariance of the fit's theta estimates, tagged with its estimator;
    estimates compare by identity, as fits do.

    `matrix` is a read-only float copy of the matrix given, in the series'
    model time, as `FitResult.theta` is; `estimate.at_zero(matrix,
    series.origin)` moves it to the user's t = 0. `fit` is the fit that
    `sandwich` estimated it from, None for an estimate built by hand.
    """

    kind: str  # "fisher" or "sandwich(K)"
    matrix: np.ndarray
    fit: FitResult | None = field(default=None, repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidValue("covariance matrix must be square")
        # The exact test settles what `sandwich` builds; allclose, the rule,
        # only runs for a matrix that is not exactly symmetric.
        if not (m == m.T).all() and not np.allclose(m, m.T, atol=1e-12):
            raise InvalidValue("covariance matrix must be symmetric")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def matrix_for(self, fit: FitResult) -> np.ndarray:
        """`matrix`, InvalidValue unless it has the shape of `fit`'s information
        and, where the estimate keeps its fit, unless that fit is `fit`."""
        if self.matrix.shape != fit.information.shape:
            raise InvalidValue("the variance is of a fit with another number of variants")
        if self.fit is not None and self.fit is not fit:
            raise InvalidValue("the variance is of another fit")
        return self.matrix


def parzen_kernel(x: float) -> float:
    """Compactly supported piecewise-cubic HAC weight; k(0)=1, k(x)=0 for |x|>=1."""
    ax = abs(x)
    if ax <= 0.5:
        return 1.0 - 6.0 * ax**2 + 6.0 * ax**3
    if ax <= 1.0:
        return 2.0 * (1.0 - ax) ** 3
    return 0.0


def _invert(info: np.ndarray) -> np.ndarray:
    # The information is exactly symmetric, so its |eigenvalues| give both
    # |det| and the 2-norm condition number; a zero or nan one is refused.
    magnitudes = np.abs(np.linalg.eigvalsh(info))
    if np.prod(magnitudes) < 1e-300 or not magnitudes.max() <= 1e14 * magnitudes.min():
        raise Singular("information matrix is singular")
    return np.linalg.inv(info)


def kernel_weighted_outer(
    t_values: np.ndarray, scores: np.ndarray, bandwidth: int
) -> np.ndarray:
    """Parzen-weighted sum of score outer products across all lag pairs.

    `scores` has one row per period; lags are t_index differences, and
    `t_values` are distinct integers in increasing order. The kernel
    argument is lag / (bandwidth + 1), so lags 1..bandwidth carry weight
    and bandwidth 0 reduces to the plain sum of outer products. Only those
    lags are visited: O(T * bandwidth). A series without gaps, where
    t_T - t_1 = T - 1, pairs lag L's rows [0, T - L) with [L, T) as slices;
    one with gaps finds each row's partner L periods later by search.
    """
    t = np.asarray(t_values)
    T = len(t)
    contiguous = T == 0 or t[-1] - t[0] == T - 1
    j = scores.T @ scores
    for lag in range(1, bandwidth + 1):
        if contiguous:
            cross = scores[:max(T - lag, 0)].T @ scores[lag:]
        else:
            later = np.searchsorted(t, t + lag)
            paired = later < T
            paired[paired] = t[later[paired]] == t[paired] + lag
            cross = scores[paired].T @ scores[later[paired]]
        j = j + parzen_kernel(lag / (bandwidth + 1)) * (cross + cross.T)
    return j


def sandwich(fit: FitResult, bandwidth: int | None) -> VarianceEstimate:
    """Fisher variance inv(I) when bandwidth is None, else the HAC sandwich
    inv(I) J_K inv(I), from the fit's information I and per-period scores.

    At the optimum the scores sum to zero, so J_K has rank below the number
    of periods with counts; the sandwich needs more such periods than
    parameters. It also needs scores that do not all vanish: where the model
    fits every period exactly, J_K is ~0 and would give a zero-width
    interval, so a sandwich variance at or below 1e-12 of the Fisher one, for
    any parameter, is Singular.
    """
    info, scores = fit.information, fit.scores
    t_values = fit.series.columns[0]
    if bandwidth is not None:
        bandwidth = checked_index(bandwidth, "bandwidth", InvalidValue)
        if bandwidth < 0:
            raise InvalidValue(f"bandwidth must be >= 0, got {bandwidth}")
        if bandwidth >= len(t_values):
            raise BandwidthTooLarge(
                f"bandwidth {bandwidth} must be smaller than the series length {len(t_values)}"
            )
        informative = np.count_nonzero(fit.series.totals)
        if informative <= len(info):
            raise Singular(
                f"{informative} periods with counts cannot identify a sandwich variance "
                f"for {len(info)} parameters"
            )
    info_inv = _invert(info)
    if bandwidth is None:
        kind, cov = "fisher", info_inv
    else:
        kind = f"sandwich({bandwidth})"
        cov = info_inv @ kernel_weighted_outer(t_values, scores, bandwidth) @ info_inv
        if (cov.diagonal() <= 1e-12 * info_inv.diagonal()).any():
            raise Singular("the scores vanish at the fit, so they cannot estimate "
                           "a sandwich variance")
    return VarianceEstimate(kind=kind, matrix=0.5 * (cov + cov.T), fit=fit)


def _own_series(series: SurveillanceSeries, fit: FitResult) -> None:  # kept for the wrappers below
    if series is not fit.series and series != fit.series:
        raise InvalidValue("the variance needs the series the fit was made from, got another")


def fisher_information(series: SurveillanceSeries, fit: FitResult) -> VarianceEstimate:
    """Fisher variance, `sandwich(fit, None)`; kept because the CLI and benchmark call it."""
    _own_series(series, fit)
    return sandwich(fit, None)


def hac_sandwich(
    series: SurveillanceSeries, fit: FitResult, bandwidth: int = DEFAULT_BANDWIDTH
) -> VarianceEstimate:
    """HAC variance, `sandwich(fit, bandwidth)`; kept because the CLI and benchmark call it."""
    _own_series(series, fit)
    return sandwich(fit, bandwidth)


def fit_multi(
    series: SurveillanceSeries, bandwidth: int | None = None
) -> tuple[FitResult, VarianceEstimate]:
    """`sandwich(fit(series), bandwidth)`; kept because the benchmark's tracer
    binds it, though neither the CLI nor the benchmark calls it."""
    result = fit(series)
    return result, sandwich(result, bandwidth)


def normal_quantile(level: float) -> float:
    """Two-sided z value; pinned to the conventional 1.96 at the 95% level."""
    check_level(level)
    if abs(level - 0.95) < 1e-12:
        return 1.96
    from statistics import NormalDist  # loads fractions and decimal, so only here

    # (1 - level) / 2 is exact, where 0.5 + level / 2 can round to 1.0.
    return -NormalDist().inv_cdf((1.0 - level) / 2.0)


def advantage_interval(
    beta: float | np.ndarray, variance: float | np.ndarray, scale: float | np.ndarray, level: float
) -> tuple:
    """exp(scale * beta) and its interval exp(scale * (beta -+ z * se)).

    `beta` is a per-period log advantage with the given variance, and
    `scale` converts periods to the target time unit. Given floats, the
    three results are floats; given 1-D arrays of one length, they are
    lists with one entry per element. The exponential is math.exp either
    way, so an element's interval is the one its floats would give.
    OverflowError when a scaled value or its exponential is not a finite float.
    """
    z = normal_quantile(level)
    se = np.sqrt(np.maximum(variance, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):  # an inf scale times 0 is nan
        scaled = np.multiply(scale, [beta, beta - z * se, beta + z * se])
    if np.isfinite(scaled).all():  # math.exp(inf) would return inf, not raise
        try:
            if np.ndim(beta):
                return tuple(list(map(math.exp, row)) for row in scaled.tolist())
            return tuple(map(math.exp, scaled.tolist()))
        except OverflowError:  # above ~709.78, with math's bare "math range error"
            pass
    raise OverflowError("a log advantage times its scale is not a finite float")


def interval_for_gamma(
    variance: VarianceEstimate,
    fit: FitResult,
    target_days: float | None = None,
    level: float = DEFAULT_LEVEL,
    variant: int = 1,
) -> AdvantageEstimate:
    """Confidence interval for the advantage of one variant over the numeraire,
    rescaled to `target_days`.

    `variant` is the column j = 1..m-1 of the series' counts, 1 for the
    variant of a two-variant series. Endpoints are
    exp((target_days / period_days) * (b_j +- z * se(b_j))). `variance` must
    be the fit's own (see `VarianceEstimate.matrix_for`).
    """
    m = fit.series.n_variants
    variant = checked_index(variant, "variant", InvalidIndex)
    if not 1 <= variant < m:
        raise InvalidIndex(f"variant must be a non-numeraire column in 1..{m - 1}, got {variant}")
    if target_days is None:
        target_days = fit.series.period_days
    scale, b = period_scale(fit, target_days), range(fit.theta.size)[_SLOPES][variant - 1]
    point, low, high = advantage_interval(float(fit.theta[b]), variance.matrix_for(fit)[b, b],
                                          scale, level)
    return AdvantageEstimate(Advantage(point, target_days), low, high, level)


def period_scale(fit: FitResult, target_days: float) -> float:
    """target_days over the fit's period_days; NonPositivePeriod unless positive."""
    if not target_days > 0:  # Advantage's test, made before a nan scale can overflow
        raise NonPositivePeriod(f"period_days must be positive, got {target_days}")
    return target_days / fit.series.period_days


def compose_advantages(a: AdvantageEstimate, b: AdvantageEstimate) -> AdvantageEstimate:
    """Chain two independent advantages measured against intermediate references.

    Point estimates multiply. Each interval's lower and upper distances from
    its point, on the log scale, add in quadrature. For the Wald intervals
    of this package, exp(log g -+ z * se), that is the interval of the
    product with the two log-scale variances summed. Multiplying the
    endpoints instead would add the distances and overstate the width.
    """
    if not math.isclose(a.gamma.period_days, b.gamma.period_days):
        raise PeriodMismatch(
            f"period mismatch: {a.gamma.period_days} vs {b.gamma.period_days}"
        )
    if not math.isclose(a.level, b.level):
        raise InvalidValue(f"confidence levels differ: {a.level} vs {b.level}")

    def log_distances(e: AdvantageEstimate) -> tuple[float, float]:
        log_point = math.log(e.gamma.value)
        below = log_point - math.log(e.ci_low) if e.ci_low > 0 else math.inf
        return below, math.log(e.ci_high) - log_point

    (below_a, above_a), (below_b, above_b) = log_distances(a), log_distances(b)
    point = a.gamma.value * b.gamma.value
    return AdvantageEstimate(
        gamma=Advantage(value=point, period_days=a.gamma.period_days),
        ci_low=point * math.exp(-math.hypot(below_a, below_b)),
        ci_high=point * math.exp(math.hypot(above_a, above_b)),
        level=a.level,
    )


def crude_gammas(
    series: SurveillanceSeries, level: float = DEFAULT_LEVEL
) -> tuple[tuple[int, ...], list[float], list[float], list[float]]:
    """Model-free measures, one per pair of adjacent periods, as four columns:
    the t of the pair's later period, the measure, and its interval's low and
    high ends.

    The measure for periods s < t is the ratio of their empirical odds
    ratios, (X_t/(N_t-X_t)) / (X_s/(N_s-X_s)), reduced to a single period by
    the (t-s)-th root when the pair spans a gap. Zero cells get the
    Haldane-Anscombe +0.5 correction on all four cells of the affected pair.
    The CI is a Wald interval on the log odds-ratio ratio with variance
    1/a + 1/b + 1/c + 1/d, exponentiated.
    """
    t, _ = series.columns
    n, x = series.binomial_counts()
    # Row i: the variant and the other cases in period i + 1, then in period i.
    cells = np.column_stack([x[1:], n[1:] - x[1:], x[:-1], n[:-1] - x[:-1]]).astype(float)
    cells += 0.5 * reduce(np.logical_or, (cells == 0.0).T)[:, None]  # whole-column ors
    a, b, c, d = cells.T
    # math.log, not np.log, which can differ from it in the last bit.
    log_odds = [list(map(math.log, odds.tolist())) for odds in (a / b, c / d)]
    log_ratio = np.subtract(*log_odds)
    variance = 1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d
    return (series.t_values[1:], *advantage_interval(log_ratio, variance, 1.0 / np.diff(t), level))


def forecast(
    fit: FitResult,
    variance: VarianceEstimate,
    horizons: Sequence[float],
    c: float,
) -> tuple[tuple, list[float], list[float], list[float]]:
    """Point forecasts of the variant's share with delta-method bands.

    The band at time t perturbs the fitted linear predictor by +-c standard
    deviations of alpha_hat + beta_hat * t before applying the logistic map:

        endpoint = expit(alpha + beta*t -+ c*sqrt(v)),   v = (1, t) Sigma (1, t)'

    so the band reflects parameter uncertainty only.

    The band at each horizon, an absolute t (the CLI converts '+h periods'
    to these), as four columns, as `crude_gammas` returns its measures: the
    horizons as given, the point share, and the band's lower and upper ends,
    0 <= lower <= point <= upper <= 1. Worked out in the fit's model time,
    where theta and the variance are; integer horizons map to model time
    h - origin exactly, in Python ints, as the series' own model time is built.
    `variance` must be the fit's own (see `VarianceEstimate.matrix_for`).
    NegativeC unless c >= 0; InvalidValue for a horizon that is not finite;
    OverflowError where a horizon's log-odds, or their variance, overflow."""
    if not c >= 0:  # nan fails too
        raise NegativeC(f"c must be >= 0, got {c}")
    beta = fit.params.beta  # InvalidValue unless the fit has two variants
    horizons = tuple(horizons)
    t = np.array([h - fit.series.origin for h in horizons], dtype=float)
    finite = np.isfinite(t)
    if not finite.all():
        raise InvalidValue(f"horizons must be finite, got {horizons[finite.argmin()]}")
    cov = variance.matrix_for(fit)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        eta = fit.theta[0] + beta * t
        v = cov[0, 0] + 2.0 * t * cov[0, 1] + t * t * cov[1, 1]
    if not (np.isfinite(eta).all() and np.isfinite(v).all()):
        raise OverflowError("the log-odds at a horizon, or their variance, is beyond a float")
    with np.errstate(over="ignore"):  # a huge c gives an infinite half-width
        half = c * np.sqrt(np.maximum(v, 0.0))
    # The logits (0, x) of every band end and point, variants outermost in
    # memory, in one logistic map. Beyond +-800 a share is exactly 0 or 1, so
    # clipping there changes no share and keeps an infinite band end out of the
    # map. The sort undoes rounding that misorders shares of logits a few ulps apart.
    ends = np.clip([eta - half, eta, eta + half], -800.0, 800.0)
    logits = np.moveaxis([np.zeros((3, len(t))), ends], 0, -1)
    lower, point, upper = np.sort(np.exp(log_softmax(logits))[..., 1], axis=0)
    assert ((0.0 <= lower) & (lower <= point) & (point <= upper) & (upper <= 1.0)).all()
    return horizons, point.tolist(), lower.tolist(), upper.tolist()
