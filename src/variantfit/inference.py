"""Fisher and HAC sandwich covariance matrices and advantage intervals.

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
from dataclasses import dataclass

import numpy as np

from .data import SurveillanceSeries
# AdvantageEstimate and DEFAULT_BANDWIDTH live in dynamics, which the CLI's
# scalar commands import without numpy; callers also import them from here.
from .dynamics import DEFAULT_BANDWIDTH, Advantage, AdvantageEstimate, check_level
from .errors import BandwidthTooLarge, InvalidIndex, InvalidValue, PeriodMismatch, Singular
from .estimate import FitResult, at_zero

DEFAULT_LEVEL = 0.95


@dataclass(frozen=True)
class VarianceEstimate:
    """Covariance of the fit's theta estimates, tagged with its estimator.

    `matrix` is in the series' model time, t - `origin`, as `FitResult.theta`
    is; `matrix_at_zero` is at the user's t = 0, as `FitResult.params` is.
    For a series that starts at t = 1 the origin is 0 and the two are equal.
    """

    kind: str  # "fisher" or "sandwich(K)"
    matrix: np.ndarray
    origin: int = 0

    @property
    def matrix_at_zero(self) -> np.ndarray:
        return at_zero(self.matrix, self.origin)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape[0] != m.shape[1]:
            raise InvalidValue("covariance matrix must be square")
        # The exact test settles what `sandwich` builds; allclose, the rule,
        # only runs for a matrix that is not exactly symmetric.
        if not (m == m.T).all() and not np.allclose(m, m.T, atol=1e-12):
            raise InvalidValue("covariance matrix must be symmetric")


def parzen_kernel(x: float) -> float:
    """Compactly supported piecewise-cubic HAC weight; k(0)=1, k(x)=0 for |x|>=1."""
    ax = abs(x)
    if ax <= 0.5:
        return 1.0 - 6.0 * ax**2 + 6.0 * ax**3
    if ax <= 1.0:
        return 2.0 * (1.0 - ax) ** 3
    return 0.0


def _invert(info: np.ndarray) -> np.ndarray:
    if abs(np.linalg.det(info)) < 1e-300 or np.linalg.cond(info) > 1e14:
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
    t_values, counts = fit.series.columns
    if bandwidth is not None:
        if bandwidth < 0:
            raise InvalidValue(f"bandwidth must be >= 0, got {bandwidth}")
        if bandwidth >= len(t_values):
            raise BandwidthTooLarge(
                f"bandwidth {bandwidth} must be smaller than the series length {len(t_values)}"
            )
        informative = np.count_nonzero(counts.sum(axis=1))
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
    return VarianceEstimate(kind=kind, matrix=0.5 * (cov + cov.T), origin=fit.series.origin)


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
    """
    z = normal_quantile(level)
    se = np.sqrt(np.maximum(variance, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):  # an inf scale times 0 is nan
        scaled = np.multiply(scale, [beta, beta - z * se, beta + z * se])
    if not np.isfinite(scaled).all():  # math.exp(inf) would return inf, not raise
        raise OverflowError("a log advantage times its scale is not a finite float")
    point, low, high = scaled.tolist()
    if np.ndim(beta):
        return list(map(math.exp, point)), list(map(math.exp, low)), list(map(math.exp, high))
    return math.exp(point), math.exp(low), math.exp(high)


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
    exp((target_days / period_days) * (b_j +- z * se(b_j))).
    """
    m = fit.series.n_variants
    if not 1 <= variant < m:
        raise InvalidIndex(f"variant must be a non-numeraire column in 1..{m - 1}, got {variant}")
    period_days = fit.series.period_days
    if target_days is None:
        target_days = period_days
    b = 2 * variant - 1
    point, low, high = advantage_interval(
        float(fit.theta[b]), variance.matrix[b, b], target_days / period_days, level
    )
    return AdvantageEstimate(
        gamma=Advantage(value=point, period_days=target_days),
        ci_low=low,
        ci_high=high,
        level=level,
    )


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
