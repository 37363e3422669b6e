"""Maximum likelihood estimation of the variant-share logistic model.

With m variants, counts c_tj of variant j in period t, n_t = sum_j c_tj,
and linear predictors eta_tj = a_j + b_j * t (a_1 = b_1 = 0 for the
numeraire), the log-likelihood (up to the multinomial-coefficient
constant) is

    ll(theta) = sum_t sum_j c_tj * log softmax(eta_t)_j,
    theta = (a_2, b_2, a_3, b_3, ...),

which is globally concave in theta. A damped Newton iteration with
analytic gradient and Hessian therefore converges from any start.

The two-variant model is the m = 2 case, with counts (N_t - X_t, X_t)
and theta = (alpha, beta):

    ll(a, b) = sum_t X_t * log(lam_t) + (N_t - X_t) * log(1 - lam_t),
    lam_t = expit(a + b * t).

Sign convention: model_derivatives() returns the per-period gradient
contributions of the log-likelihood, for m = 2 (X_t - N_t * lam_t) * (1, t);
they and the Hessian are checked against central finite differences in
the test suite.

The fit works in the series' model time t - t_1 + 1 (`columns[0]`) and
reports alpha at the user's t = 0 through one linear map (at_zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import SurveillanceSeries
from .dynamics import ModelParams
from .errors import InvalidValue, MaxIterations, Separation, Singular

# Newton decrement g' inv(-H) g at which the fit stops. It is twice the
# log-likelihood gain a full Newton step predicts, so unlike an absolute
# score bound it does not grow with the counts or the length of the series.
DECREMENT_TOLERANCE = 1e-20
MAX_ITERATIONS = 100


@dataclass(frozen=True, eq=False)
class FitResult:
    """Maximum likelihood fit of the m-variant model, with the model's
    derivatives at the optimum.

    `theta` holds the 2(m-1) estimates (a_2, b_2, a_3, b_3, ...), `scores`
    the (T, 2(m-1)) per-period scores and `information` the observed
    information -H, both at theta as the Newton iteration last evaluated
    them; the variance estimators read these and evaluate nothing. Every
    array is read-only. All of them are in the series' model time,
    t - `series.origin`, so each a_j is the log-odds at the user's
    t = `series.origin`; `params` gives them at t = 0.
    """

    theta: np.ndarray
    scores: np.ndarray
    information: np.ndarray
    log_likelihood: float
    iterations: int
    score_norm: float
    series: SurveillanceSeries = field(repr=False)

    @cached_property
    def shares(self) -> np.ndarray:
        """The (T, m) fitted shares, worked out on first use."""
        t = self.series.columns[0]
        shares = np.exp(_log_softmax(self.theta, t, self.series.n_variants))
        shares.flags.writeable = False
        return shares

    @property
    def params(self) -> ModelParams:
        """(alpha, beta) of a two-variant fit, alpha at t = 0; InvalidValue for m != 2."""
        m = self.series.n_variants
        if m != 2:
            raise InvalidValue(f"need a two-variant fit, got {m} variants")
        alpha, beta = at_zero(self.theta, self.series.origin).tolist()
        return ModelParams(alpha=alpha, beta=beta)

    @property
    def gamma(self) -> float:
        """Estimated per-period advantage, exp(beta), of a two-variant fit."""
        return self.params.gamma


def at_zero(x: np.ndarray, origin: int) -> np.ndarray:
    """Model-time `theta`, or a covariance of it, moved to the user's t = 0 by
    the one linear map a_j = a'_j - b_j * origin."""
    moved = np.array(x, dtype=float)
    moved[0::2] -= origin * moved[1::2]
    if moved.ndim == 2:
        moved[:, 0::2] -= origin * moved[:, 1::2]
    return moved


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """The log-softmax over the last axis, the package's one logistic map: for
    logits (0, x), exp of column 1 is expit(x). A -inf logit gives a share of 0."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _log_softmax(theta: np.ndarray, t: np.ndarray, m: int) -> np.ndarray:
    # Rows: periods; columns: variants (column 0 is the numeraire).
    eta = np.zeros((len(t), m))
    eta[:, 1:] = theta[0::2] + t[:, None] * theta[1::2]
    return log_softmax(eta)


def _log_likelihood(
    theta: np.ndarray, t: np.ndarray, counts: np.ndarray
) -> tuple[float, np.ndarray]:
    """The log-likelihood at theta and the (T, m) log-softmax it was summed from."""
    log_shares = _log_softmax(theta, t, counts.shape[1])
    return float(np.sum(counts * log_shares)), log_shares


def model_log_likelihood(theta: np.ndarray, t: np.ndarray, counts: np.ndarray) -> float:
    """Log-likelihood at theta of the (T,) periods and (T, m) counts."""
    return _log_likelihood(theta, t, counts)[0]


def model_derivatives(
    theta: np.ndarray, t: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-period scores (T, 2(m-1)) and the Hessian at theta, from one softmax.

    Score columns and Hessian rows are ordered (a_2, b_2, a_3, b_3, ...).
    """
    return _derivatives(_log_softmax(theta, t, counts.shape[1]), *_design(t, counts))


def _design(t: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the derivatives need of the data, whatever theta: the counts as
    floats, the row totals n_t and the products x_ta x_tb of x_t = (1, t), row t
    of xx holding (a, b) = (0, 0), (0, 1), (1, 0), (1, 1); its first two
    columns are x_t."""
    counts = counts.astype(float)
    xx = np.empty((len(t), 4))
    xx[:, 0] = 1.0
    xx[:, 1] = xx[:, 2] = t
    xx[:, 3] = t * t
    return counts, counts.sum(axis=1), xx


def _derivatives(
    log_shares: np.ndarray, counts: np.ndarray, n: np.ndarray, xx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # model_derivatives from the log-softmax at theta and the series' _design.
    T, m = counts.shape
    k = m - 1
    p = np.exp(log_shares)[:, 1:]
    resid = counts[:, 1:] - n[:, None] * p
    scores = (resid[:, :, None] * xx[:, None, :2]).reshape(T, -1)
    # H = -sum_t kron(n_t (diag(p_t) - p_t p_t'), x_t x_t') in O(T m) memory.
    # With w = n p, every (j, k) block of sum_t w_tj p_tk x_t x_t' comes from
    # one matmul. The diagonal blocks are then set to sum_t w_tj (p_tj - 1)
    # x_t x_t': subtracting sum_t w_tj x_t x_t' instead would cancel when a
    # share nears 1.
    w = n[:, None] * p
    h = ((w[:, :, None] * xx[:, None, :]).reshape(T, -1).T @ p).reshape(k, 2, 2, k)
    h = h.transpose(0, 1, 3, 2).reshape(2 * k, 2 * k)  # C-contiguous; rows (j, a)
    diagonal = np.arange(k)
    h.reshape(k, 2, k, 2)[diagonal, :, diagonal, :] = ((w * (p - 1.0)).T @ xx).reshape(k, 2, 2)
    return scores, 0.5 * (h + h.T)


def _check_identified(t: np.ndarray, counts: np.ndarray) -> None:
    """Raise unless the MLE exists: Singular with fewer than 2 periods with
    counts, Separation when a variant is never observed or the variants'
    observed t-ranges do not chain together.

    With one covariate, a direction along which the likelihood never falls
    gives each variant a line a_j + b_j t that is highest over its observed
    range [first_j, last_j]. Two variants whose ranges overlap in more than
    one point (first_j < last_k and first_k < last_j) must then share a line,
    so the MLE exists exactly when that overlap relation links all variants
    (Albert & Anderson 1984). For m = 2 it is the overlap of the two ranges.
    O(T m + m^2).
    """
    if np.count_nonzero(counts.sum(axis=1)) < 2:
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


def _initial_theta(t: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # Least squares on Haldane-Anscombe corrected log ratios against the numeraire.
    keep = counts.sum(axis=1) > 0
    c = counts[keep] + 0.5
    design = np.column_stack([np.ones(keep.sum()), t[keep]])
    coef, *_ = np.linalg.lstsq(design, np.log(c[:, 1:] / c[:, :1]), rcond=None)
    return coef.T.ravel()


def newton(t: np.ndarray, counts: np.ndarray):
    """Damped Newton maximization; step-halves whenever the likelihood drops.

    Stops once the Newton decrement is at most DECREMENT_TOLERANCE. Returns
    (theta, log-likelihood, steps taken, per-period scores, Hessian), the
    last two at theta. The softmax is evaluated once per theta: the
    derivatives at an accepted step reuse the line search's. What they need
    of the data, the float counts among it, is worked out once.
    """
    _check_identified(t, counts)
    theta = _initial_theta(t, counts)
    counts, n, xx = _design(t, counts)
    ll, log_shares = _log_likelihood(theta, t, counts)
    for iterations in range(MAX_ITERATIONS):
        scores, h = _derivatives(log_shares, counts, n, xx)
        g = scores.sum(axis=0)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            raise Singular("singular Hessian during Newton iteration") from None
        if g @ step <= DECREMENT_TOLERANCE:
            return theta, ll, iterations, scores, h
        # Slack scales with |ll| so float-resolution noise never blocks a step.
        slack = 1e-12 * (1.0 + abs(ll))
        scale = 1.0
        while True:
            candidate = theta + scale * step
            ll_new, candidate_log_shares = _log_likelihood(candidate, t, counts)
            if ll_new >= ll - slack or scale <= 1e-12:
                break
            scale *= 0.5
        theta, ll, log_shares = candidate, ll_new, candidate_log_shares
    raise MaxIterations(f"no convergence in {MAX_ITERATIONS} iterations")


def fit(series: SurveillanceSeries) -> FitResult:
    """Maximum likelihood fit of the m-variant model by damped Newton, in model time."""
    theta, ll, iterations, scores, h = newton(*series.columns)
    information = -h
    for array in (theta, scores, information):
        array.flags.writeable = False
    return FitResult(
        theta=theta,
        scores=scores,
        information=information,
        log_likelihood=ll,
        iterations=iterations,
        score_norm=float(np.max(np.abs(scores.sum(axis=0)))),
        series=series,
    )
