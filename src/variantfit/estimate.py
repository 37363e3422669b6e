"""Maximum likelihood estimation of the variant-share logistic model.

With m variants, counts c_tj of variant j in period t, n_t = sum_j c_tj,
and linear predictors eta_tj = a_j + b_j * t (a_1 = b_1 = 0 for the
numeraire), the log-likelihood (up to the multinomial-coefficient
constant) is

    ll(theta) = sum_t sum_j c_tj * log softmax(eta_t)_j,
    theta = (a_2, b_2, a_3, b_3, ...),

which is globally concave in theta. The MLE is a logistic regression, so
`fit` is one damped Newton (IRLS) loop with the analytic gradient and
Hessian, which converges from any start.

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

The kernel works on T-long columns, never a numpy loop over the short
variant axis: one max reduction, whole-column adds for the row totals and
the sum of exponentials, exponentials of the k shares it uses and one einsum
for the Hessian's (T, k, 4) operand. Below 8 variants its bits equal numpy's
row-wise reductions, which sum a short row left to right as whole-column adds
do; from 8 on numpy sums rows pairwise, so the last bits may differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .data import SurveillanceSeries
from .dynamics import ModelParams
from .errors import InvalidValue, MaxIterations, Separation, Singular

# Newton decrement g' inv(-H) g at which the fit stops. It is twice the
# log-likelihood gain a full Newton step predicts, so unlike an absolute
# score bound it does not grow with the length of the series. Rounding puts a
# floor under it that grows with the counts, up to a few eps**2 per case
# counted (1e-28 for the bundled alpha, 1e-20 for its counts times 1e8), so
# the fit stops at the larger of DECREMENT_TOLERANCE and DECREMENT_PER_CASE
# times the cases counted; the second is larger only beyond 1.3e10 cases.
DECREMENT_TOLERANCE = 1e-20
DECREMENT_PER_CASE = 2.0**-100  # 16 eps**2
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
    logits (0, x), exp of column 1 is expit(x). A -inf logit gives a share of 0.

    Worked a variant at a time: `logits.T` holds one column per variant, so
    the max is one reduction over the variant axis (exact in any order) and
    the sum of exponentials m - 1 whole-column adds, left to right, not numpy
    loops over the short last axis. Returned in C order.
    """
    columns = logits.T
    shifted = columns - columns.max(axis=0)
    log_total = np.log(reduce(np.add, np.exp(shifted)))
    log_shares = np.empty(logits.shape)
    np.subtract(shifted, log_total, out=log_shares.T)
    return log_shares


def _log_softmax(theta: np.ndarray, t: np.ndarray, m: int) -> np.ndarray:
    # Rows of eta: variants (row 0 is the numeraire); columns: periods.
    eta = np.zeros((m, len(t)))
    np.multiply.outer(theta[1::2], t, out=eta[1:])
    eta[1:] += theta[0::2, None]
    return log_softmax(eta.T)


def _log_likelihood(
    theta: np.ndarray, t: np.ndarray, counts: np.ndarray
) -> tuple[float, np.ndarray]:
    """The log-likelihood at theta and the (T, m) log-softmax it was summed from."""
    log_shares = _log_softmax(theta, t, counts.shape[1])
    return float(np.add.reduce(counts * log_shares, axis=None)), log_shares


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
    """What the fit needs of the data, whatever theta: the counts as floats,
    the row totals n_t (whole-column adds, exact in any order for integer
    counts below 2**53) and the products x_ta x_tb of x_t = (1, t), row t
    of xx holding (a, b) = (0, 0), (0, 1), (1, 0), (1, 1); its first two
    columns are x_t."""
    counts = counts.astype(float)
    xx = np.empty((len(t), 4))
    xx[:, 0] = 1.0
    xx[:, 1] = xx[:, 2] = t
    xx[:, 3] = t * t
    return counts, reduce(np.add, counts.T), xx


def _derivatives(
    log_shares: np.ndarray, counts: np.ndarray, n: np.ndarray, xx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # model_derivatives from the log-softmax at theta and the series' _design.
    T, m = counts.shape
    k = m - 1
    p = np.exp(log_shares[:, 1:])
    w = n[:, None] * p
    resid = counts[:, 1:] - w
    # Score columns (a_j, b_j) are resid_j x_t = (resid_j, resid_j t).
    scores = np.empty((T, 2 * k))
    scores[:, 0::2] = resid
    np.multiply(resid, xx[:, 1:2], out=scores[:, 1::2])
    # H = -sum_t kron(n_t (diag(p_t) - p_t p_t'), x_t x_t') in O(T m) memory.
    # With w = n p, one matmul gives the diagonal blocks sum_t w_tj (p_tj - 1)
    # x_t x_t' (subtracting sum_t w_tj x_t x_t' would cancel when a share nears
    # 1); at m = 2 that block is all of H, exactly symmetric as xx's columns 1
    # and 2 are both t. Otherwise one more gives every (j, k) block of
    # sum_t w_tj p_tk x_t x_t', and the diagonal blocks are set over it.
    blocks = ((w * (p - 1.0)).T @ xx).reshape(k, 2, 2)
    if k == 1:
        return scores, blocks[0]
    h = (np.einsum("tj,ta->tja", w, xx).reshape(T, -1).T @ p).reshape(k, 2, 2, k)
    h = h.transpose(0, 1, 3, 2).reshape(2 * k, 2 * k)  # C-contiguous; rows (j, a)
    diagonal = np.arange(k)
    h.reshape(k, 2, k, 2)[diagonal, :, diagonal, :] = blocks
    return scores, 0.5 * (h + h.T)


def _check_identified(t: np.ndarray, counts: np.ndarray, n: np.ndarray) -> None:
    """Raise unless the MLE exists for the counts and their row totals n:
    Singular with fewer than 2 periods with counts, Separation when a variant
    is never observed or the variants' observed t-ranges do not chain together.

    With one covariate, a direction along which the likelihood never falls
    gives each variant a line a_j + b_j t that is highest over its observed
    range [first_j, last_j]. Two variants whose ranges overlap in more than
    one point (first_j < last_k and first_k < last_j) must then share a line,
    so the MLE exists exactly when that overlap relation links all variants
    (Albert & Anderson 1984). For m = 2 it is the overlap of the two ranges.
    Two periods t_a < t_b that see every variant give first_j <= t_a < t_b <=
    last_k for every pair, so they link all variants at once. O(T m + m^2).
    """
    if np.count_nonzero(n) < 2:
        raise Singular("need at least 2 periods with positive counts")
    m = counts.shape[1]
    seen = counts > 0
    if np.count_nonzero(seen.all(axis=1)) >= 2:
        return
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


def _initial_theta(counts: np.ndarray, n: np.ndarray, xx: np.ndarray) -> np.ndarray:
    # Least squares on Haldane-Anscombe corrected log ratios against the
    # numeraire, over the periods with counts; xx[:, :2] is x_t = (1, t).
    keep = n > 0
    c = counts[keep] + 0.5
    coef, *_ = np.linalg.lstsq(xx[keep, :2], np.log(c[:, 1:] / c[:, :1]), rcond=None)
    return coef.T.ravel()


def fit(series: SurveillanceSeries) -> FitResult:
    """Maximum likelihood fit of the m-variant model by damped Newton, in model time.

    Steps are halved while the likelihood drops. Newton stops once its
    decrement is at most DECREMENT_TOLERANCE, or DECREMENT_PER_CASE per case
    counted where that is larger. The softmax is evaluated once per theta (an
    accepted step's derivatives reuse the line search's), and the float
    counts, row totals and (1, t) products once per fit.
    """
    t, counts = series.columns
    counts, n, xx = _design(t, counts)
    _check_identified(t, counts, n)
    theta = _initial_theta(counts, n, xx)
    tolerance = max(DECREMENT_TOLERANCE, DECREMENT_PER_CASE * float(n.sum()))
    ll, log_shares = _log_likelihood(theta, t, counts)
    for iterations in range(MAX_ITERATIONS):
        scores, h = _derivatives(log_shares, counts, n, xx)
        g = scores.sum(axis=0)
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            raise Singular("singular Hessian during Newton iteration") from None
        if g @ step <= tolerance:
            information = -h
            for array in (theta, scores, information):
                array.flags.writeable = False
            return FitResult(theta=theta, scores=scores, information=information,
                             log_likelihood=ll, iterations=iterations,
                             score_norm=float(np.max(np.abs(g))), series=series)
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
