"""Maximum likelihood estimation of the variant-share logistic model.

With m variants, counts c_tj of variant j in period t, n_t = sum_j c_tj,
and linear predictors eta_tj = x_t' theta_j on the design row x_t = (1, t)
(theta_1 = 0 for the numeraire), the log-likelihood (up to the
multinomial-coefficient constant) is

    ll(theta) = sum_t sum_j c_tj * log softmax(eta_t)_j,
    theta = (a_2, b_2, a_3, b_3, ...), variant-major blocks of p = 2,

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

The kernel reads p from the (T, p) design X = (1, t) in the series' model time
t - t_1 + 1 (`columns[0]`), built by `_design` alone: no other design is exposed
until ill-conditioned fits are refused. at_zero moves alpha to the user's t = 0.

The kernel works on T-long columns, never a numpy loop over the short
variant axis: one max reduction, whole-column adds for the row totals and
the sum of exponentials, exponentials of the k shares it uses and one einsum
for the Hessian's (T, k, p^2) operand. Below 8 variants its bits equal numpy's
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
_P = 2  # columns of the design x_t = (1, t), which `_design` alone builds
_SLOPES = slice(1, None, _P)  # each b_j in theta, on X's column 1, t


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
        shares = np.exp(_log_softmax(self.theta, _design(*self.series.columns)[0]))
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
    columns = logits.T  # the max over an outer axis is fast only on C-ordered columns
    shifted = columns - (columns.max(axis=0) if columns.flags.c_contiguous
                         else reduce(np.maximum, columns))
    log_total = np.log(reduce(np.add, np.exp(shifted)))
    log_shares = np.empty(logits.shape)
    np.subtract(shifted, log_total, out=log_shares.T)
    return log_shares


def _log_softmax(theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    # Rows of eta: variants (row 0 is the numeraire); columns: periods. A matmul may round.
    T, p = X.shape
    eta = np.zeros((len(theta) // p + 1, T))
    rows = eta[1:]
    np.multiply.outer(theta[1::p], X[:, 1], out=rows)
    for c in range(2, p):
        rows += np.multiply.outer(theta[c::p], X[:, c])
    rows += theta[0::p, None]
    return log_softmax(eta.T)


def _log_likelihood(theta: np.ndarray, X: np.ndarray,
                    counts: np.ndarray) -> tuple[float, np.ndarray]:
    """The log-likelihood at theta and the (T, m) log-softmax it was summed from."""
    log_shares = _log_softmax(theta, X)
    return float(np.add.reduce(counts * log_shares, axis=None)), log_shares


def model_log_likelihood(theta: np.ndarray, t: np.ndarray, counts: np.ndarray) -> float:
    """Log-likelihood at theta of the (T,) periods and (T, m) counts."""
    return _log_likelihood(theta, _design(t, counts)[0], counts)[0]


def model_derivatives(
    theta: np.ndarray, t: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-period scores (T, 2(m-1)) and the Hessian at theta, from one softmax;
    score columns and Hessian rows are ordered (a_2, b_2, a_3, b_3, ...)."""
    X, *data = _design(t, counts)
    return _derivatives(_log_softmax(theta, X), X, *data)


def _design(t: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """The fit's data, whatever theta: the (T, p) design X, rows x_t = (1, t),
    column 0 the intercept the kernel adds as is; the float counts; their row
    totals n_t, exact below 2**53; xx, the (T, p^2) row products x_ta x_tc."""
    columns = np.empty((_P, len(t)))  # X's columns, each contiguous
    columns[0], columns[1] = 1.0, t
    counts = counts.astype(float)
    xx = np.empty((len(t), _P * _P))
    np.multiply(columns[:, None], columns, out=xx.T.reshape(_P, _P, -1))
    return columns.T, counts, reduce(np.add, counts.T), xx


def _derivatives(
    log_shares: np.ndarray, X: np.ndarray, counts: np.ndarray, n: np.ndarray, xx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # model_derivatives from the log-softmax at theta and the series' _design.
    (T, p), k = X.shape, counts.shape[1] - 1
    s = np.exp(log_shares[:, 1:])
    w = n[:, None] * s
    resid = counts[:, 1:] - w
    # Score column (j, c) is resid_j X[:, c]: resid_j itself on the intercept.
    scores = np.empty((T, k * p))
    scores[:, 0::p] = resid
    for c in range(1, p):
        np.multiply(resid, X[:, c, None], out=scores[:, c::p])
    # H = -sum_t kron(n_t (diag(s_t) - s_t s_t'), x_t x_t') in O(T m) memory.
    # With w = n s, one matmul gives the diagonal blocks sum_t w_tj (s_tj - 1)
    # x_t x_t' (subtracting sum_t w_tj x_t x_t' would cancel when a share nears
    # 1); at m = 2 that block is all of H, exactly symmetric as xx holds both
    # x_ta x_tc and x_tc x_ta. Otherwise one more gives every (j, k) block of
    # sum_t w_tj s_tk x_t x_t', and the diagonal blocks are set over it.
    blocks = ((w * (s - 1.0)).T @ xx).reshape(k, p, p)
    if k == 1:
        return scores, blocks[0]
    h = (np.einsum("tj,ta->tja", w, xx).reshape(T, -1).T @ s).reshape(k, p, p, k)
    h = h.transpose(0, 1, 3, 2).reshape(k * p, k * p)  # C-contiguous; rows (j, a)
    diagonal = np.arange(k)
    h.reshape(k, p, k, p)[diagonal, :, diagonal, :] = blocks
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


def _initial_theta(X: np.ndarray, counts: np.ndarray, n: np.ndarray) -> np.ndarray:
    # Least squares of Haldane-Anscombe corrected log ratios to the numeraire on X.
    keep = n > 0
    c = counts[keep] + 0.5
    coef, *_ = np.linalg.lstsq(X[keep], np.log(c[:, 1:] / c[:, :1]), rcond=None)
    return coef.T.ravel()


def fit(series: SurveillanceSeries) -> FitResult:
    """Maximum likelihood fit of the m-variant model by damped Newton, in model time.

    Steps are halved while the likelihood drops. Newton stops once its
    decrement is at most DECREMENT_TOLERANCE, or DECREMENT_PER_CASE per case
    counted where that is larger. The softmax is evaluated once per theta (an
    accepted step's derivatives reuse the line search's), and the design, the
    float counts, row totals and design products once per fit.
    """
    t, counts = series.columns
    X, counts, n, xx = _design(t, counts)
    _check_identified(t, counts, n)
    theta = _initial_theta(X, counts, n)
    tolerance = max(DECREMENT_TOLERANCE, DECREMENT_PER_CASE * float(n.sum()))
    ll, log_shares = _log_likelihood(theta, X, counts)
    for iterations in range(MAX_ITERATIONS):
        scores, h = _derivatives(log_shares, X, counts, n, xx)
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
            ll_new, candidate_log_shares = _log_likelihood(candidate, X, counts)
            if ll_new >= ll - slack or scale <= 1e-12:
                break
            scale *= 0.5
        theta, ll, log_shares = candidate, ll_new, candidate_log_shares
    raise MaxIterations(f"no convergence in {MAX_ITERATIONS} iterations")
