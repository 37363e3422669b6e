"""Output checker: published reference values and independent numpy oracles.

Nothing here calls the code under test. Fits are checked by the
first-order condition of the likelihood, computed from the input counts
with this module's own score; covariance matrices against this module's
own Fisher inverse and banded Parzen HAC sum; intervals, crude measures,
forecast bands and reproduction numbers against their closed forms.
Reports are read by key, so keys added to a report later do not matter.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

Z95 = 1.96  # the program pins the 95% quantile to the conventional 1.96
GEN_DAYS = 4.7
FOC_TOLERANCE = 1e-6  # |score| as a share of its scale, sum(n) or sum(n*|t|)
MATRIX_RTOL = 1e-6  # relative to the largest entry; reports carry 10 digits
VALUE_RTOL = 1e-6
ERROR_LINE = re.compile(r"error: ([A-Za-z_][A-Za-z0-9_]*): \S.*")

# Published values at the tolerances of the acceptance tests
# (tests/test_acceptance.py): report key path, value, absolute tolerance.
PUBLISHED = {
    ("alpha", "sandwich(4)"): [
        (("fit", "beta"), 0.619, 0.002),
        (("advantage", "per_week", "point"), 1.86, 0.01),
        (("advantage", "per_week", "ci_low"), 1.82, 0.01),
        (("advantage", "per_week", "ci_high"), 1.89, 0.01),
        (("advantage", "per_generation", "ci_low"), 1.4971, 2e-3),
        (("advantage", "per_generation", "ci_high"), 1.5329, 2e-3),
    ],
    ("delta", "sandwich(4)"): [
        (("advantage", "per_week", "point"), 3.16, 0.02),
        (("advantage", "per_generation", "point"), 2.17, 0.02),
        (("advantage", "per_generation", "ci_low"), 1.9909, 2e-3),
        (("advantage", "per_generation", "ci_high"), 2.3593, 2e-3),
    ],
    ("omicron", "sandwich(4)"): [
        (("fit", "alpha"), -4.11, 0.02),
        (("fit", "beta"), 0.244, 0.002),
        (("advantage", "per_period", "point"), 1.28, 0.01),
        (("advantage", "per_generation", "point"), 3.15, 0.05),
        (("advantage", "per_generation", "ci_low"), 2.83, 0.03),
        (("advantage", "per_generation", "ci_high"), 3.50, 0.03),
    ],
    ("alpha", "fisher"): [
        (("advantage", "per_generation", "ci_low"), 1.5037, 2e-3),
        (("advantage", "per_generation", "ci_high"), 1.5262, 2e-3),
    ],
    ("delta", "fisher"): [
        (("advantage", "per_generation", "ci_low"), 2.1319, 2e-3),
        (("advantage", "per_generation", "ci_high"), 2.2033, 2e-3),
    ],
    # omicron has no published Fisher row; the oracles below still apply.
    ("omicron", "fisher"): [],
}
PUBLISHED_CRUDE_MEAN = {"alpha": (1.73, 0.01), "omicron": (1.27, 0.02)}
ALPHA_BETA = (0.619, 0.002)  # published weekly log advantage of Alpha


class Mismatch(Exception):
    """An output disagrees with its reference; the op counts as failed."""


# --- input parsing -----------------------------------------------------------


def parse_series_csv(text: str):
    """(t, n, x) float arrays from the two-variant CSV schema."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0][:4] != ["t", "label", "sequenced", "variant_count"]:
        raise Mismatch(f"bad two-variant CSV header {rows[:1]!r}")
    body = [r for r in rows[1:] if r]
    t = np.array([float(r[0]) for r in body])
    n = np.array([float(r[2]) for r in body])
    x = np.array([float(r[3]) for r in body])
    return t, n, x


def parse_multi_csv(text: str):
    """(t, counts, names) from the `t,label,count_<name>...` schema."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], [r for r in rows[1:] if r]
    names = [h[len("count_"):] for h in header[2:]]
    t = np.array([float(r[0]) for r in body])
    counts = np.array([[float(c) for c in r[2:]] for r in body])
    return t, counts, names


# --- binomial model ----------------------------------------------------------


def expit(z):
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def binomial_scores(t, n, x, a, b):
    """Per-period gradient of the log-likelihood, columns (alpha, beta)."""
    resid = x - n * expit(a + b * t)
    return np.column_stack([resid, resid * t])


def binomial_information(t, n, a, b):
    lam = expit(a + b * t)
    w = n * lam * (1.0 - lam)
    return np.array([[w.sum(), (w * t).sum()], [(w * t).sum(), (w * t * t).sum()]])


def parzen(u: float) -> float:
    u = abs(u)
    if u <= 0.5:
        return 1.0 - 6.0 * u * u + 6.0 * u**3
    if u <= 1.0:
        return 2.0 * (1.0 - u) ** 3
    return 0.0


def banded_hac(t, scores, bandwidth: int):
    """J_K = sum_t s_t s_t' + sum over lags 1..K of k(lag/(K+1)) (S_lag + S_lag').

    Lags are differences of t, so a gap in t is a longer lag, and only the
    K lags with nonzero Parzen weight are visited: O(T * K).
    """
    j = scores.T @ scores
    for lag in range(1, bandwidth + 1):
        w = parzen(lag / (bandwidth + 1))
        if w == 0.0:
            continue
        idx = np.searchsorted(t, t + lag)
        ok = idx < len(t)
        ok[ok] = t[idx[ok]] == t[ok] + lag
        cross = scores[ok].T @ scores[idx[ok]]
        j = j + w * (cross + cross.T)
    return j


def sandwich(info, scores, t, kind: str):
    """Covariance for `kind` "fisher" or "sandwich(K)" from information and scores."""
    inv = np.linalg.inv(info)
    if kind == "fisher":
        cov = inv
    else:
        bandwidth = int(kind[len("sandwich("):-1])
        cov = inv @ banded_hac(t, scores, bandwidth) @ inv
    return 0.5 * (cov + cov.T)


def binomial_covariance(t, n, x, a, b, kind: str):
    return sandwich(binomial_information(t, n, a, b), binomial_scores(t, n, x, a, b), t, kind)


# --- checks ------------------------------------------------------------------


def close(label, got, want, rtol=VALUE_RTOL, atol=1e-12):
    if not (math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)):
        raise Mismatch(f"{label}: got {got!r}, want {want!r}")


def within(label, got, want, tol):
    if not abs(got - want) <= tol:
        raise Mismatch(f"{label}: got {got!r}, published {want} +- {tol}")


def check_symmetric_psd(label, m):
    m = np.asarray(m, dtype=float)
    scale = max(np.max(np.abs(m)), 1e-300)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.all(np.isfinite(m)):
        raise Mismatch(f"{label}: not a finite square matrix")
    if np.max(np.abs(m - m.T)) > 1e-9 * scale:
        raise Mismatch(f"{label}: not symmetric")
    if np.min(np.linalg.eigvalsh(m)) < -1e-9 * scale:
        raise Mismatch(f"{label}: not positive semi-definite")


def check_matrix(label, got, want):
    got = np.asarray(got, dtype=float)
    check_symmetric_psd(label, got)
    if got.shape != want.shape:
        raise Mismatch(f"{label}: shape {got.shape}, want {want.shape}")
    if np.max(np.abs(got - want)) > MATRIX_RTOL * np.max(np.abs(want)):
        raise Mismatch(f"{label}: differs from the independent computation")


def check_first_order(label, t, n, x, a, b):
    """The score at the reported optimum is zero relative to its scale."""
    g = binomial_scores(t, n, x, a, b).sum(axis=0)
    scale = np.array([n.sum(), (n * np.abs(t)).sum()])
    if not np.all(np.abs(g) <= FOC_TOLERANCE * scale):
        raise Mismatch(f"{label}: score {g.tolist()} is not zero at the reported fit")


def lookup(report, path):
    value = report
    for key in path:
        value = value[key]
    return value


def check_estimate(report, data, period_days, kind, published=(), truth_beta=None):
    t, n, x = data
    a, b = report["fit"]["alpha"], report["fit"]["beta"]
    check_first_order("estimate", t, n, x, a, b)
    if report["options"]["variance"] != kind:
        raise Mismatch(f"variance {report['options']['variance']!r}, want {kind!r}")
    cov = binomial_covariance(t, n, x, a, b, kind)
    check_matrix("covariance", report["covariance"], cov)
    se = math.sqrt(cov[1, 1])
    for key, days in (("per_period", period_days), ("per_generation", GEN_DAYS), ("per_week", 7.0)):
        s = days / period_days
        got = report["advantage"][key]
        close(f"{key} point", got["point"], math.exp(s * b))
        close(f"{key} ci_low", got["ci_low"], math.exp(s * (b - Z95 * se)))
        close(f"{key} ci_high", got["ci_high"], math.exp(s * (b + Z95 * se)))
    for path, value, tol in published:
        within(".".join(path), lookup(report, path), value, tol)
    if truth_beta is not None:
        fisher_se = math.sqrt(np.linalg.inv(binomial_information(t, n, a, b))[1, 1])
        within("beta vs simulated truth", b, truth_beta, 6.0 * fisher_se)


def crude_measures(t, n, x):
    """(t, value, ci_low, ci_high) per adjacent pair; +0.5 on all cells of a pair with a zero."""
    out = []
    for i in range(1, len(t)):
        cells = [x[i], n[i] - x[i], x[i - 1], n[i - 1] - x[i - 1]]
        if min(cells) == 0:
            cells = [c + 0.5 for c in cells]
        a, b, c, d = cells
        log_ratio = math.log(a / b) - math.log(c / d)
        se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
        dt = t[i] - t[i - 1]
        out.append((t[i], math.exp(log_ratio / dt),
                    math.exp((log_ratio - Z95 * se) / dt), math.exp((log_ratio + Z95 * se) / dt)))
    return out


def check_crude(report, data, published_mean=None):
    want = crude_measures(*data)
    got = report["measures"]
    if len(got) != len(want):
        raise Mismatch(f"{len(got)} crude measures, want {len(want)}")
    for g, (t, value, lo, hi) in zip(got, want):
        if g["t"] != t:
            raise Mismatch(f"crude t {g['t']}, want {t}")
        close(f"crude t={t} value", g["value"], value)
        close(f"crude t={t} ci_low", g["ci_low"], lo)
        close(f"crude t={t} ci_high", g["ci_high"], hi)
    close("crude mean", report["mean"], sum(w[1] for w in want) / len(want))
    if published_mean is not None:
        within("crude mean", report["mean"], *published_mean)


def check_forecast(report, data, horizons, cs):
    t, n, x = data
    through = report["options"]["train_through"]
    keep = t <= through
    t, n, x = t[keep], n[keep], x[keep]
    a, b = report["fit"]["alpha"], report["fit"]["beta"]
    check_first_order("forecast fit", t, n, x, a, b)
    cov = binomial_covariance(t, n, x, a, b, "sandwich(4)")  # the CLI's default variance
    bands = report["bands"]
    if [band["c"] for band in bands] != list(cs):
        raise Mismatch(f"band multipliers {[band['c'] for band in bands]}, want {list(cs)}")
    for band in bands:
        rows = band["rows"]
        if [row["t"] for row in rows] != [through + h for h in range(1, horizons + 1)]:
            raise Mismatch("forecast horizons differ")
        for row in rows:
            h = row["t"]
            eta = a + b * h
            half = band["c"] * math.sqrt(max(cov[0, 0] + 2 * h * cov[0, 1] + h * h * cov[1, 1], 0.0))
            close(f"forecast t={h} point", row["point"], float(expit(eta)))
            close(f"forecast t={h} lower", row["lower"], float(expit(eta - half)))
            close(f"forecast t={h} upper", row["upper"], float(expit(eta + half)))


def check_infer_from_fit(report, R, lam):
    """`infer-r --from-fit alpha`: the advantage must lie in Alpha's published band."""
    g = report["options"]["gamma_gen"]
    s = GEN_DAYS / 7.0
    beta, tol = ALPHA_BETA
    if not math.exp(s * (beta - tol)) <= g <= math.exp(s * (beta + tol)):
        raise Mismatch(f"per-generation advantage {g} outside the published band")
    inference = report["inference"]
    close("R_variant", inference["R_variant"], R * (lam + g * (1.0 - lam)))
    close("R_incumbent", inference["R_incumbent"], R * (lam + g * (1.0 - lam)) / g)


def check_contour(report, g, lo, hi, grid):
    rows = report["contour"]
    if len(rows) != len(grid):
        raise Mismatch(f"{len(rows)} contour rows, want {len(grid)}")
    for row, lam in zip(rows, grid):
        thresholds = sorted(1.0 / (lam + v * (1.0 - lam)) for v in (g, lo, hi))
        close("contour lambda", row["lambda"], lam)
        close(f"contour threshold lambda={lam}", row["threshold"], 1.0 / (lam + g * (1.0 - lam)))
        close(f"contour lo lambda={lam}", row["lo"], thresholds[0])
        close(f"contour hi lambda={lam}", row["hi"], thresholds[-1])


def check_adjusted_r(report, cases, cases_prev, tested, tested_prev):
    """Weekly counts, the default testing exponent 0.7."""
    log_ratio = math.log(cases / cases_prev) - 0.7 * math.log(tested / tested_prev)
    close("R_all", report["R_all"], math.exp(GEN_DAYS / 7.0 * log_ratio))


def check_simulated_csv(text, n, periods):
    t, sequenced, x = parse_series_csv(text)
    if t.tolist() != list(range(1, periods + 1)):
        raise Mismatch("simulated periods are not 1..T")
    if not (np.all(sequenced == n) and np.all((0 <= x) & (x <= sequenced))):
        raise Mismatch("simulated counts violate 0 <= X <= N")


def check_contract(code, stdout, stderr):
    """An invalid invocation exits 1 with exactly one `error: <Type>: message` line."""
    lines = stderr.strip().splitlines()
    if code != 1 or stdout or len(lines) != 1 or not ERROR_LINE.fullmatch(lines[0]):
        raise Mismatch("invalid input did not give exit 1 and one error line")


def error_type(stderr: str) -> str | None:
    """Exception name from a traceback's last line or from an `error:` line."""
    lines = stderr.strip().splitlines()
    if not lines:
        return None
    if any(line.startswith("Traceback") for line in lines):
        return lines[-1].split(":", 1)[0].rsplit(".", 1)[-1].strip() or "Traceback"
    match = ERROR_LINE.fullmatch(lines[-1])
    return match.group(1) if match else None


# --- multinomial model -------------------------------------------------------


def _multi_parts(t, counts, theta):
    m = counts.shape[1]
    eta = np.zeros_like(counts)
    eta[:, 1:] = theta[0::2] + np.outer(t, theta[1::2])
    eta -= eta.max(axis=1, keepdims=True)
    p = np.exp(eta)
    p /= p.sum(axis=1, keepdims=True)
    n = counts.sum(axis=1)
    ll = float(np.sum(np.where(counts > 0, counts * np.log(p), 0.0)))
    resid = counts[:, 1:] - n[:, None] * p[:, 1:]
    scores = np.empty((len(t), 2 * (m - 1)))
    scores[:, 0::2] = resid
    scores[:, 1::2] = resid * t[:, None]
    q = p[:, 1:]
    w = n[:, None, None] * (q[:, :, None] * np.eye(m - 1) - q[:, :, None] * q[:, None, :])
    tt = np.stack([np.ones_like(t), t, t, t * t], axis=1).reshape(-1, 2, 2)
    info = np.einsum("tij,tkl->ikjl", w, tt).reshape(2 * (m - 1), 2 * (m - 1))
    return ll, scores, info


def multinomial_fit(t, counts, max_iterations=200):
    """Damped Newton MLE, theta ordered (a_2, b_2, a_3, b_3, ...)."""
    theta = np.zeros(2 * (counts.shape[1] - 1))
    ll, scores, info = _multi_parts(t, counts, theta)
    for _ in range(max_iterations):
        step = np.linalg.solve(info, scores.sum(axis=0))
        scale = 1.0
        while scale > 1e-10:
            ll_new, scores_new, info_new = _multi_parts(t, counts, theta + scale * step)
            if ll_new >= ll - 1e-12 * abs(ll):
                break
            scale *= 0.5
        theta = theta + scale * step
        ll, scores, info = ll_new, scores_new, info_new
        if np.max(np.abs(scale * step)) <= 1e-13 * (1.0 + np.max(np.abs(theta))):
            break
    return theta, scores, info


def check_multi(report, t, counts, names, kind, fitted):
    """`fitted` is multinomial_fit(t, counts), passed in so callers can cache it."""
    theta, scores, info = fitted
    if report["numeraire"] != names[0] or [v["variant"] for v in report["variants"]] != names[1:]:
        raise Mismatch("variant names or order differ from the input")
    if report["options"]["variance"] != kind:
        raise Mismatch(f"variance {report['options']['variance']!r}, want {kind!r}")
    cov = sandwich(info, scores, t, kind)
    check_matrix("multi covariance", report["covariance"], cov)
    s = GEN_DAYS / 7.0  # weekly periods, the CLI's default
    for j, variant in enumerate(report["variants"]):
        b = theta[2 * j + 1]
        se = math.sqrt(cov[2 * j + 1, 2 * j + 1])
        close(f"{variant['variant']} log advantage", math.log(variant["gamma_per_period"]), b,
              rtol=VALUE_RTOL, atol=1e-9)
        close(f"{variant['variant']} ci_low", variant["ci_low_per_generation"], math.exp(s * (b - Z95 * se)))
        close(f"{variant['variant']} ci_high", variant["ci_high_per_generation"], math.exp(s * (b + Z95 * se)))
