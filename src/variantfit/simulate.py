"""Synthetic surveillance series under the model's data-generating process.

Serves as the independent oracle for estimator-recovery and invariance
tests: shares follow the model's closed form, the multinomial-logistic
curve in t, and counts are drawn binomially (multinomially for m > 2) in
one call of numpy's PCG64 generator, so identical (seed, replication) pairs
give identical series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .data import TWO_VARIANT_NAMES, SurveillanceSeries
from .errors import InvalidConfig, VariantFitError
from .estimate import fit, log_softmax
from .inference import interval_for_gamma, sandwich


@dataclass(frozen=True)
class SimConfig:
    gammas: tuple[float, ...]  # per-period advantages of variants 2..m
    initial_proportions: tuple[float, ...]  # simplex of length m
    sequenced: tuple[int, ...]  # N_t schedule, length T
    seed: int = 0
    period_days: float = 7.0
    growth: Optional[tuple[float, ...]] = None  # numeraire growth a_t, length T
    base_cases: float = 10_000.0  # total cases at t=0 when growth is given

    def __post_init__(self):
        lam = np.asarray(self.initial_proportions, dtype=float)
        if len(lam) != len(self.gammas) + 1:
            raise InvalidConfig("need one initial proportion per variant")
        if np.any(lam < 0) or abs(lam.sum() - 1.0) > 1e-9:
            raise InvalidConfig("initial proportions must form a simplex")
        if any(g <= 0 for g in self.gammas):
            raise InvalidConfig("advantages must be positive")
        if any(n < 0 for n in self.sequenced):
            raise InvalidConfig("sequenced counts must be non-negative")
        if len(self.sequenced) == 0:
            raise InvalidConfig("empty sequencing schedule")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be non-negative, got {self.seed}")
        if self.growth is not None:
            if len(self.gammas) != 1:
                raise InvalidConfig("a growth schedule needs exactly two variants")
            if len(self.growth) != len(self.sequenced):
                raise InvalidConfig("growth schedule must match the sequencing schedule")

    @property
    def n_variants(self) -> int:
        return len(self.gammas) + 1

    @cached_property
    def path(self) -> np.ndarray:
        """Deterministic simplex path, rows t=1..T: the row-wise softmax of
        log lam0 + t log g, where g = (1, gammas). A zero initial share stays
        an exact zero column. Worked out on first use, once per config, and
        read-only."""
        lam0 = np.asarray(self.initial_proportions, dtype=float)
        log_g = np.log((1.0, *self.gammas))
        log_lam0 = np.log(lam0, out=np.full_like(lam0, -np.inf), where=lam0 > 0)
        t = np.arange(1.0, len(self.sequenced) + 1.0)
        path = np.exp(log_softmax(log_lam0 + t[:, None] * log_g))
        path.flags.writeable = False
        return path


def simulate(config: SimConfig, replication: int = 0) -> SurveillanceSeries:
    """Draw one synthetic series; the RNG stream is keyed by (seed, replication)."""
    if replication < 0:
        raise InvalidConfig(f"replication must be non-negative, got {replication}")
    rng = np.random.default_rng([config.seed, replication])
    path = config.path
    n = np.asarray(config.sequenced, dtype=np.int64)
    T, m = path.shape
    if m == 2:
        x = rng.binomial(n, path[:, 1])
        counts, names = np.column_stack([n - x, x]), TWO_VARIANT_NAMES
    else:
        counts = rng.multinomial(n, path)
        names = tuple(f"variant_{j}" for j in range(1, m + 1))

    total_cases = None
    if config.growth is not None:
        cases = np.asarray(config.initial_proportions) * config.base_cases
        g = np.array((1.0, *config.gammas))
        total_cases = []
        for a, n_t in zip(config.growth, config.sequenced):
            cases = cases * g * a
            total_cases.append(max(int(round(cases.sum())), n_t))

    return SurveillanceSeries(
        t_values=tuple(range(1, T + 1)),
        labels=tuple(f"t{i}" for i in range(1, T + 1)),
        counts=counts,
        variant_names=names,
        period_days=config.period_days,
        total_cases=total_cases,
    )


@dataclass(frozen=True)
class RecoveryReport:
    n_replications: int
    n_failed: int
    true_gamma: float
    mean_gamma: float
    bias: float
    coverage: float  # fraction of CIs containing the true advantage
    mean_ci_width: float


def recovery_report(
    config: SimConfig,
    n_replications: int,
    level: float = 0.95,
    bandwidth: Optional[int] = None,
) -> RecoveryReport:
    """Fit each replication and summarize bias, coverage, and CI width.

    Two-variant configs only. Fit failures (separation on extreme draws)
    are counted, not fatal. The default variance is Fisher; pass a
    bandwidth for HAC intervals.
    """
    if config.n_variants != 2:
        raise InvalidConfig("recovery_report handles two-variant configs only")
    if n_replications < 1:
        raise InvalidConfig("need at least one replication")
    true_gamma = config.gammas[0]
    gammas, covered, widths, failed = [], 0, [], 0
    for rep in range(n_replications):
        series = simulate(config, replication=rep)
        try:
            result = fit(series)
            variance = sandwich(result, bandwidth)
        except VariantFitError:
            failed += 1
            continue
        est = interval_for_gamma(variance, result, config.period_days, level)
        gammas.append(est.gamma.value)
        widths.append(est.ci_high - est.ci_low)
        if est.ci_low <= true_gamma <= est.ci_high:
            covered += 1
    n_ok = len(gammas)
    if n_ok == 0:
        raise InvalidConfig("all replications failed to fit")
    return RecoveryReport(
        n_replications=n_replications,
        n_failed=failed,
        true_gamma=true_gamma,
        mean_gamma=float(np.mean(gammas)),
        bias=float(np.mean(gammas) - true_gamma),
        coverage=covered / n_ok,
        mean_ci_width=float(np.mean(widths)),
    )
