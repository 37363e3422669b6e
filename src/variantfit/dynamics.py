"""Proportions, advantages and the deterministic one-step dynamics.

The variant proportion follows the one-step recursion

    next_lambda = g * lam / ((1 - lam) + g * lam)

whose closed form is the logistic curve lam_t = 1 / (1 + exp(-a - b*t))
with a the log initial odds and b = log(g) the per-period log advantage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidValue, NonPositivePeriod

GENERATION_DAYS = 4.7  # default generation period in days
DEFAULT_BANDWIDTH = 4  # default Parzen HAC bandwidth K


def check_level(level: float) -> None:
    """InvalidValue unless the confidence level lies in (0, 1)."""
    if not 0 < level < 1:
        raise InvalidValue(f"level must lie in (0,1), got {level}")


@dataclass(frozen=True)
class Proportion:
    """Fraction of cases belonging to the new variant."""

    value: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise InvalidValue(f"proportion must lie in [0,1], got {self.value}")


@dataclass(frozen=True)
class Advantage:
    """Multiplicative growth advantage per `period_days` calendar days."""

    value: float
    period_days: float = 7.0

    def __post_init__(self):
        if self.value <= 0:
            raise InvalidValue(f"advantage must be positive, got {self.value}")
        if self.period_days <= 0:
            raise NonPositivePeriod(f"period_days must be positive, got {self.period_days}")


@dataclass(frozen=True)
class ModelParams:
    """Logistic-curve parameters: alpha = log initial odds, beta = log advantage."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise InvalidValue("parameters must be finite")

    @property
    def gamma(self) -> float:
        return math.exp(self.beta)


@dataclass(frozen=True)
class AdvantageEstimate:
    """Point estimate of the advantage with a confidence interval."""

    gamma: Advantage
    ci_low: float
    ci_high: float
    level: float

    def __post_init__(self):
        check_level(self.level)
        if not self.ci_low <= self.gamma.value <= self.ci_high:
            raise InvalidValue("interval must contain the point estimate")


def step_lambda(lam: Proportion, gamma: Advantage) -> Proportion:
    """Advance the variant proportion by one period."""
    g, x = gamma.value, lam.value
    return Proportion(g * x / ((1.0 - x) + g * x))


def from_log_odds(value: float) -> Proportion:
    """The proportion whose log-odds is `value`, expit(value); total on finite inputs."""
    if value >= 0:
        return Proportion(1.0 / (1.0 + math.exp(-value)))
    e = math.exp(value)
    return Proportion(e / (1.0 + e))
