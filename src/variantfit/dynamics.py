"""Deterministic proportion dynamics and odds-ratio algebra.

The variant proportion follows the one-step recursion

    next_lambda = g * lam / ((1 - lam) + g * lam)

whose closed form is the logistic curve lam_t = 1 / (1 + exp(-a - b*t))
with a the log initial odds and b = log(g) the per-period log advantage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BoundaryOdds, InvalidValue, NonPositivePeriod

GENERATION_DAYS = 4.7  # default generation period in days


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


def step_lambda(lam: Proportion, gamma: Advantage) -> Proportion:
    """Advance the variant proportion by one period."""
    g, x = gamma.value, lam.value
    return Proportion(g * x / ((1.0 - x) + g * x))


def lambda_at(params: ModelParams, t: float) -> Proportion:
    """Closed-form proportion at time t."""
    return from_log_odds(params.alpha + params.beta * t)


def odds(lam: Proportion) -> float:
    """Odds value / (1 - value); infinite at the upper boundary."""
    if lam.value >= 1.0:
        raise BoundaryOdds("odds undefined at proportion 1")
    return lam.value / (1.0 - lam.value)


def log_odds(lam: Proportion) -> float:
    if lam.value <= 0.0 or lam.value >= 1.0:
        raise BoundaryOdds(f"log-odds undefined at proportion {lam.value}")
    return math.log(lam.value) - math.log1p(-lam.value)


def from_log_odds(value: float) -> Proportion:
    """Inverse of log_odds; total on finite inputs."""
    if value >= 0:
        return Proportion(1.0 / (1.0 + math.exp(-value)))
    e = math.exp(value)
    return Proportion(e / (1.0 + e))


def rescale_advantage(gamma: Advantage, target_days: float) -> Advantage:
    """Re-express the advantage over a different calendar period.

    Multiplicative in exponents: g_x = exp((x / period_days) * log g).
    """
    if target_days <= 0:
        raise NonPositivePeriod(f"target_days must be positive, got {target_days}")
    scaled = math.exp((target_days / gamma.period_days) * math.log(gamma.value))
    return Advantage(value=scaled, period_days=target_days)
