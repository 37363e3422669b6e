"""The model: its value classes, and the variant's R by generation counting.

Variant 1 is the numeraire (advantage fixed at 1). The shares of m variants
follow the one-step recursion

    lam[j, t+1] = g[j] * lam[j, t] / sum_k g[k] * lam[k, t]

whose closed form is a multinomial-logistic curve with linear predictors
a_j + b_j * t (a_1 = b_1 = 0, b_j = log g_j, a_j the log initial odds). For
m = 2 it is the logistic curve lam_t = 1 / (1 + exp(-a - b*t)).

Generation counting: with aggregate reproduction number R, proportion lam
and per-generation advantage g, the previous generation's cases add up,
which gives R_B = R * (lam + g * (1 - lam)) and R_A = R_B / g.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable

from .errors import InvalidValue, NonPositiveCount, NonPositivePeriod, NonPositiveR

GENERATION_DAYS = 4.7  # default generation period in days
TEST_INTENSITY_EXPONENT = 0.7  # surveillance-practice adjustment for testing volume
DEFAULT_BANDWIDTH = 4  # default Parzen HAC bandwidth K
DEFAULT_LEVEL = 0.95  # default confidence level


def check_level(level: float) -> None:
    """InvalidValue unless the confidence level lies in (0, 1)."""
    if not 0 < level < 1:
        raise InvalidValue(f"level must lie in (0,1), got {level}")


class Record(tuple):
    """Base of the immutable value classes, which are namedtuples that
    validate their fields in `__new__`: an instance equals only an instance
    of its own class with equal fields, as a frozen dataclass does. It is
    listed before the namedtuple, so that its methods win.

    They are not dataclasses because `dataclasses` imports `inspect`, `ast`
    and `dis`, ~10 ms of the start-up of the CLI commands that load no numpy.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        """The namedtuple constructor from an iterable, here through `__new__`,
        so that `_replace` validates as well."""
        return cls(*iterable)


class Proportion(Record, namedtuple("Proportion", "value")):
    """Fraction of cases belonging to the new variant."""

    __slots__ = ()

    def __new__(cls, value: float):
        if not 0.0 <= value <= 1.0:
            raise InvalidValue(f"proportion must lie in [0,1], got {value}")
        return super().__new__(cls, value)


class Advantage(Record, namedtuple("Advantage", "value period_days")):
    """Multiplicative growth advantage per `period_days` calendar days."""

    __slots__ = ()

    def __new__(cls, value: float, period_days: float = 7.0):
        if not value > 0:  # nan fails too
            raise InvalidValue(f"advantage must be positive, got {value}")
        if not period_days > 0:
            raise NonPositivePeriod(f"period_days must be positive, got {period_days}")
        return super().__new__(cls, value, period_days)


class ModelParams(Record, namedtuple("ModelParams", "alpha beta")):
    """Logistic-curve parameters: alpha = log initial odds, beta = log advantage."""

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float):
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise InvalidValue("parameters must be finite")
        return super().__new__(cls, alpha, beta)

    @property
    def gamma(self) -> float:
        return math.exp(self.beta)


class AdvantageEstimate(Record, namedtuple("AdvantageEstimate", "gamma ci_low ci_high level")):
    """Point estimate of the advantage with a confidence interval."""

    __slots__ = ()

    def __new__(cls, gamma: Advantage, ci_low: float, ci_high: float, level: float):
        check_level(level)
        if not ci_low <= gamma.value <= ci_high:
            raise InvalidValue("interval must contain the point estimate")
        return super().__new__(cls, gamma, ci_low, ci_high, level)


class ReproInference(Record, namedtuple("ReproInference", "R_all lam gamma_gen R_variant")):
    """The aggregate R, the variant's share and advantage, and the variant's R."""

    __slots__ = ()

    @property
    def R_incumbent(self) -> float:
        return self.R_variant / self.gamma_gen.value


def infer_variant_R(
    R_all: float, lam: Proportion, gamma_gen: Advantage
) -> ReproInference:
    """The variant's and the incumbent's R from the aggregate R.

    NonPositiveR unless R_all > 0; OverflowError when either R is too large
    for a float.
    """
    if not R_all > 0:  # nan fails too
        raise NonPositiveR(f"aggregate R must be positive, got {R_all}")
    r_variant = R_all * (lam.value + gamma_gen.value * (1.0 - lam.value))
    for name, value in (("R_variant", r_variant), ("R_incumbent", r_variant / gamma_gen.value)):
        if not math.isfinite(value):
            raise OverflowError(f"{name} is too large for a float")
    return ReproInference(R_all=R_all, lam=lam, gamma_gen=gamma_gen, R_variant=r_variant)


def adjusted_R(
    cases_t: float,
    cases_prev: float,
    tested_t: float,
    tested_prev: float,
    gen_days: float = GENERATION_DAYS,
    period_days: float = 7.0,
    exponent: float = TEST_INTENSITY_EXPONENT,
) -> float:
    """Per-generation aggregate R from the test-intensity-adjusted case ratio.

    Cases are deflated by (tested/baseline)^exponent; the baseline cancels
    in the ratio, so only the two periods' counts are needed. NonPositivePeriod
    unless gen_days and period_days are positive; OverflowError unless R_all
    is a positive finite float.
    """
    for name, v in (("cases_t", cases_t), ("cases_prev", cases_prev),
                    ("tested_t", tested_t), ("tested_prev", tested_prev)):
        if not v > 0:  # nan fails too
            raise NonPositiveCount(f"{name} must be positive, got {v}")
    for name, days in (("gen_days", gen_days), ("period_days", period_days)):
        if not days > 0:
            raise NonPositivePeriod(f"{name} must be positive, got {days}")
    log_cases = math.log(cases_t) - math.log(cases_prev)
    log_tested = math.log(tested_t) - math.log(tested_prev)
    log_r = (gen_days / period_days) * (log_cases - exponent * log_tested)
    try:
        r_all = math.exp(log_r)
    except OverflowError:
        r_all = math.inf
    if not 0.0 < r_all < math.inf:
        raise OverflowError(f"R_all = exp({log_r:g}) is not a positive finite float")
    return r_all


def stability_region(
    gamma: AdvantageEstimate, lambda_grid: Iterable[Proportion]
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Threshold aggregate R at which the variant's R crosses 1, per lambda.

    Returns four columns, as `crude_gammas` does: lambda, the threshold at
    the point advantage, and lo/hi, the least and greatest threshold over the
    point and both CI endpoints; the band collapses to zero width as
    lambda -> 1. Using the endpoints is exact: the threshold
    1 / (lambda + g (1 - lambda)) is monotone in g, so over the interval of g
    it takes its extremes at the interval's ends. OverflowError when a
    threshold is too large for a float or, at a zero denominator, infinite.
    """

    def threshold(lam: float, g: float) -> float:
        denominator = lam + g * (1.0 - lam)
        value = 1.0 / denominator if denominator else math.inf
        if not math.isfinite(value):
            raise OverflowError(f"threshold R at lambda {lam:g} and advantage {g:g} "
                                "is too large for a float")
        return value

    advantages = (gamma.gamma.value, gamma.ci_low, gamma.ci_high)
    lams = [p.value for p in lambda_grid]
    values = [[threshold(lam, g) for g in advantages] for lam in lams]
    return lams, [v[0] for v in values], list(map(min, values)), list(map(max, values))
