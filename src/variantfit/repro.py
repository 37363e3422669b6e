"""Effective reproduction number of the emerging variant.

Generation counting: with aggregate reproduction number R, proportion lam
and per-generation advantage g, the previous generation's cases add up,
which gives R_B = R * (lam + g * (1 - lam)) and R_A = R_B / g.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterable

from .dynamics import GENERATION_DAYS, Advantage, AdvantageEstimate, Proportion, Record
from .errors import NonPositiveCount, NonPositivePeriod, NonPositiveR

TEST_INTENSITY_EXPONENT = 0.7  # surveillance-practice adjustment for testing volume


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
