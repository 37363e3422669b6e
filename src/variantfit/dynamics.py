"""The model's value classes: proportions, advantages, parameters and estimates.

The variant proportion follows the one-step recursion

    next_lambda = g * lam / ((1 - lam) + g * lam)

whose closed form is the logistic curve lam_t = 1 / (1 + exp(-a - b*t))
with a the log initial odds and b = log(g) the per-period log advantage.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import InvalidValue, NonPositivePeriod

GENERATION_DAYS = 4.7  # default generation period in days
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
