"""Exception hierarchy shared across the package, and the integer check
that raises it."""

import operator


class VariantFitError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(VariantFitError):
    """A command line the parser rejects: an unknown or conflicting option,
    a missing argument or a malformed option value."""


class InvalidValue(VariantFitError, ValueError):
    """A value lies outside its valid range, such as a proportion above 1,
    a confidence level outside (0, 1) or a negative count."""


class EmptySeries(VariantFitError):
    """Fewer than two periods."""


class CountViolation(VariantFitError):
    """Counts violate 0 <= variant_count <= sequenced <= total_cases."""


class DuplicatePeriod(VariantFitError):
    """Repeated t_index within one series."""


class UnknownDataset(VariantFitError):
    """Requested bundled dataset does not exist."""


class ParseError(VariantFitError):
    """Malformed CSV input; message carries the row number."""


class NonPositivePeriod(VariantFitError):
    """Period length must be strictly positive."""


class Separation(VariantFitError):
    """A variant is never observed, or the variants' observed periods split
    into groups that overlap in at most one period; the MLE diverges."""


class Singular(VariantFitError):
    """Too few informative periods for the parameters or their variance."""


class MaxIterations(VariantFitError):
    """Optimizer hit the iteration cap without converging."""


class BandwidthTooLarge(VariantFitError):
    """HAC bandwidth K must be smaller than the number of periods."""


class PeriodMismatch(VariantFitError):
    """Advantage estimates measured over different period lengths."""


class InvalidIndex(VariantFitError):
    """Variant index out of range or repeated."""


class InvalidConfig(VariantFitError):
    """Simulation configuration violates its invariants."""


class NonPositiveR(VariantFitError):
    """Reproduction number inputs must be strictly positive."""


class NonPositiveCount(VariantFitError):
    """Case / test counts must be strictly positive here."""


class NegativeC(VariantFitError):
    """Band half-width multiplier c must be non-negative."""


class WindowOutOfRange(VariantFitError):
    """Training window does not lie within the data."""


def checked_index(value, name: str, error: type[VariantFitError]) -> int:
    """`operator.index(value)`, so a bool or a numpy integer passes as its int;
    `error` for a value that is not an integer, such as 2.5."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
