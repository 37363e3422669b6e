"""Closed forms that only the tests use, as oracles for the package's code."""

from variantfit.dynamics import Advantage, Proportion


def step_lambda(lam: Proportion, gamma: Advantage) -> Proportion:
    """Advance the variant proportion by one period of the logistic map:
    g * lam / ((1 - lam) + g * lam)."""
    g, x = gamma.value, lam.value
    return Proportion(g * x / ((1.0 - x) + g * x))
