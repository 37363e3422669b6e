"""Point forecasts of the variant proportion with delta-method bands.

The band at time t perturbs the fitted linear predictor by +-c standard
deviations of alpha_hat + beta_hat * t before applying the logistic map:

    endpoint = expit(alpha + beta*t -+ c*sqrt(v)),   v = (1, t) Sigma (1, t)'

so the band reflects parameter uncertainty only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NegativeC
from .estimate import FitResult, log_softmax
from .inference import VarianceEstimate


@dataclass(frozen=True)
class ForecastBand:
    """Per-horizon point forecast with lower/upper band at c standard deviations."""

    t_values: tuple[float, ...]
    point: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        for lo, pt, hi in zip(self.lower, self.point, self.upper):
            assert 0.0 <= lo <= pt <= hi <= 1.0


def forecast(
    fit: FitResult,
    variance: VarianceEstimate,
    horizons: Sequence[float],
    c: float,
) -> ForecastBand:
    """Band over absolute t values (the CLI converts '+h periods' to these),
    worked out in the fit's model time, where theta and the variance are.
    Integer horizons map to model time h - origin exactly, in Python ints, as
    the series' own model time is built."""
    if c < 0:
        raise NegativeC(f"c must be >= 0, got {c}")
    beta = fit.params.beta  # InvalidValue unless the fit has two variants
    t_values = tuple(float(t) for t in horizons)
    t = np.array([h - fit.series.origin for h in horizons], dtype=float)
    cov = variance.matrix
    eta = fit.theta[0] + beta * t
    v = cov[0, 0] + 2.0 * t * cov[0, 1] + t * t * cov[1, 1]
    with np.errstate(over="ignore"):  # a huge c gives an infinite half-width
        half = c * np.sqrt(np.maximum(v, 0.0))
    # The logits (0, x) of every band end and point, in one logistic map.
    # Beyond +-800 a share is exactly 0 or 1, so clipping there changes no
    # share and keeps an infinite band end out of the map. The sort undoes
    # rounding that misorders shares of logits a few ulps apart.
    ends = np.clip([eta - half, eta, eta + half], -800.0, 800.0)
    logits = np.stack([np.zeros((3, len(t))), ends], axis=-1)
    shares = np.sort(np.exp(log_softmax(logits))[..., 1], axis=0)
    lower, point, upper = map(tuple, shares.tolist())
    return ForecastBand(t_values=t_values, point=point, lower=lower, upper=upper)
