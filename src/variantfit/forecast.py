"""Point forecasts of the variant proportion with delta-method bands.

The band at time t perturbs the fitted linear predictor by +-c standard
deviations of alpha_hat + beta_hat * t before applying the logistic map:

    endpoint = expit(alpha + beta*t -+ c*sqrt(v)),   v = (1, t) Sigma (1, t)'

so the band reflects parameter uncertainty only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dynamics import from_log_odds
from .errors import NegativeC
from .estimate import FitResult
from .inference import VarianceEstimate


@dataclass(frozen=True)
class ForecastBand:
    """Per-horizon point forecast with lower/upper band at c standard deviations."""

    t_values: tuple[float, ...]
    point: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    c: float

    def __post_init__(self):
        for lo, pt, hi in zip(self.lower, self.point, self.upper):
            assert 0.0 <= lo <= pt <= hi <= 1.0


def forecast(
    fit: FitResult,
    variance: VarianceEstimate,
    horizons: Sequence[float],
    c: float,
) -> ForecastBand:
    """Band over absolute t values (the CLI converts '+h periods' to these)."""
    if c < 0:
        raise NegativeC(f"c must be >= 0, got {c}")
    alpha, beta = fit.params.alpha, fit.params.beta
    cov = variance.matrix
    points, lowers, uppers = [], [], []
    for t in horizons:
        eta = alpha + beta * t
        v = cov[0, 0] + 2.0 * t * cov[0, 1] + t * t * cov[1, 1]
        half = c * math.sqrt(max(v, 0.0))
        points.append(from_log_odds(eta).value)
        lowers.append(from_log_odds(eta - half).value)
        uppers.append(from_log_odds(eta + half).value)
    return ForecastBand(
        t_values=tuple(float(t) for t in horizons),
        point=tuple(points),
        lower=tuple(lowers),
        upper=tuple(uppers),
        c=float(c),
    )
