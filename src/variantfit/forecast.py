"""Point forecasts of the variant proportion with delta-method bands.

The band at time t perturbs the fitted linear predictor by +-c standard
deviations of alpha_hat + beta_hat * t before applying the logistic map:

    endpoint = expit(alpha + beta*t -+ c*sqrt(v)),   v = (1, t) Sigma (1, t)'

so the band reflects parameter uncertainty only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import NegativeC
from .estimate import FitResult, log_softmax
from .inference import VarianceEstimate


def forecast(
    fit: FitResult,
    variance: VarianceEstimate,
    horizons: Sequence[float],
    c: float,
) -> tuple[tuple, list[float], list[float], list[float]]:
    """The band at each horizon, an absolute t (the CLI converts '+h periods'
    to these), as four columns, as `crude_gammas` returns its measures: the
    horizons as given, the point share, and the band's lower and upper ends,
    0 <= lower <= point <= upper <= 1. Worked out in the fit's model time,
    where theta and the variance are; integer horizons map to model time
    h - origin exactly, in Python ints, as the series' own model time is built.
    `variance` must be the fit's own (see `VarianceEstimate.matrix_for`)."""
    if c < 0:
        raise NegativeC(f"c must be >= 0, got {c}")
    beta = fit.params.beta  # InvalidValue unless the fit has two variants
    horizons = tuple(horizons)
    t = np.array([h - fit.series.origin for h in horizons], dtype=float)
    cov = variance.matrix_for(fit)
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
    lower, point, upper = np.sort(np.exp(log_softmax(logits))[..., 1], axis=0)
    assert ((0.0 <= lower) & (lower <= point) & (point <= upper) & (upper <= 1.0)).all()
    return horizons, point.tolist(), lower.tolist(), upper.tolist()
