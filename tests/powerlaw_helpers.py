"""Single-fit helpers for the estimator and sampler tests: the exponent of
one tail at a given lower bound, and the model CDF of a sampler."""

import numpy as np
from scipy.special import zeta

from tradenet.powerlaw import _solve_alpha


def mle_alpha(samples, x_min: int) -> float:
    """Discrete power-law exponent of samples all >= x_min, by the batched
    scan's likelihood solve on one row."""
    x = np.asarray(samples, dtype=float)
    return float(_solve_alpha(np.log(x).sum(), x.size, x_min)[0])


def model_cdf(model, x) -> np.ndarray:
    """P(X <= x) under a DiscretePowerLaw."""
    xs = np.asarray(x, dtype=float)
    out = 1.0 - zeta(model.alpha, np.floor(xs) + 1.0) / zeta(model.alpha, model.x_min)
    return np.where(xs < model.x_min, 0.0, out)
