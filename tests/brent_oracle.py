"""Scalar reference x_min scan: one bounded Brent solve and one KS pass per
candidate lower bound, written independently of the batched scan in
``tradenet.powerlaw`` so the property tests can check it against this."""

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import zeta

from tradenet.powerlaw import ALPHA_MAX, ALPHA_MIN


def nll(alpha, tail, x_min):
    """Negative zeta log-likelihood of the tail sample at exponent alpha."""
    tail = np.asarray(tail, dtype=float)
    return alpha * float(np.log(tail).sum()) + tail.size * math.log(zeta(alpha, x_min))


def brent_alpha(tail, x_min):
    res = minimize_scalar(lambda a: nll(a, tail, x_min),
                          bounds=(ALPHA_MIN, ALPHA_MAX), method="bounded",
                          options={"xatol": 1e-6})
    return float(res.x)


def tail_ks(tail, x_min, alpha):
    tail = np.sort(np.asarray(tail))
    uniq = np.unique(tail)
    ecdf = np.searchsorted(tail, uniq, side="right") / tail.size
    model = 1.0 - zeta(alpha, uniq + 1.0) / zeta(alpha, x_min)
    return float(np.abs(ecdf - model).max())


def candidates(samples, min_tail_size, max_candidates=None):
    """Distinct values below the maximum with a tail of min_tail_size or
    more, thinned to a geometric grid of max_candidates values."""
    x = np.asarray(samples, dtype=np.int64)
    uniq = np.unique(x)
    cands = np.array([u for u in uniq[:-1] if (x >= u).sum() >= min_tail_size],
                     dtype=np.int64)
    if max_candidates is not None and cands.size > max_candidates:
        grid = np.geomspace(cands[0], cands[-1], max_candidates)
        picked = np.clip(np.searchsorted(cands, grid), 0, cands.size - 1)
        cands = cands[np.unique(picked)]
    return cands


def brent_scan_xmin(samples, min_tail_size, max_candidates=None):
    """(candidates, alphas, ks) like ``tradenet.powerlaw.scan_xmin``."""
    x = np.asarray(samples, dtype=np.int64)
    cands = candidates(x, min_tail_size, max_candidates)
    alphas = np.empty(cands.size)
    ks = np.empty(cands.size)
    for row, x0 in enumerate(cands):
        tail = x[x >= x0]
        alphas[row] = brent_alpha(tail, int(x0))
        ks[row] = tail_ks(tail, int(x0), alphas[row])
    return cands, alphas, ks
