"""Single-fit helpers and full-pass oracles for the estimator and sampler
tests: the exponent and the KS distance of one tail at a given lower bound,
the model CDF of a sampler and its far-tail search, the KS pass over several
samples laid end to end and the full pass that evaluates every support value
of each sample on its own, and the bootstrap that draws and refits one
replica at a time."""

import numpy as np
from scipy.special import zeta

from tradenet.powerlaw import (DiscretePowerLaw, _as_int_array, _ks_scan, _lay_out,
                               _solve_alpha, select_xmin)


def mle_alpha(samples, x_min: int) -> float:
    """Discrete power-law exponent of samples all >= x_min, by the batched
    scan's likelihood solve on one row."""
    x = np.asarray(samples, dtype=float)
    return float(_solve_alpha(np.log(x).sum(), x.size, x_min)[0])


def ks_distance(samples, x_min: int, alpha: float) -> float:
    """Max |empirical CDF - model CDF| over the observed tail support, by the
    scan's KS pass on one fit.

    The model is the discrete power law truncated below at x_min; both CDFs
    are evaluated at every observed distinct value >= x_min.
    """
    arr = _as_int_array(samples)
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    if x_min < 1:
        raise ValueError("x_min must be >= 1")
    if arr.min() < x_min:
        raise ValueError("all samples must be >= x_min")
    uniq, counts = np.unique(arr, return_counts=True)
    case = (uniq.astype(float), np.cumsum(counts), np.zeros(1, int),
            np.array([x_min], float), np.array([alpha], float))
    return float(ks_scan(case)[0])


def model_cdf(model, x) -> np.ndarray:
    """P(X <= x) under a DiscretePowerLaw."""
    xs = np.asarray(x, dtype=float)
    out = 1.0 - zeta(model.alpha, np.floor(xs) + 1.0) / zeta(model.alpha, model.x_min)
    return np.where(xs < model.x_min, 0.0, out)


def far_tail_oracle(model, targets) -> np.ndarray:
    """Smallest x with zeta(alpha, x + 1) <= target under a DiscretePowerLaw,
    by doubling hi from the table's end, capped at _HI_CAP, and then bisecting
    [x_min, hi] with one zeta call over all targets per halving."""
    lo = np.full(targets.size, model.x_min, dtype=np.int64)
    hi_val = max(model._table_hi, model.x_min + 1)
    while zeta(model.alpha, hi_val + 1.0) > targets.min() and hi_val < model._HI_CAP:
        hi_val = min(hi_val * 2, model._HI_CAP)
    hi = np.full(targets.size, hi_val, dtype=np.int64)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        ok = zeta(model.alpha, mid + 1.0) <= targets
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid + 1)
    return lo


def ks_scan(*cases) -> np.ndarray:
    """``powerlaw._ks_scan`` over the fits of several cases, each one
    sample's (uniq, cum_counts, first, x_mins, alphas), in one pass with the
    samples laid end to end by ``powerlaw._lay_out``."""
    uniq, cum_counts, first, last = _lay_out([case[0] for case in cases],
                                             [np.diff(case[1], prepend=0) for case in cases],
                                             [case[2] for case in cases])
    x_mins, alphas = (np.concatenate([case[k] for case in cases]) for k in (3, 4))
    return _ks_scan(uniq, cum_counts, first, last, x_mins, alphas)


def full_ks_scan(*cases) -> np.ndarray:
    """``ks_scan`` with zeta at every support value of every fit, each case's
    sample on its own: its fits' supports laid end to end and reduced per fit
    by maximum.reduceat."""
    return np.concatenate([_full_pass(*case) for case in cases])


def _full_pass(uniq, cum_counts, first, x_mins, alphas) -> np.ndarray:
    lengths = uniq.size - first
    offsets = np.cumsum(lengths) - lengths
    cum0 = np.concatenate(([0], cum_counts))
    rows = np.repeat(np.arange(first.size), lengths)
    pos = first[rows] + np.arange(rows.size) - offsets[rows]
    below = cum0[first][rows]
    ecdf = (cum0[pos + 1] - below) / (cum0[-1] - below)
    model = 1.0 - zeta(alphas[rows], uniq[pos] + 1.0) / zeta(alphas, x_mins)[rows]
    return np.maximum.reduceat(np.abs(ecdf - model), offsets)


def gof_pvalue_oracle(samples, fit, cfg, *, max_candidates=None) -> float:
    """``powerlaw.gof_pvalue`` drawing and refitting one replica at a time."""
    arr = _as_int_array(samples)
    n = arr.size
    body = arr[arr < fit.x_min]
    model = DiscretePowerLaw(fit.alpha, fit.x_min)
    hits = 0
    for seed in np.random.SeedSequence(cfg.rng_seed).spawn(cfg.bootstrap_replicas):
        rng = np.random.default_rng(seed)
        n_body = int(rng.binomial(n, body.size / n)) if body.size else 0
        parts = []
        if n_body:
            parts.append(rng.choice(body, size=n_body, replace=True))
        if n - n_body:
            parts.append(model.sample(rng, n - n_body))
        try:
            ks = select_xmin(np.concatenate(parts), cfg,
                             max_candidates=max_candidates).ks_distance
        except ValueError:
            ks = np.inf
        hits += ks >= fit.ks_distance
    return hits / cfg.bootstrap_replicas
