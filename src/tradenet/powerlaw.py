"""Power-law tail calibration for integer samples (degrees, strengths).

The primary route is the standard heavy-tail recipe: maximum-likelihood
exponent for the discrete power law p(x) = x^-alpha / zeta(alpha, x_min),
lower bound chosen by minimizing the Kolmogorov-Smirnov distance over
candidate x_min values, and a semi-parametric bootstrap for the
goodness-of-fit p-value.  A least-squares fit on the log CCDF is kept as a
secondary, clearly labeled method and is never used for detection.

All randomness flows through explicit seeds; results are reproducible and
independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import zeta

ALPHA_MIN = 1.0 + 1e-6
ALPHA_MAX = 20.0

# Exponent solver: stop when the step or the bracket is this narrow (bounded
# Brent stops at 1e-6); the cap leaves room for bisecting the whole bracket.
ALPHA_XTOL = 1e-10
_SOLVE_MAX_ITER = 100

# Flat support values per block of the KS pass over all candidates.
KS_BLOCK = 1 << 16

# Exponents in (0, 2) on the CCDF scale fall in the Levy-stable regime.
LEVY_UPPER = 2.0


class DegenerateSampleError(ValueError):
    """Sample carries no exponent information (a single distinct value)."""


@dataclass(frozen=True)
class GofConfig:
    """Knobs for tail fitting and the bootstrap goodness-of-fit test.

    ``bootstrap_replicas=0`` fits without a p-value.
    """

    bootstrap_replicas: int = 1000
    rng_seed: int = 0
    min_tail_size: int = 50

    def __post_init__(self) -> None:
        if self.bootstrap_replicas < 0:
            raise ValueError("bootstrap_replicas must be >= 0")
        if self.min_tail_size < 1:
            raise ValueError("min_tail_size must be >= 1")


@dataclass(frozen=True)
class TailFit:
    """Calibrated power-law tail of one integer-valued sample.

    ``alpha`` is the PDF exponent; ``ccdf_exponent = alpha - 1`` is the
    exponent of the cumulative (CCDF) decay, the value quoted alongside
    reference exponents.  ``p_value`` is None until a bootstrap has run.
    ``alpha_at_bound`` marks an exponent pinned at ALPHA_MIN or ALPHA_MAX,
    where the likelihood had no interior maximum.
    """

    x_min: int
    alpha: float
    ccdf_exponent: float
    ks_distance: float
    p_value: float | None
    n_tail: int
    levy_stable: bool
    alpha_at_bound: bool

    def to_dict(self) -> dict:
        return {
            "x_min": self.x_min,
            "alpha": self.alpha,
            "ccdf_exponent": self.ccdf_exponent,
            "ks_distance": self.ks_distance,
            "p_value": self.p_value,
            "n_tail": self.n_tail,
            "levy_stable": self.levy_stable,
            "alpha_at_bound": self.alpha_at_bound,
        }


def _as_int_array(samples) -> np.ndarray:
    arr = np.asarray(samples)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size == 0:
        raise ValueError("empty sample")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.all(np.isfinite(arr)) or np.any(np.abs(arr - rounded) > 1e-9):
            raise ValueError("samples must be integer-valued")
        arr = rounded
    arr = arr.astype(np.int64)
    if arr.min() < 1:
        raise ValueError("samples must be positive integers")
    return arr


def _solve_alpha(log_sums, n_tail, x_min) -> np.ndarray:
    """Per row, the a maximizing -a * sum(ln x) - n * ln zeta(a, x_min).

    Newton steps on the derivative, from the closed form 1 + n / sum(ln(x /
    (x_min - 0.5))), inside a bracket kept by the derivative's sign and
    bisected when a step leaves it.  A row stops at ALPHA_XTOL and is then left
    alone, so it depends on its own inputs; no interior maximum ends on a bound.
    """
    mean_log = np.atleast_1d(np.asarray(log_sums, dtype=float) / n_tail)
    q = np.broadcast_to(np.asarray(x_min, dtype=float), mean_log.shape)
    alpha = np.clip(1.0 + 1.0 / (mean_log - np.log(q - 0.5)), ALPHA_MIN, ALPHA_MAX)
    lo, hi = np.full(alpha.size, ALPHA_MIN), np.full(alpha.size, ALPHA_MAX)
    rows = np.arange(alpha.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_SOLVE_MAX_ITER):
            if rows.size == 0:
                break
            a, xq = alpha[rows], q[rows]
            # Central differences of ln zeta; h shrinks as a -> 1, a pole.
            h = 1e-4 * (a - 1.0)
            up, mid, down = (np.log(zeta(a + d, xq)) for d in (h, 0.0, -h))
            grad = mean_log[rows] + (up - down) / (2.0 * h)
            curv = (up - 2.0 * mid + down) / (h * h)
            rising = grad < 0.0  # likelihood still rising: optimum above a
            lo[rows] = np.where(rising, a, lo[rows])
            hi[rows] = np.where(rising, hi[rows], a)
            left, right = lo[rows], hi[rows]
            step = a - grad / curv
            nxt = np.where((step > left) & (step < right), step, 0.5 * (left + right))
            alpha[rows] = nxt
            rows = rows[(np.abs(nxt - a) > ALPHA_XTOL) & (right - left > ALPHA_XTOL)]
    return alpha


def _ks_scan(uniq: np.ndarray, cum_counts: np.ndarray, first: np.ndarray,
             x_mins: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """KS distance of each fit (x_mins, alphas) over its support uniq[first:].

    The supports are laid end to end, evaluated with one zeta call and
    reduced per fit by np.maximum.reduceat, in blocks of about KS_BLOCK
    values so memory does not grow with fits x distinct values.
    """
    lengths = uniq.size - first
    ends = np.cumsum(lengths)
    cum0 = np.concatenate(([0], cum_counts))
    ks = np.empty(first.size)
    start = 0
    while start < first.size:
        base = ends[start] - lengths[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + KS_BLOCK, side="right")))
        blk = slice(start, stop)
        offsets = ends[blk] - lengths[blk] - base
        rows = np.repeat(np.arange(stop - start), lengths[blk])
        pos = first[blk][rows] + np.arange(rows.size) - offsets[rows]
        below = cum0[first[blk]][rows]
        ecdf = (cum0[pos + 1] - below) / (cum0[-1] - below)
        a = alphas[blk]
        model = 1.0 - zeta(a[rows], uniq[pos] + 1.0) / zeta(a, x_mins[blk])[rows]
        ks[blk] = np.maximum.reduceat(np.abs(ecdf - model), offsets)
        start = stop
    return ks


def ks_distance(samples, x_min: int, alpha: float) -> float:
    """Max |empirical CDF - model CDF| over the observed tail support.

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
    return float(_ks_scan(uniq.astype(float), np.cumsum(counts), np.zeros(1, int),
                          np.array([x_min], float), np.array([alpha], float))[0])


def _candidate_indices(uniq: np.ndarray, tail_sizes: np.ndarray,
                       min_tail_size: int, max_candidates: int | None) -> np.ndarray:
    """Indices into uniq usable as x_min: >= 2 distinct tail values and a
    tail of at least min_tail_size samples."""
    if uniq.size < 2:
        return np.empty(0, dtype=np.int64)
    usable = np.nonzero(tail_sizes[:-1] >= min_tail_size)[0]
    if max_candidates is not None and usable.size > max_candidates:
        # Log-spaced thinning over the candidate values; the KS curve is
        # smooth in x_min so a geometric grid loses little.
        lo, hi = float(uniq[usable[0]]), float(uniq[usable[-1]])
        grid = np.geomspace(lo, hi, max_candidates)
        picked = np.searchsorted(uniq[usable], grid)
        picked = np.clip(picked, 0, usable.size - 1)
        usable = usable[np.unique(picked)]
    return usable


def scan_xmin(samples, cfg: GofConfig | None = None, *,
              max_candidates: int | None = None):
    """Fit every candidate lower bound and return the full scan.

    Returns (candidates, alphas, ks) as parallel arrays, candidates
    ascending.  select_xmin picks the KS-minimizing row.
    """
    cfg = cfg or GofConfig()
    arr = _as_int_array(samples)
    uniq, counts = np.unique(arr, return_counts=True)
    tail_sizes = np.cumsum(counts[::-1])[::-1]
    usable = _candidate_indices(uniq, tail_sizes, cfg.min_tail_size, max_candidates)
    if usable.size == 0:
        raise ValueError(
            f"no candidate x_min leaves a tail of >= {cfg.min_tail_size} samples "
            "with at least 2 distinct values")

    uniq_f = uniq.astype(float)
    suffix_logsum = np.cumsum((counts * np.log(uniq_f))[::-1])[::-1]
    alphas = _solve_alpha(suffix_logsum[usable], tail_sizes[usable], uniq_f[usable])
    ks = _ks_scan(uniq_f, np.cumsum(counts), usable, uniq_f[usable], alphas)
    return uniq[usable], alphas, ks


def select_xmin(samples, cfg: GofConfig | None = None, *,
                max_candidates: int | None = None) -> TailFit:
    """Pick the lower bound minimizing the KS distance (ties -> smaller x_min)."""
    cfg = cfg or GofConfig()
    cands, alphas, ks = scan_xmin(samples, cfg, max_candidates=max_candidates)
    best = int(np.argmin(ks))  # first minimum = smallest x_min on ties
    x_min = int(cands[best])
    alpha = float(alphas[best])
    return TailFit(
        x_min=x_min,
        alpha=alpha,
        ccdf_exponent=alpha - 1.0,
        ks_distance=float(ks[best]),
        p_value=None,
        # The scan accepted the samples as integers to within 1e-9.
        n_tail=int(np.count_nonzero(np.asarray(samples) > x_min - 0.5)),
        levy_stable=0.0 < alpha - 1.0 < LEVY_UPPER,
        alpha_at_bound=min(alpha - ALPHA_MIN, ALPHA_MAX - alpha) <= ALPHA_XTOL,
    )


class DiscretePowerLaw:
    """Sampling from p(x) = x^-alpha / zeta(alpha, x_min), x >= x_min.

    Sampling uses an inverse-CDF table for the bulk and falls back to
    vectorized bisection on the Hurwitz-zeta CCDF for the far tail, so draws
    are exact for arbitrarily heavy tails.
    """

    _HI_CAP = 2**62

    def __init__(self, alpha: float, x_min: int = 1, table_size: int = 4096):
        if alpha <= 1.0:
            raise ValueError("alpha must exceed 1")
        if x_min < 1:
            raise ValueError("x_min must be >= 1")
        self.alpha = float(alpha)
        self.x_min = int(x_min)
        self._z0 = float(zeta(self.alpha, self.x_min))
        xs = np.arange(self.x_min, self.x_min + table_size, dtype=float)
        self._table_cdf = 1.0 - zeta(self.alpha, xs + 1.0) / self._z0
        self._table_hi = self.x_min + table_size - 1

    def _bisect(self, targets: np.ndarray) -> np.ndarray:
        # Smallest x with zeta(alpha, x + 1) <= target.
        lo = np.full(targets.size, self.x_min, dtype=np.int64)
        hi_val = max(self._table_hi, self.x_min + 1)
        while zeta(self.alpha, hi_val + 1.0) > targets.min() and hi_val < self._HI_CAP:
            hi_val = min(hi_val * 2, self._HI_CAP)
        hi = np.full(targets.size, hi_val, dtype=np.int64)
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            ok = zeta(self.alpha, mid + 1.0) <= targets
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid + 1)
        return lo

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        out = self.x_min + np.searchsorted(self._table_cdf, u, side="left")
        beyond = out > self._table_hi
        if np.any(beyond):
            targets = (1.0 - u[beyond]) * self._z0
            out = out.astype(np.int64)
            out[beyond] = self._bisect(targets)
        return out.astype(np.int64)


def gof_pvalue(samples, fit: TailFit, cfg: GofConfig, *,
               max_candidates: int | None = None) -> float:
    """Semi-parametric bootstrap p-value for the power-law tail hypothesis.

    Each replica redraws the body (below x_min) from the empirical data and
    the tail from the fitted model, is refit with the same x_min scan, and
    contributes its KS distance.  The p-value is the fraction of replicas at
    or above the observed distance; identical seeds give identical results.
    """
    if cfg.bootstrap_replicas < 1:
        raise ValueError("bootstrap_replicas must be >= 1")
    arr = _as_int_array(samples)
    n = arr.size
    body = arr[arr < fit.x_min]
    p_body = body.size / n
    model = DiscretePowerLaw(fit.alpha, fit.x_min)

    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.bootstrap_replicas)
    observed = fit.ks_distance
    hits = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n_body = int(rng.binomial(n, p_body)) if body.size else 0
        parts = []
        if n_body:
            parts.append(rng.choice(body, size=n_body, replace=True))
        if n - n_body:
            parts.append(model.sample(rng, n - n_body))
        replica = np.concatenate(parts)
        try:
            refit = select_xmin(replica, cfg, max_candidates=max_candidates)
            ks = refit.ks_distance
        except ValueError:
            # Replica too degenerate to refit: count as an extreme deviation
            # so the test errs toward not rejecting.
            ks = np.inf
        if ks >= observed:
            hits += 1
    return hits / cfg.bootstrap_replicas


def fit_tail(samples, cfg: GofConfig | None = None, *,
             max_candidates: int | None = None) -> TailFit:
    """Full calibration: x_min scan, MLE exponent, and a bootstrap p-value
    unless cfg.bootstrap_replicas is 0."""
    cfg = cfg or GofConfig()
    fit = select_xmin(samples, cfg, max_candidates=max_candidates)
    if cfg.bootstrap_replicas:
        p = gof_pvalue(samples, fit, cfg, max_candidates=max_candidates)
        fit = replace(fit, p_value=p)
    return fit


def ls_ccdf_exponent(samples, x_min: int) -> float:
    """Least-squares slope of the log CCDF above x_min.

    Secondary, clearly labeled alternative to the MLE route: fits a straight
    line to (ln x, ln P(X >= x)) over the observed tail and returns the
    negated slope as a CCDF-exponent estimate.  Kept for comparison plots;
    detection always uses the MLE calibration.
    """
    arr = _as_int_array(samples)
    tail = arr[arr >= x_min]
    uniq, counts = np.unique(tail, return_counts=True)
    if uniq.size < 2:
        raise DegenerateSampleError("need >= 2 distinct tail values")
    ccdf = np.cumsum(counts[::-1])[::-1] / tail.size
    slope = np.polyfit(np.log(uniq.astype(float)), np.log(ccdf), 1)[0]
    return float(-slope)


def ccdf_points(samples) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CCDF P(X >= x) at each distinct sample value (for plots)."""
    arr = _as_int_array(samples)
    uniq, counts = np.unique(arr, return_counts=True)
    ccdf = np.cumsum(counts[::-1])[::-1] / arr.size
    return uniq, ccdf
