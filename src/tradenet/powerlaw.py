"""Power-law tail calibration for integer samples (degrees, strengths).

Tails follow the standard heavy-tail recipe: maximum-likelihood exponent
for the discrete power law p(x) = x^-alpha / zeta(alpha, x_min), lower
bound chosen by minimizing the Kolmogorov-Smirnov distance over candidate
x_min values, and a semi-parametric bootstrap for the goodness-of-fit
p-value.

All randomness flows through explicit seeds; results are reproducible and
independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

ALPHA_MIN = 1.0 + 1e-6
ALPHA_MAX = 20.0

# Exponent solver: stop when the step or the bracket is this narrow (bounded
# Brent stops at 1e-6); the cap leaves room for bisecting the whole bracket.
ALPHA_XTOL = 1e-10
_SOLVE_MAX_ITER = 100
# Rows a + h, a, a - h of the solver's central differences, in one zeta call.
_STEPS = np.array([[1.0], [0.0], [-1.0]])
# Rows g + 1 and g of the far-tail sampler's check of its guess g.
_PAIR = np.array([[1.0], [0.0]])

# Support values per block of the KS pass over all candidates.
KS_BLOCK = 1 << 16
# The KS pass evaluates the model CDF exactly at every KS_STRIDE-th support
# value of a fit, and elsewhere only where a bracket could set the maximum.
KS_STRIDE = 8
# Margin of that test.  The computed model CDF lies within about 1e-16 of a
# concave function (zeta's own error, at most ~5e-16 relative against a
# 120-digit reference, varies smoothly in q).  So a chord through two computed
# values is off by about 2e-16 inside its row, and by 2e-16 * rise / width where
# a neighbour's chord is extended over a row: the test keeps KS_SLACK, and
# neighbouring slopes are widened by KS_SLACK / width, ~5000x each.
KS_SLACK = 1e-12

# Exponents in (0, 2) on the CCDF scale fall in the Levy-stable regime.
LEVY_UPPER = 2.0


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
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
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


def _as_int_array(samples) -> np.ndarray:
    arr = np.asarray(samples)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError("samples must be a 1-D integer array")
    if arr.size == 0:
        raise ValueError("empty sample")
    if arr.min() < 1:
        raise ValueError("samples must be positive integers")
    return arr.astype(np.int64)


def _zeta(s, q):
    """Hurwitz zeta(s, q), imported on the first evaluation: a run that fits
    no tail and simulates nothing never loads its library."""
    from scipy.special import zeta
    return zeta(s, q)


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
            up, mid, down = np.log(_zeta(a + _STEPS * h, xq))
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


def _shift(x: np.ndarray, k: int) -> np.ndarray:
    # Element i of the result is x[(i + k) % x.size] (np.roll(x, -k), cheaper).
    return np.concatenate((x[k:], x[:k]))


def _windows(x: np.ndarray) -> np.ndarray:
    # Row i is x[i:i + KS_STRIDE] (sliding_window_view without its checks).
    return as_strided(x, (x.size - KS_STRIDE + 1, KS_STRIDE), x.strides * 2,
                      writeable=False)


def _lay_out(values: list[np.ndarray], counts: list[np.ndarray],
             firsts: list[np.ndarray]):
    """Samples laid end to end for _ks_scan: their distinct values (float),
    running counts, and each fit's first and last index, from each sample's
    values, counts and fits' first indices.  Each sample is followed by
    KS_STRIDE - 1 slots of NaN and of its final running count, so a row of
    KS_STRIDE values starting at or before a sample's last value reads
    nothing of the next sample.  The running count does not restart: below a
    sample's first value it holds the earlier samples' total."""
    pad_u, pad_c = np.full(KS_STRIDE - 1, np.nan), np.zeros(KS_STRIDE - 1, dtype=np.int64)
    uniq = np.concatenate([part for v in values for part in (v, pad_u)])
    cum_counts = np.cumsum(np.concatenate([part for c in counts for part in (c, pad_c)]))
    first, last, start = [], [], 0
    for v, f in zip(values, firsts):
        first.append(start + f)
        start += v.size + KS_STRIDE - 1
        last.append(np.full(f.size, start - KS_STRIDE))
    return uniq, cum_counts, np.concatenate(first), np.concatenate(last)


def _ks_scan(uniq: np.ndarray, cum_counts: np.ndarray, first: np.ndarray,
             last: np.ndarray, x_mins: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """KS distance of each fit (x_mins, alphas) over its support
    uniq[first:last + 1], in arrays laid out by _lay_out, so the fits of
    several samples share one pass.  A fit's ecdf counts from cum_counts just
    below first up to cum_counts[last], its sample's total.

    zeta(a, q) is convex and decreasing in q for a > 1, so each model CDF
    F(u) = 1 - zeta(a, u + 1) / zeta(a, x_min) is concave and increasing in u.
    F is evaluated at the pivots, every KS_STRIDE-th support value of a fit
    and its last one; their largest |ecdf - F| is a lower bound on the fit's
    KS.  Between two pivots F lies above their chord and below the
    neighbouring chords extended, and the ecdf is exact, so F is evaluated
    only where that bracket could reach the lower bound.  Each evaluated
    distance is the full pass's expression, so the maxima equal the full
    pass's bit for bit, however the fits share a pass.

    Each fit's support is cut into rows of KS_STRIDE values, a pivot first,
    and a last row of the last value alone.  The rows are handled in blocks
    of about KS_BLOCK values so memory does not grow with fits x distinct
    values.
    """
    n_rows = -(-(last - first) // KS_STRIDE) + 1
    sizes = n_rows * KS_STRIDE
    ends = np.cumsum(sizes)
    below = np.concatenate(([0], cum_counts))[first]
    total = cum_counts[last]
    # The values past a sample's last one read NaN in the rows, whose
    # brackets never pass the test below.
    u_rows, c_rows = _windows(uniq), _windows(cum_counts)
    ks = np.empty(first.size)
    start = 0
    while start < first.size:
        base = ends[start] - sizes[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + KS_BLOCK, side="right")))
        blk = slice(start, stop)
        a, z_min = alphas[blk], _zeta(alphas[blk], x_mins[blk])
        # A normaliser that underflows to 0 leaves no model CDF: such a fit
        # reads KS = inf, and z_min = inf keeps its arithmetic finite.
        lost = z_min == 0.0
        z_min[lost] = np.inf
        fill, scale = below[blk, None], total[blk, None] - below[blk, None]

        counts = n_rows[blk]
        fit = np.repeat(np.arange(stop - start), counts)
        tails = np.cumsum(counts) - 1
        heads = tails + 1 - counts
        pos = first[blk][fit] + KS_STRIDE * (np.arange(fit.size) - heads[fit])
        pos[tails] = last[blk]
        u = u_rows[pos]
        ecdf = (c_rows[pos] - fill[fit]) / scale[fit]
        f0 = 1.0 - _zeta(a[fit], u[:, 0] + 1.0) / z_min[fit]
        lb = np.maximum.reduceat(np.abs(ecdf[:, 0] - f0), heads)

        # Right pivot, chord slope and neighbouring slopes of every row, the
        # latter widened by KS_SLACK / width against their rounding.  A row
        # whose values share one float (above 2**53) has F flat at f0, slope
        # 0, and no chord to extend.  Where no left chord exists, a slope of
        # 2**53 lifts the bound past 1 >= F one float step (>= 2**-52) right
        # of u0; where no right chord exists, slope 0 caps F at its right
        # pivot.  A fit's last row has no values to bracket, so what its
        # neighbours give it does not matter.
        u0, u1, f1 = u[:, 0], _shift(u[:, 0], 1), _shift(f0, 1)
        width = u1 - u0
        flat = width == 0.0
        slope = np.divide(f1 - f0, width, out=np.zeros_like(f0), where=~flat)
        tol = np.divide(KS_SLACK, width, out=np.zeros_like(f0), where=~flat)
        left = _shift(np.where(flat, 2.0 ** 53, slope + tol), -1)
        right = _shift(slope - tol, 1)
        left[heads], right[tails - 1] = 2.0 ** 53, 0.0
        rise = u[:, 1:] - u0[:, None]
        lower = f0[:, None] + slope[:, None] * rise
        upper = np.minimum(f0[:, None] + left[:, None] * rise,
                           f1[:, None] + right[:, None] * (u[:, 1:] - u1[:, None]))
        inner = ecdf[:, 1:]
        gap = np.maximum(inner - lower, upper - inner)
        r, c = np.nonzero(gap >= (lb - KS_SLACK)[fit, None])
        at = fit[r]
        model = 1.0 - _zeta(a[at], u[r, c + 1] + 1.0) / z_min[at]
        np.maximum.at(lb, at, np.abs(inner[r, c] - model))
        ks[blk] = np.where(lost, np.inf, lb)
        start = stop
    return ks


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


def _support(samples, min_tail_size: int, max_candidates: int | None):
    """A sample's distinct values, their counts, its candidate indices into
    them and each candidate's tail size; ValueError when it has no
    candidate."""
    arr = _as_int_array(samples)
    uniq, counts = np.unique(arr, return_counts=True)
    tail_sizes = np.cumsum(counts[::-1])[::-1]
    usable = _candidate_indices(uniq, tail_sizes, min_tail_size, max_candidates)
    if usable.size == 0:
        raise ValueError(
            f"no candidate x_min leaves a tail of >= {min_tail_size} samples "
            "with at least 2 distinct values")
    return uniq, counts, usable, tail_sizes[usable]


def _scan(supports: list) -> list[tuple[np.ndarray, ...]]:
    """Fit every candidate of several samples (each a _support) in one
    exponent solve and one KS pass; per sample, (candidates, alphas, ks,
    n_tail).  Each fit depends on its own sample alone."""
    if not supports:
        return []
    values = [s[0].astype(float) for s in supports]
    laid_values, cum_counts, first, last = _lay_out(
        values, [s[1] for s in supports], [s[2] for s in supports])
    x_mins = laid_values[first]
    log_sums = np.concatenate([np.cumsum((counts * np.log(uniq_f))[::-1])[::-1][usable]
                               for uniq_f, (_, counts, usable, _) in zip(values, supports)])
    n_tails = np.concatenate([s[3] for s in supports])
    alphas = _solve_alpha(log_sums, n_tails, x_mins)
    ks = _ks_scan(laid_values, cum_counts, first, last, x_mins, alphas)
    out, lo = [], 0
    for uniq, _, usable, n_tail in supports:
        hi = lo + usable.size
        out.append((uniq[usable], alphas[lo:hi], ks[lo:hi], n_tail))
        lo = hi
    return out


def _best(cands, alphas, ks, n_tail) -> TailFit | None:
    """The scan's KS-minimizing fit (ties -> smaller x_min), or None when no
    candidate has a finite KS distance."""
    best = int(np.argmin(ks))  # first minimum = smallest x_min on ties
    if not np.isfinite(ks[best]):
        return None
    alpha = float(alphas[best])
    return TailFit(
        x_min=int(cands[best]),
        alpha=alpha,
        ccdf_exponent=alpha - 1.0,
        ks_distance=float(ks[best]),
        p_value=None,
        n_tail=int(n_tail[best]),
        levy_stable=0.0 < alpha - 1.0 < LEVY_UPPER,
        alpha_at_bound=min(alpha - ALPHA_MIN, ALPHA_MAX - alpha) <= ALPHA_XTOL,
    )


def scan_xmin(samples, cfg: GofConfig, *,
              max_candidates: int | None = None):
    """Fit every candidate lower bound and return the full scan.

    Returns (candidates, alphas, ks, n_tail) as parallel arrays, candidates
    ascending; n_tail counts the samples at or above each candidate.  A
    candidate whose normaliser zeta(alpha, x_min) underflows to 0 reads
    KS = inf.  select_xmin picks the KS-minimizing row.
    """
    return _scan([_support(samples, cfg.min_tail_size, max_candidates)])[0]


def select_xmin(samples, cfg: GofConfig, *,
                max_candidates: int | None = None) -> TailFit:
    """Pick the lower bound minimizing the KS distance (ties -> smaller
    x_min); ValueError when no candidate has a finite one."""
    fit = _best(*scan_xmin(samples, cfg, max_candidates=max_candidates))
    if fit is None:
        raise ValueError("no candidate x_min has a finite KS distance")
    return fit


def select_tails(samples, cfg: GofConfig, max_candidates) -> list[TailFit | None]:
    """select_xmin of each sample, with its own entry of max_candidates, in
    one exponent solve and one KS pass over them all.  None stands where
    select_xmin raises ValueError: an empty sample, one with no candidate,
    or one with no finite KS distance."""
    supports = []
    for sample, cap in zip(samples, max_candidates, strict=True):
        try:
            supports.append(_support(sample, cfg.min_tail_size, cap))
        except ValueError:
            supports.append(None)
    scans = iter(_scan([s for s in supports if s is not None]))
    return [None if s is None else _best(*next(scans)) for s in supports]


class DiscretePowerLaw:
    """Sampling from p(x) = x^-alpha / zeta(alpha, x_min), x >= x_min.

    Each call inverts its own uniforms.  The bulk is a lookup in a table of
    Hurwitz-zeta CCDF values, built once per model.  A far-tail draw starts
    from the approximate discrete inverse (Clauset, Shalizi & Newman,
    arXiv:0706.1062, Appendix D), which two zeta rows confirm; the draws of a
    call they do not confirm share one doubling-and-bisection search.  Either
    way a draw is the smallest x whose CCDF reaches it, so draws are exact for
    arbitrarily heavy tails.
    """

    _HI_CAP = 2**62
    _TABLE_SIZE = 4096

    def __init__(self, alpha: float, x_min: int = 1):
        if alpha <= 1.0:
            raise ValueError("alpha must exceed 1")
        if x_min < 1:
            raise ValueError("x_min must be >= 1")
        self.alpha = float(alpha)
        self.x_min = int(x_min)
        self._z0 = float(_zeta(self.alpha, self.x_min))
        xs = np.arange(self.x_min, self.x_min + self._TABLE_SIZE, dtype=float)
        self._table_cdf = 1.0 - _zeta(self.alpha, xs + 1.0) / self._z0
        self._table_hi = self.x_min + self._TABLE_SIZE - 1

    def _far_tail(self, targets: np.ndarray) -> np.ndarray:
        # Smallest x with zeta(alpha, x + 1) <= target.  zeta(alpha, x + 1) is
        # close to (x + 1/2)^(1 - alpha) / (alpha - 1), which gives a guess g;
        # two zeta rows confirm it, and the rows they do not take the search.
        a1 = self.alpha - 1.0
        with np.errstate(over="ignore", divide="ignore"):
            guess = np.ceil((a1 * targets) ** (-1.0 / a1) - 0.5)
        # Past 2**53, g + 1 == g in float and the check proves nothing; that
        # also keeps every accepted guess below _HI_CAP.
        ok = np.isfinite(guess) & (guess >= self.x_min) & (guess < 2.0 ** 53)
        g, t = guess[ok], targets[ok]
        above, at = _zeta(self.alpha, g + _PAIR)
        ok[ok] = (above <= t) & ((g == self.x_min) | (at > t))
        out = np.empty(targets.size, dtype=np.int64)
        out[ok] = guess[ok]
        if not ok.all():
            out[~ok] = self._bisect(targets[~ok])
        return out

    def _bisect(self, targets: np.ndarray) -> np.ndarray:
        # Smallest x with zeta(alpha, x + 1) <= target, by doubling from the
        # table's end and then bisecting [x_min, hi].
        lo = np.full(targets.size, self.x_min, dtype=np.int64)
        hi_val = max(self._table_hi, self.x_min + 1)
        while _zeta(self.alpha, hi_val + 1.0) > targets.min() and hi_val < self._HI_CAP:
            hi_val = min(hi_val * 2, self._HI_CAP)
        hi = np.full(targets.size, hi_val, dtype=np.int64)
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            ok = _zeta(self.alpha, mid + 1.0) <= targets
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid + 1)
        return lo

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # Inverse CDF of uniforms: the table, then _far_tail for the rest.
        u = rng.random(size)
        out = self.x_min + np.searchsorted(self._table_cdf, u, side="left").astype(
            np.int64, copy=False)
        beyond = out > self._table_hi
        if beyond.any():
            out[beyond] = self._far_tail((1.0 - u[beyond]) * self._z0)
        return out


def gof_pvalue(samples, fit: TailFit, cfg: GofConfig, *,
               max_candidates: int | None = None) -> float:
    """Semi-parametric bootstrap p-value for the power-law tail hypothesis.

    Replicas are drawn and refit one at a time, each from its own
    SeedSequence child: a binomial share of the n samples is redrawn from the
    empirical body (below x_min), the rest from the fitted model.  Each
    replica is refit with the same x_min scan and is a hit when its KS
    distance is at or above the observed one.  The p-value is the fraction of
    hits; identical seeds give identical results.
    """
    if cfg.bootstrap_replicas < 1:
        raise ValueError("bootstrap_replicas must be >= 1")
    arr = _as_int_array(samples)
    n = arr.size
    body = arr[arr < fit.x_min]
    model = DiscretePowerLaw(fit.alpha, fit.x_min)
    hits = 0
    for seed in np.random.SeedSequence(cfg.rng_seed).spawn(cfg.bootstrap_replicas):
        rng = np.random.default_rng(seed)
        n_body = int(rng.binomial(n, body.size / n)) if body.size else 0
        drawn = rng.choice(body, size=n_body, replace=True) if n_body else body[:0]
        replica = np.concatenate((drawn, model.sample(rng, n - n_body)))
        try:
            ks = select_xmin(replica, cfg, max_candidates=max_candidates).ks_distance
        except ValueError:
            # Replica too degenerate to refit: count as an extreme deviation
            # so the test errs toward not rejecting.
            ks = np.inf
        if ks >= fit.ks_distance:
            hits += 1
    return hits / cfg.bootstrap_replicas


def fit_tail(samples, cfg: GofConfig, *,
             max_candidates: int | None = None) -> TailFit:
    """Full calibration: x_min scan, MLE exponent, and a bootstrap p-value
    unless cfg.bootstrap_replicas is 0."""
    fit = select_xmin(samples, cfg, max_candidates=max_candidates)
    if cfg.bootstrap_replicas:
        p = gof_pvalue(samples, fit, cfg, max_candidates=max_candidates)
        fit = replace(fit, p_value=p)
    return fit


def ccdf_points(samples) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CCDF P(X >= x) at each distinct sample value (for plots)."""
    arr = _as_int_array(samples)
    uniq, counts = np.unique(arr, return_counts=True)
    ccdf = np.cumsum(counts[::-1])[::-1] / arr.size
    return uniq, ccdf
