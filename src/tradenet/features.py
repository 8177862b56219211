"""Daily price/trader-count series and per-stock detection features.

The feature set mirrors what separates manipulated from honest stocks:
power-law tail lower bounds of the degree and strength distributions, the
network's average degree, and the correlation between the daily log price
return and the seller-buyer ratio r(t) = N_s(t) / N_b(t).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .ingest import TransactionLog
from .network import (TradingNetwork, average_degree, build_network,
                      degree_sequences, strength_sequences)
from .powerlaw import GofConfig, TailFit, fit_tail, select_tails

# The five tail statistics fitted per stock, in report column order.
TAIL_STATS = ("degree_in", "degree_out", "strength_in", "strength_out",
              "strength_total")

# Distinct strength values can approach the node count; a geometric grid of
# this many lower-bound candidates keeps the scan cheap.  On the README
# corpus the exact scan would move 9 of 36 strength x_min values, 7 of them
# by one lot, and would take about twice as long.
STRENGTH_XMIN_CANDIDATES = 160


@dataclass(frozen=True, eq=False)
class DailySeries:
    """Per-trading-day aggregates; days with no trades are absent."""

    days: tuple[dt.date, ...]
    avg_price: np.ndarray
    n_sellers: np.ndarray
    n_buyers: np.ndarray

    @property
    def n_days(self) -> int:
        return len(self.days)


@dataclass(frozen=True)
class StockFeatures:
    """Detection features of one stock over one analysis window.

    ``fits`` is keyed by TAIL_STATS.  Tail fits or the correlation may be
    None when a component could not be computed (tiny tails, constant
    series); consumers treat None as missing.  ``samples`` (the positive
    tail samples) and ``series`` are the data the features came from.
    """

    symbol: str
    fits: dict[str, TailFit | None]
    avg_degree: float
    return_ratio_corr: float | None
    n_days: int
    samples: dict[str, np.ndarray] = field(default_factory=dict, repr=False,
                                           compare=False)
    series: DailySeries | None = field(default=None, repr=False, compare=False)


def daily_series(log: TransactionLog) -> DailySeries:
    """Daily volume-weighted mean trade price P(t) and distinct seller/buyer
    counts."""
    if log.n_records == 0:
        raise ValueError("empty log has no daily series")
    # The log is sorted by date, so a new day starts wherever the date steps.
    new_day = np.concatenate(([True], log.dates[1:] != log.dates[:-1]))
    day_vals = log.dates[new_day]
    day_idx = np.cumsum(new_day) - 1
    n_days = day_vals.size
    vol = log.volumes.astype(np.float64)
    avg_price = (np.bincount(day_idx, weights=vol * log.prices, minlength=n_days)
                 / np.bincount(day_idx, weights=vol, minlength=n_days))

    # Distinct (day, seller) and (day, buyer) pairs by a sort and a diff:
    # np.unique's hash path is much slower.
    k = len(log.accounts)
    pairs = np.sort(day_idx * k + np.stack((log.sellers, log.buyers)), axis=1)
    new = np.concatenate((np.ones((2, 1), bool), pairs[:, 1:] != pairs[:, :-1]), axis=1)
    n_sellers, n_buyers = (np.bincount(p[f] // k, minlength=n_days) for p, f in zip(pairs, new))

    days = tuple(dt.date.fromordinal(int(d)) for d in day_vals)
    return DailySeries(days=days, avg_price=avg_price,
                       n_sellers=n_sellers, n_buyers=n_buyers)


def log_returns(series: DailySeries) -> np.ndarray:
    """pr(t) = ln P(t) - ln P(t-1) over consecutive trading days."""
    if series.n_days < 2:
        raise ValueError("need at least 2 trading days for returns")
    if np.any(series.avg_price <= 0):
        raise ValueError("prices must be positive")
    logp = np.log(series.avg_price)
    return np.diff(logp)


def seller_buyer_ratio(series: DailySeries) -> np.ndarray:
    """r(t) = N_s(t) / N_b(t) per trading day."""
    return series.n_sellers / series.n_buyers


def pearson_corr(x, y) -> float:
    """Pearson product-moment correlation with explicit degeneracy errors."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape:
        raise ValueError(f"length mismatch: {xa.shape} vs {ya.shape}")
    if xa.size < 3:
        raise ValueError("need at least 3 points")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = float(np.sqrt((dx * dx).sum()))
    sy = float(np.sqrt((dy * dy).sum()))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for constant series")
    r = float((dx * dy).sum() / (sx * sy))
    return min(1.0, max(-1.0, r))


def return_ratio_correlation(series: DailySeries) -> float:
    """Correlation of pr(t) with the same day's r(t), over days 2..n."""
    return pearson_corr(log_returns(series), seller_buyer_ratio(series)[1:])


def tail_samples(net: TradingNetwork) -> dict[str, tuple[np.ndarray, int | None]]:
    """Each tail statistic's positive sample and its x_min candidate cap."""
    deg = degree_sequences(net)
    stren = strength_sequences(net)
    cap = STRENGTH_XMIN_CANDIDATES
    columns = ((deg.in_deg, None), (deg.out_deg, None), (stren.s_in, cap),
               (stren.s_out, cap), (stren.s_tot, cap))
    return {name: (values[values > 0], max_candidates)
            for name, (values, max_candidates) in zip(TAIL_STATS, columns)}


def _try_fit(samples, cfg: GofConfig, max_candidates: int | None) -> TailFit | None:
    try:
        return fit_tail(samples, cfg, max_candidates=max_candidates)
    except ValueError:
        return None


def compute_features(log: TransactionLog, cfg: GofConfig) -> StockFeatures:
    """Assemble the full per-stock feature vector.

    The fits carry p-values unless cfg.bootstrap_replicas is 0.  Component
    failures (degenerate tails, constant series, too few days) leave the
    corresponding feature as None instead of aborting the stock.
    """
    net = build_network(log)
    tails = tail_samples(net)
    samples, caps = zip(*tails.values())
    if cfg.bootstrap_replicas:
        # gof_pvalue refits one replica at a time, each by its own scan.
        fitted = [_try_fit(sample, cfg, cap) for sample, cap in zip(samples, caps)]
    else:
        fitted = select_tails(samples, cfg, caps)
    fits = dict(zip(tails, fitted))

    series = daily_series(log)
    corr: float | None
    try:
        corr = return_ratio_correlation(series)
    except ValueError:
        corr = None

    return StockFeatures(symbol=log.meta.symbol, fits=fits,
                         avg_degree=average_degree(net),
                         return_ratio_corr=corr, n_days=series.n_days,
                         samples=dict(zip(tails, samples)),
                         series=series)
