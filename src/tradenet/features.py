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
from .powerlaw import GofConfig, TailFit, fit_tail

# The five tail statistics fitted per stock, in report column order.
TAIL_STATS = ("degree_in", "degree_out", "strength_in", "strength_out",
              "strength_total")

# Distinct strength values can approach the node count; a geometric grid of
# this many lower-bound candidates keeps the scan cheap without visibly
# moving the KS minimum.
STRENGTH_XMIN_CANDIDATES = 160


class UndefinedCorrelationError(ValueError):
    """Correlation is undefined (constant input or too few points)."""


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
    day_vals, day_idx = np.unique(log.dates, return_inverse=True)
    n_days = day_vals.size
    vol = log.volumes.astype(np.float64)
    avg_price = (np.bincount(day_idx, weights=vol * log.prices, minlength=n_days)
                 / np.bincount(day_idx, weights=vol, minlength=n_days))

    k = len(log.accounts)
    sell_pairs = np.unique(day_idx * k + log.sellers)
    buy_pairs = np.unique(day_idx * k + log.buyers)
    n_sellers = np.bincount(sell_pairs // k, minlength=n_days)
    n_buyers = np.bincount(buy_pairs // k, minlength=n_days)

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
        raise UndefinedCorrelationError("correlation undefined for constant series")
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


def compute_features(log: TransactionLog, cfg: GofConfig | None = None) -> StockFeatures:
    """Assemble the full per-stock feature vector.

    The fits carry p-values unless cfg.bootstrap_replicas is 0.  Component
    failures (degenerate tails, constant series, too few days) leave the
    corresponding feature as None instead of aborting the stock.
    """
    cfg = cfg or GofConfig()
    net = build_network(log)
    tails = tail_samples(net)
    fits = {name: _try_fit(sample, cfg, max_candidates)
            for name, (sample, max_candidates) in tails.items()}

    series = daily_series(log)
    corr: float | None
    try:
        corr = return_ratio_correlation(series)
    except ValueError:
        corr = None

    return StockFeatures(symbol=log.meta.symbol, fits=fits,
                         avg_degree=average_degree(net),
                         return_ratio_corr=corr, n_days=series.n_days,
                         samples={name: sample for name, (sample, _) in tails.items()},
                         series=series)
