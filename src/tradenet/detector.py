"""Reference-group comparison and manipulation flagging.

A target stock is compared against the mean features of its reference
stocks: the non-manipulated stocks sharing its capitalization bucket and
industry sector.  Manipulation signatures are an elevated power-law tail
lower bound (per fitted statistic), an elevated average degree, and a
return/seller-buyer-ratio correlation below threshold.  Flags combine by a
configurable flag-fraction vote (majority by default), which tolerates a
single dissenting feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

from .features import TAIL_STATS, StockFeatures, compute_features
from .ingest import StockMeta, TransactionLog, filter_period
from .powerlaw import GofConfig

XMIN_FEATURES = tuple(f"{name}_xmin" for name in TAIL_STATS)
FEATURE_KEYS = XMIN_FEATURES + ("avg_degree", "return_ratio_corr")


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds of the flag vote.

    elevation_factor encodes "materially larger than the reference": at 1.0
    sampling noise alone flags about half of all honest stocks per feature,
    so the default demands a 25% margin, which manipulated stocks (typically
    2x and more) clear easily.
    """

    corr_threshold: float = 0.2
    elevation_factor: float = 1.25
    decision_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not -1 <= self.corr_threshold <= 1:
            raise ValueError(f"corr_threshold must lie in [-1, 1], got {self.corr_threshold}")
        if not 0 < self.elevation_factor < math.inf:
            raise ValueError(f"elevation_factor must be finite and > 0, "
                             f"got {self.elevation_factor}")
        if not 0 < self.decision_threshold <= 1:
            raise ValueError(f"decision_threshold must lie in (0, 1], "
                             f"got {self.decision_threshold}")


@dataclass(frozen=True)
class ManipulationReport:
    """Flag vote outcome for one stock."""

    symbol: str
    flags: dict[str, bool | None]
    score: float
    verdict: bool
    thresholds: DetectorConfig
    target_values: dict[str, float | None] = field(default_factory=dict)
    reference_values: dict[str, float | None] = field(default_factory=dict)


def feature_vector(features: StockFeatures) -> dict[str, float | None]:
    """Flatten StockFeatures to the scalar features the detector compares."""
    vector: dict[str, float | None] = {}
    for name, key in zip(TAIL_STATS, XMIN_FEATURES):
        fit = features.fits.get(name)
        vector[key] = float(fit.x_min) if fit is not None else None
    vector["avg_degree"] = features.avg_degree
    vector["return_ratio_corr"] = features.return_ratio_corr
    return vector


def _is_reference(member: StockMeta, target: StockMeta) -> bool:
    """Whether ``member`` is a reference stock of ``target``: a
    non-manipulated stock of its bucket and sector, never the target."""
    return (member.symbol != target.symbol and not member.manipulated
            and member.capitalization_bucket == target.capitalization_bucket
            and member.sector == target.sector)


def select_reference(target: StockMeta, universe: Mapping[str, StockMeta]) -> tuple[str, ...]:
    """Symbols of the reference stocks of a target: the non-manipulated
    stocks matching its bucket and sector, never the target itself."""
    members = sorted(m.symbol for m in universe.values() if _is_reference(m, target))
    if not members:
        raise ValueError(
            f"no reference stocks for {target.symbol} "
            f"(bucket={target.capitalization_bucket!r}, sector={target.sector!r}); "
            "consider a coarser capitalization bucketing")
    return tuple(members)


def reference_values(members: Mapping[str, StockFeatures]) -> dict[str, float | None]:
    """Arithmetic per-feature mean over the reference stocks' features (None
    if none has it)."""
    means: dict[str, float | None] = {}
    vectors = [feature_vector(f) for f in members.values()]
    for key in FEATURE_KEYS:
        vals = [v[key] for v in vectors if v[key] is not None]
        means[key] = sum(vals) / len(vals) if vals else None
    return means


def evaluate(target_features: StockFeatures, reference: Mapping[str, float | None],
             cfg: DetectorConfig) -> ManipulationReport:
    """Flag the manipulated-direction deviations and take the vote.

    A feature missing on either side leaves its flag None and shrinks the
    vote denominator; score is flagged/evaluated and the verdict compares it
    against the decision threshold.
    """
    target = feature_vector(target_features)

    flags: dict[str, bool | None] = {}
    corr = target["return_ratio_corr"]
    flags["corr_below_threshold"] = None if corr is None else bool(corr < cfg.corr_threshold)
    for key in XMIN_FEATURES + ("avg_degree",):
        t_val = target[key]
        r_val = reference.get(key)
        flags[f"{key}_elevated"] = (None if t_val is None or r_val is None
                                    else bool(t_val > cfg.elevation_factor * r_val))

    evaluated = [v for v in flags.values() if v is not None]
    score = (sum(evaluated) / len(evaluated)) if evaluated else 0.0
    return ManipulationReport(
        symbol=target_features.symbol,
        flags=flags,
        score=score,
        verdict=bool(evaluated) and score >= cfg.decision_threshold,
        thresholds=cfg,
        target_values=target,
        reference_values={k: reference.get(k) for k in FEATURE_KEYS},
    )


def _window_features(log: TransactionLog, metas: Mapping[str, StockMeta],
                     gof_cfg: GofConfig) -> dict[tuple | None, StockFeatures | None]:
    """One stock's features over every window a report reads them at: its
    own window, and the window of each target it is a reference stock of.
    A window that covers the whole log gives the full-period features,
    computed once, and a window without a trade gives None.  Only what
    ``evaluate`` reads is kept, not the samples or the daily series."""
    span = log.date_range() if log.n_records else None
    computed: dict[tuple | None, StockFeatures | None] = {}

    def features(window):
        if window is not None and span and window[0] <= span[0] and span[1] <= window[1]:
            window = None  # keeps every record: the full-period features
        if window not in computed:
            part = log if window is None else filter_period(log, window)
            computed[window] = (replace(compute_features(part, gof_cfg), samples={}, series=None)
                                if part.n_records else None)
        return computed[window]

    windows = [log.meta.manipulation_period,
               *(metas[s].manipulation_period for s in sorted(metas)
                 if _is_reference(log.meta, metas[s]))]
    return {window: features(window) for window in windows}


def detect_corpus(corpus: Callable[[Callable], dict],
                  gof_cfg: GofConfig,
                  det_cfg: DetectorConfig) -> list[ManipulationReport]:
    """Run the full comparison over a corpus.

    ``corpus(visit)`` hands each stock to ``visit`` as ``load_corpus``
    does: ``partial(load_corpus, directory)``, or ``partial(load_corpus,
    logs)`` for logs already in memory.  Each stock is featurized in its one
    visit, over every window a report needs of it, which the stocks' metas
    alone determine; the reports are evaluated once every stock is visited.

    Labeled manipulated stocks are analyzed over their declared manipulation
    window, and their reference stocks are re-featurized over the same
    window; unlabeled stocks use their full period, as does any stock whose
    log the window covers whole.  A reference stock with no trade inside the
    window drops out of that target's group.  Tails are fitted without
    p-values, which no report carries.  Returns one report per stock, sorted
    by symbol.
    """
    gof_cfg = replace(gof_cfg, bootstrap_replicas=0)
    stocks = corpus(lambda log, metas: (log.meta, _window_features(log, metas, gof_cfg)))
    metas = {symbol: meta for symbol, (meta, _) in stocks.items()}

    reports = []
    for symbol, (meta, by_window) in stocks.items():
        window = meta.manipulation_period
        members = select_reference(meta, metas)
        span = "its period" if window is None else f"{window[0]}..{window[1]}"
        target_feats = by_window[window]
        if target_feats is None:
            raise ValueError(f"{symbol} has no trade in {span}")
        member_feats = {s: f for s in members if (f := stocks[s][1][window]) is not None}
        if not member_feats:
            raise ValueError(f"no reference stock of {symbol} trades in {span}")
        reports.append(evaluate(target_feats, reference_values(member_feats), det_cfg))
    return reports
