"""Seeded synthetic market generator with known manipulation ground truth.

Honest dynamics: trader participation is Zipf-weighted (a few very active
accounts, a long tail of occasional ones), trade volumes are heavy-tailed,
and the daily price return couples positively to the day's order imbalance.
On buying-pressure days the aggressive side of most trades is a concentrated
buyer while many small holders sell into the rally, so the seller-buyer
ratio co-moves with the return.

Manipulated dynamics add a colluder ring: shares circulate along randomized
cycles (A->B->C->A) inside the ring until the colluders' share of daily
volume reaches the configured fraction, the ring churns against the public
in both directions, the faked activity attracts extra genuine crowd flow,
and the price follows a pump/dump drift schedule instead of the honest
imbalance coupling - volume and price activity decoupled from genuine
demand.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, replace

import numpy as np

from .ingest import StockMeta, TransactionLog, build_log
from .powerlaw import DiscretePowerLaw

TRADING_OPEN = 9 * 3600 + 30 * 60
TRADING_CLOSE = 15 * 3600

# Runaway guard: a wash_volume_fraction close to 1 needs unboundedly many
# circular trades per day; beyond this count the fraction is infeasible.
MAX_WASH_TRADES_PER_DAY = 20_000

BUCKET_SCALE = {"small": 0.8, "mid": 1.0, "large": 1.25}


# Market microstructure shared by every simulated stock.
ACTIVITY_EXPONENT = 1.2  # Zipf tilt of aggressive (initiating) participation
PASSIVE_EXPONENT = 0.6  # flatter Zipf tilt of passive participation
ACTIVITY_JITTER = 0.5  # log-normal spread of each trader's activity weight
BASE_PRICE = 10.0
VOLATILITY = 0.02  # daily return noise
IMBALANCE_COUPLING = 0.025  # honest daily return per unit of order imbalance
INITIATION_TILT = 1.2  # logistic slope of P(buyer-initiated) on daily demand
INTRADAY_NOISE = 0.003  # log-normal spread of trade prices around the day level
VOLUME_ALPHA = 2.3  # trade sizes: discrete power law in lots
LOT_SIZE = 100
WASH_VOLUME_ALPHA = 2.5  # circular wash trades: discrete power law in lots
WASH_LOT_SIZE = 200
CHURN_RATE = 1.0  # ring-vs-public trades per genuine trade in the window
CROWD_BOOST = 2.5  # genuine trade rate multiplier inside the window
START = dt.date(2004, 1, 5)


@dataclass(frozen=True)
class SimConfig:
    """Parameterization of one simulated stock: its size, its labels and,
    when manipulated, its colluder ring and window."""

    rng_seed: int = 0
    n_days: int = 250
    n_traders: int = 1200
    trades_per_day: float = 150.0
    manipulated: bool = False
    n_colluders: int = 150
    wash_volume_fraction: float = 0.5
    symbol: str = "SIM000"
    capitalization_bucket: str = "mid"
    sector: str = "industrials"
    manipulation_window: tuple[dt.date, dt.date] | None = None

    def __post_init__(self) -> None:
        if self.n_traders < 2:
            raise ValueError("n_traders must be >= 2")
        if not 0 <= self.n_colluders < self.n_traders:
            raise ValueError("n_colluders must lie in [0, n_traders)")
        if self.manipulated and self.n_colluders < 3:
            raise ValueError("manipulation needs at least 3 colluders for cycles")
        if not 0.0 <= self.wash_volume_fraction < 1.0:
            raise ValueError("wash_volume_fraction must lie in [0, 1)")
        if self.n_days < 1 or self.trades_per_day <= 0:
            raise ValueError("need at least one day and a positive trade rate")


@dataclass(frozen=True)
class SimResult:
    """A generated log plus its ground truth."""

    log: TransactionLog
    truth: StockMeta
    colluders: frozenset[str]


def trading_days(start: dt.date, n_days: int) -> list[dt.date]:
    """n_days consecutive weekdays from start (weekends skipped)."""
    days = []
    d = start
    while len(days) < n_days:
        if d.weekday() < 5:
            days.append(d)
        d += dt.timedelta(days=1)
    return days


def _pump_schedule(n: int) -> np.ndarray:
    """Pump-then-dump drift schedule over an n-day manipulation window."""
    n_up = max(1, int(0.6 * n))
    return np.concatenate([np.full(n_up, 0.010), np.full(n - n_up, -0.012)])


def _trader_ids(n: int) -> np.ndarray:
    return np.array([f"A{i:05d}" for i in range(n)])


def simulate(cfg: SimConfig) -> SimResult:
    """Generate one stock's transaction log; deterministic per rng_seed."""
    rng = np.random.default_rng(cfg.rng_seed)
    n = cfg.n_traders
    ids = _trader_ids(n)

    # One activity fingerprint per trader, two tilts: aggressive (initiating)
    # participation is strongly concentrated, passive participation much
    # flatter, so rallies draw many small counterparties around a few big
    # initiators.
    ranks = np.arange(1, n + 1, dtype=np.float64)
    jitter = np.exp(rng.normal(0.0, ACTIVITY_JITTER, n))
    weights = ranks ** (-ACTIVITY_EXPONENT) * jitter
    weights /= weights.sum()
    passive_weights = ranks ** (-PASSIVE_EXPONENT) * jitter
    passive_weights /= passive_weights.sum()

    days = trading_days(START, cfg.n_days)
    if cfg.manipulated:
        colluder_idx = np.sort(rng.choice(n, size=cfg.n_colluders, replace=False))
        # Uniform, but passed as p= all the same: a weighted draw consumes
        # the random stream differently from an unweighted one.
        coll_weights = np.full(cfg.n_colluders, 1.0 / cfg.n_colluders)
        window = cfg.manipulation_window or (days[0], days[-1])
        window_days = [d for d in days if window[0] <= d <= window[1]]
        pump = _pump_schedule(len(window_days))
        window_index = {d: i for i, d in enumerate(window_days)}
    else:
        colluder_idx = np.empty(0, dtype=np.int64)
        coll_weights = np.empty(0)
        window = None
        window_index = {}
        pump = np.empty(0)

    vol_sampler = DiscretePowerLaw(VOLUME_ALPHA, 1)
    wash_sampler = DiscretePowerLaw(WASH_VOLUME_ALPHA, 1)

    level = BASE_PRICE
    all_dates, all_times, all_txn = [], [], []
    all_buyers, all_sellers, all_vols, all_prices = [], [], [], []

    for day in days:
        eps = rng.standard_normal()
        demand = rng.standard_normal()
        in_window = cfg.manipulated and day in window_index
        # The faked turnover draws in real crowd flow, so genuine activity
        # itself runs hotter during the manipulation window.
        rate = cfg.trades_per_day * (CROWD_BOOST if in_window else 1.0)
        n_tr = max(1, int(rng.poisson(rate)))

        p_buy = 1.0 / (1.0 + math.exp(-INITIATION_TILT * demand))
        buyer_initiated = rng.random(n_tr) < p_buy
        aggressive = rng.choice(n, size=n_tr, p=weights)
        passive = rng.choice(n, size=n_tr, p=passive_weights)
        clash = aggressive == passive
        while np.any(clash):
            passive[clash] = rng.choice(n, size=int(clash.sum()), p=passive_weights)
            clash = aggressive == passive
        buyers = np.where(buyer_initiated, aggressive, passive)
        sellers = np.where(buyer_initiated, passive, aggressive)
        volumes = vol_sampler.sample(rng, n_tr) * LOT_SIZE

        imbalance = 2.0 * buyer_initiated.mean() - 1.0
        if in_window:
            ret = VOLATILITY * eps + pump[window_index[day]]
        else:
            ret = VOLATILITY * eps + IMBALANCE_COUPLING * imbalance
        level *= math.exp(ret)

        if in_window:
            # Ring accounts trade against the public in both directions,
            # independent of demand: busy tape, no information.
            n_ch = int(rng.poisson(CHURN_RATE * n_tr))
            if n_ch:
                ring = colluder_idx[rng.choice(cfg.n_colluders, size=n_ch,
                                               p=coll_weights)]
                public = rng.choice(n, size=n_ch, p=passive_weights)
                clash = ring == public
                while np.any(clash):
                    public[clash] = rng.choice(n, size=int(clash.sum()),
                                               p=passive_weights)
                    clash = ring == public
                ring_buys = rng.random(n_ch) < 0.5
                buyers = np.concatenate([buyers, np.where(ring_buys, ring, public)])
                sellers = np.concatenate([sellers, np.where(ring_buys, public, ring)])
                volumes = np.concatenate(
                    [volumes, vol_sampler.sample(rng, n_ch) * LOT_SIZE])
                n_tr = buyers.size

        if in_window and cfg.wash_volume_fraction > 0.0:
            f = cfg.wash_volume_fraction
            target = math.ceil(volumes.sum() * f / (1.0 - f))
            wash_buyers, wash_sellers, wash_vols = [], [], []
            total = 0
            while total < target:
                if len(wash_buyers) > MAX_WASH_TRADES_PER_DAY:
                    raise ValueError(
                        f"wash_volume_fraction={f} infeasible on {day}: "
                        f"more than {MAX_WASH_TRADES_PER_DAY} circular trades needed")
                cycle_len = int(rng.integers(3, 7))
                members = colluder_idx[rng.choice(cfg.n_colluders, size=cycle_len,
                                                  replace=False)]
                v = int(wash_sampler.sample(rng, 1)[0]) * WASH_LOT_SIZE
                for i in range(cycle_len):
                    wash_sellers.append(members[i])
                    wash_buyers.append(members[(i + 1) % cycle_len])
                    wash_vols.append(v)
                total += cycle_len * v
            buyers = np.concatenate([buyers, np.asarray(wash_buyers, dtype=np.int64)])
            sellers = np.concatenate([sellers, np.asarray(wash_sellers, dtype=np.int64)])
            volumes = np.concatenate([volumes, np.asarray(wash_vols, dtype=np.int64)])
            n_tr = buyers.size

        prices = level * np.exp(rng.normal(0.0, INTRADAY_NOISE, n_tr))
        prices = np.maximum(np.round(prices, 2), 0.01)
        seconds = rng.integers(TRADING_OPEN, TRADING_CLOSE, size=n_tr)
        order = np.argsort(seconds, kind="stable")

        all_dates.append(np.full(n_tr, day.toordinal(), dtype=np.int64))
        all_times.append(seconds[order])
        all_txn.append(np.char.zfill(np.arange(1, n_tr + 1).astype("U6"), 6))
        all_buyers.append(ids[buyers[order]])
        all_sellers.append(ids[sellers[order]])
        all_vols.append(volumes[order])
        all_prices.append(prices[order])

    truth = StockMeta(symbol=cfg.symbol,
                      capitalization_bucket=cfg.capitalization_bucket,
                      sector=cfg.sector, manipulated=cfg.manipulated,
                      manipulation_period=window)
    log = build_log(truth,
                    np.concatenate(all_dates), np.concatenate(all_times),
                    np.concatenate(all_txn), np.concatenate(all_buyers),
                    np.concatenate(all_sellers), np.concatenate(all_vols),
                    np.concatenate(all_prices))
    colluders = frozenset(str(s) for s in ids[colluder_idx])
    return SimResult(log=log, truth=truth, colluders=colluders)


@dataclass(frozen=True)
class GroupSpec:
    """How many honest/manipulated stocks to generate for one
    (capitalization bucket, sector) cell; ``partial`` of the manipulated
    get a sub-period manipulation window."""

    capitalization_bucket: str
    sector: str
    honest: int
    manipulated: int = 0
    partial: int = 0

    def __post_init__(self) -> None:
        if self.honest < 0 or self.manipulated < 0:
            raise ValueError("counts must be >= 0")
        if not 0 <= self.partial <= self.manipulated:
            raise ValueError("partial must lie in [0, manipulated]")


@dataclass(frozen=True)
class CorpusSpec:
    """A whole synthetic universe: per-cell counts plus a shared template."""

    groups: tuple[GroupSpec, ...]
    master_seed: int = 0
    base: SimConfig = SimConfig()


def generate_corpus(spec: CorpusSpec) -> list[SimResult]:
    """Generate every stock of the spec with independent derived seeds.

    Stocks are named S000, S001, ... in generation order; partial windows
    cover roughly the first two thirds of the period.
    """
    total = sum(g.honest + g.manipulated for g in spec.groups)
    if total == 0:
        return []
    seeds = np.random.SeedSequence(spec.master_seed).generate_state(total, dtype=np.uint64)
    days = trading_days(START, spec.base.n_days)
    partial_window = (days[0], days[(2 * len(days)) // 3 - 1])

    results = []
    serial = 0
    for group in spec.groups:
        scale = BUCKET_SCALE.get(group.capitalization_bucket, 1.0)
        sized = replace(spec.base,
                        n_traders=max(2, int(spec.base.n_traders * scale)),
                        trades_per_day=spec.base.trades_per_day * scale)
        plan = ([False] * group.honest
                + [True] * group.manipulated)
        partial_left = group.partial
        for manipulated in plan:
            window = None
            if manipulated and partial_left > 0:
                window = partial_window
                partial_left -= 1
            cfg = replace(sized,
                          rng_seed=int(seeds[serial]),
                          symbol=f"S{serial:03d}",
                          capitalization_bucket=group.capitalization_bucket,
                          sector=group.sector,
                          manipulated=manipulated,
                          manipulation_window=window)
            results.append(simulate(cfg))
            serial += 1
    return results
