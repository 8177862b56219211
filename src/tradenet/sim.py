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
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .ingest import StockMeta, TransactionLog, _sorted_log
from .powerlaw import DiscretePowerLaw

TRADING_OPEN = 9 * 3600 + 30 * 60
TRADING_CLOSE = 15 * 3600

# Runaway guard: a wash_volume_fraction close to 1, or a day with a huge
# volume draw, needs very many circular trades; past this count one last
# cycle carries the rest of the day's wash volume.
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
        if self.manipulation_window is not None and not self.manipulated:
            raise ValueError("a manipulation_window needs manipulated=True")
        if not 0.0 <= self.wash_volume_fraction < 1.0:
            raise ValueError("wash_volume_fraction must lie in [0, 1)")
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")
        if not 0 < self.trades_per_day < math.inf:
            raise ValueError(f"trades_per_day must be finite and > 0, got {self.trades_per_day}")


@dataclass(frozen=True)
class SimResult:
    """A generated log, whose meta is the ground truth, plus its ring."""

    log: TransactionLog
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


def _pump_schedule(days: list[dt.date]) -> dict[dt.date, float]:
    """Pump-then-dump drift per day of a manipulation window."""
    n_up = max(1, int(0.6 * len(days)))
    return {d: 0.010 if i < n_up else -0.012 for i, d in enumerate(days)}


@functools.lru_cache(maxsize=4)
def _trader_ids(n: int) -> tuple[str, ...]:
    """The account ids of a population of n traders, built once per size; a
    corpus uses one size per capitalization bucket, and the last four sizes
    are kept.  A tuple, so no caller can change what the next simulation
    names its accounts."""
    return tuple(f"A{i:05d}" for i in range(n))


@functools.cache
def _samplers() -> tuple[DiscretePowerLaw, DiscretePowerLaw]:
    """The trade-size and wash-size samplers, built on first use rather than
    at import.  Each holds its table of zeta values, prepared once, and keeps
    no state between draws, so every simulation in a process can share them."""
    return DiscretePowerLaw(VOLUME_ALPHA, 1), DiscretePowerLaw(WASH_VOLUME_ALPHA, 1)


def _cdf(weights: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice`` draws from when given weights / their sum."""
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    """``size`` accounts drawn from the normalised CDF ``cdf``, exactly as
    ``rng.choice(cdf.size, size, p=p)`` draws them from the p it came from."""
    return cdf.searchsorted(rng.random(size), side="right")


def _counterparties(rng: np.random.Generator, first: np.ndarray,
                    cdf: np.ndarray) -> np.ndarray:
    """One account per entry of ``first``, drawn from ``cdf`` and redrawn
    until none equals its entry of ``first``."""
    other = _draw(rng, cdf, first.size)
    clash = other == first
    while np.any(clash):
        other[clash] = _draw(rng, cdf, int(clash.sum()))
        clash = other == first
    return other


def _wash_cycles(rng: np.random.Generator, colluder_idx: np.ndarray,
                 wash_sampler: DiscretePowerLaw, target: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One day's circular trades inside the ring, as int64 (sellers,
    buyers, volumes), until their volume reaches ``target``.

    Each cycle takes 3 to min(6, ring size) distinct members and one size
    drawn in WASH_LOT_SIZE lots; each member sells that size to the next,
    and the last to the first.  The first cycle that starts after more than
    MAX_WASH_TRADES_PER_DAY trades carries the rest of the target instead,
    and ends the day.  A zero target draws nothing.
    """
    if target <= 0:
        return (np.empty(0, dtype=np.int64),) * 3
    ring = colluder_idx.size
    top = min(6, ring)
    # A cycle holds at least 3 trades of at least one lot each, so this many
    # cycles reach the target or the capped cycle; the rest are cut.
    k = min(-(-target // (3 * WASH_LOT_SIZE)), MAX_WASH_TRADES_PER_DAY // 3 + 2)
    lengths = rng.integers(3, top + 1, size=k)
    # Column j draws a rank among the ring - j members its row has not yet
    # picked; stepping past the picked ones, in increasing order, turns the
    # rank into a member.
    members = rng.integers(0, ring - np.arange(top), size=(k, top))
    for j in range(1, top):
        column = members[:, j]
        for picked in np.sort(members[:, :j], axis=1).T:
            column += column >= picked
    sizes = wash_sampler.sample(rng, k) * WASH_LOT_SIZE

    starts = np.cumsum(lengths) - lengths
    reached = np.cumsum(lengths * sizes)
    last = min(np.searchsorted(reached, target),
               np.searchsorted(starts, MAX_WASH_TRADES_PER_DAY, side="right"))
    if starts[last] > MAX_WASH_TRADES_PER_DAY:
        rest = target - (reached[last - 1] if last else 0)
        lot = lengths[last] * WASH_LOT_SIZE
        sizes[last] = -(-rest // lot) * WASH_LOT_SIZE
    lengths = lengths[:last + 1]
    cycle = np.repeat(np.arange(last + 1), lengths)
    pos = np.arange(cycle.size) - starts[cycle]
    sellers = colluder_idx[members[cycle, pos]]
    buyers = colluder_idx[members[cycle, (pos + 1) % lengths[cycle]]]
    return sellers, buyers, sizes[cycle]


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
    # Generator.choice(n, size, p=p) builds this CDF from p on every call and
    # then does what _draw does, so building it once per simulation leaves
    # every draw, and the generator's state after it, as choice leaves them.
    cdf = _cdf(ranks ** (-ACTIVITY_EXPONENT) * jitter)
    passive_cdf = _cdf(ranks ** (-PASSIVE_EXPONENT) * jitter)

    days = trading_days(START, cfg.n_days)
    colluder_idx = np.empty(0, dtype=np.int64)
    window, pump = None, {}
    if cfg.manipulated:
        colluder_idx = np.sort(rng.choice(n, size=cfg.n_colluders, replace=False))
        window = cfg.manipulation_window or (days[0], days[-1])
        pump = _pump_schedule([d for d in days if window[0] <= d <= window[1]])
        if not pump:
            raise ValueError(f"manipulation_window {window[0]}..{window[1]} "
                             "holds no simulated trading day")

    vol_sampler, wash_sampler = _samplers()

    level = BASE_PRICE
    records = []
    for day in days:
        eps = rng.standard_normal()
        demand = rng.standard_normal()
        in_window = day in pump
        # The faked turnover draws in real crowd flow, so genuine activity
        # itself runs hotter during the manipulation window.
        rate = cfg.trades_per_day * (CROWD_BOOST if in_window else 1.0)
        n_tr = max(1, int(rng.poisson(rate)))

        p_buy = 1.0 / (1.0 + math.exp(-INITIATION_TILT * demand))
        buyer_initiated = rng.random(n_tr) < p_buy
        aggressive = _draw(rng, cdf, n_tr)
        passive = _counterparties(rng, aggressive, passive_cdf)
        buyers = np.where(buyer_initiated, aggressive, passive)
        sellers = np.where(buyer_initiated, passive, aggressive)
        volumes = vol_sampler.sample(rng, n_tr) * LOT_SIZE

        if in_window:
            level *= math.exp(VOLATILITY * eps + pump[day])
            # Ring accounts trade against the public in both directions,
            # independent of demand: busy tape, no information.
            n_ch = int(rng.poisson(CHURN_RATE * n_tr))
            ring = colluder_idx[rng.integers(cfg.n_colluders, size=n_ch)]
            public = _counterparties(rng, ring, passive_cdf)
            ring_buys = rng.random(n_ch) < 0.5
            volumes = np.concatenate([volumes, vol_sampler.sample(rng, n_ch) * LOT_SIZE])

            f = cfg.wash_volume_fraction
            wash_sellers, wash_buyers, wash_vols = _wash_cycles(
                rng, colluder_idx, wash_sampler, math.ceil(volumes.sum() * f / (1.0 - f)))
            buyers = np.concatenate([buyers, np.where(ring_buys, ring, public), wash_buyers])
            sellers = np.concatenate([sellers, np.where(ring_buys, public, ring), wash_sellers])
            volumes = np.concatenate([volumes, wash_vols])
        else:
            imbalance = 2.0 * buyer_initiated.mean() - 1.0
            level *= math.exp(VOLATILITY * eps + IMBALANCE_COUPLING * imbalance)
        n_tr = buyers.size

        prices = level * np.exp(rng.normal(0.0, INTRADAY_NOISE, n_tr))
        prices = np.maximum(np.round(prices, 2), 0.01)
        seconds = rng.integers(TRADING_OPEN, TRADING_CLOSE, size=n_tr)
        order = np.argsort(seconds, kind="stable")
        records.append((np.full(n_tr, day.toordinal(), dtype=np.int64), seconds[order],
                        np.arange(n_tr), buyers[order], sellers[order], volumes[order],
                        prices[order]))

    meta = StockMeta(symbol=cfg.symbol, capitalization_bucket=cfg.capitalization_bucket,
                     sector=cfg.sector, manipulated=cfg.manipulated,
                     manipulation_period=window)
    dates, times, txns, buyers, sellers, volumes, prices = map(np.concatenate, zip(*records))
    del records  # the days' columns, a second copy of the log's
    # Each day's txn ids are its serials 1, 2, ..., all zero-padded to one
    # width so that they sort like the codes that index them.
    n_max = int(txns.max()) + 1
    width = max(6, len(str(n_max)))
    serials = [f"{i:0{width}d}" for i in range(1, n_max + 1)]
    # Whole lots, prices of at least 0.01 and times within the session meet
    # every rule of the file format.  The buyers and sellers index ``ids``, and
    # _sorted_log numbers accounts by first appearance as the parser does.
    log = _sorted_log(meta, dates, times, txns, serials, buyers, sellers, ids, volumes,
                      prices)
    return SimResult(log=log, colluders=frozenset(ids[i] for i in colluder_idx.tolist()))


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
        for name in ("capitalization_bucket", "sector"):
            if not isinstance(value := getattr(self, name), str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        for name in ("honest", "manipulated", "partial"):
            if isinstance(value := getattr(self, name), bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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

    def __post_init__(self) -> None:
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")
        if self.base.n_days < 2 and any(g.partial for g in self.groups):
            raise ValueError("a partial manipulation window needs n_days >= 2")


def corpus_configs(spec: CorpusSpec) -> list[SimConfig]:
    """The config of every stock of the spec, each with its own derived seed.

    Stocks are named S000, S001, ... in generation order; partial windows
    cover roughly the first two thirds of the period, so they need a period
    of at least 2 days.
    """
    total = sum(g.honest + g.manipulated for g in spec.groups)
    seeds = np.random.SeedSequence(spec.master_seed).generate_state(total, dtype=np.uint64)
    days = trading_days(START, spec.base.n_days)
    partial_window = (days[0], days[(2 * len(days)) // 3 - 1])

    configs = []
    for group in spec.groups:
        scale = BUCKET_SCALE.get(group.capitalization_bucket, 1.0)
        sized = replace(spec.base,
                        n_traders=max(2, int(spec.base.n_traders * scale)),
                        trades_per_day=spec.base.trades_per_day * scale)
        for i in range(group.honest + group.manipulated):
            serial = len(configs)
            partial = group.honest <= i < group.honest + group.partial
            configs.append(replace(sized,
                                   rng_seed=int(seeds[serial]),
                                   symbol=f"S{serial:03d}",
                                   capitalization_bucket=group.capitalization_bucket,
                                   sector=group.sector,
                                   manipulated=i >= group.honest,
                                   manipulation_window=partial_window if partial else None))
    return configs


def generate_corpus(spec: CorpusSpec) -> list[SimResult]:
    """Generate every stock of the spec (see ``corpus_configs``), all held
    at once; ``simulate`` of each config gives one stock at a time."""
    return [simulate(cfg) for cfg in corpus_configs(spec)]
