import datetime as dt
import hashlib
import io
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from powerlaw_helpers import ks_distance
from tradenet import sim
from tradenet.ingest import build_log, parse_transactions, write_transactions
from tradenet.network import average_degree, build_network
from tradenet.sim import (MAX_WASH_TRADES_PER_DAY, START, WASH_LOT_SIZE,
                          WASH_VOLUME_ALPHA, CorpusSpec, GroupSpec, SimConfig,
                          generate_corpus, simulate, trading_days)

SMALL = SimConfig(rng_seed=3, n_traders=200, n_days=30, trades_per_day=40.0,
                  n_colluders=30)


def test_same_seed_identical_log():
    a = simulate(SMALL)
    b = simulate(SMALL)
    assert a.log == b.log
    assert a.colluders == b.colluders


def test_different_seed_differs():
    a = simulate(SMALL)
    b = simulate(replace(SMALL, rng_seed=4))
    assert a.log != b.log


def test_truth_matches_config():
    honest = simulate(SMALL)
    assert honest.log.meta.manipulated is False
    assert honest.log.meta.manipulation_period is None
    assert honest.colluders == frozenset()
    manip = simulate(replace(SMALL, manipulated=True))
    assert manip.log.meta.manipulated is True
    assert manip.log.meta.manipulation_period is not None
    assert len(manip.colluders) == SMALL.n_colluders


def ring_share_by_day(res) -> np.ndarray:
    """Each day's share of volume traded between two colluders."""
    log = res.log
    ring = np.isin(np.array(log.accounts), list(res.colluders))
    in_ring = ring[log.buyers] & ring[log.sellers]
    _, day = np.unique(log.dates, return_inverse=True)
    return (np.bincount(day, weights=log.volumes * in_ring)
            / np.bincount(day, weights=log.volumes))


def test_wash_volume_fraction_enforced():
    res = simulate(replace(SMALL, manipulated=True, wash_volume_fraction=0.6))
    assert ring_share_by_day(res).min() >= 0.6


def test_wash_fraction_near_one_met_past_the_trade_cap():
    """Past MAX_WASH_TRADES_PER_DAY circular trades, one last cycle carries
    the rest of the day's wash volume."""
    res = simulate(replace(SMALL, manipulated=True, wash_volume_fraction=0.9999, n_days=2))
    assert np.bincount(res.log.dates).max() > MAX_WASH_TRADES_PER_DAY
    assert ring_share_by_day(res).min() >= 0.9999


# A stock with a day whose volume draw needs more than
# MAX_WASH_TRADES_PER_DAY circular trades at the default fraction: the first
# such SimConfig(rng_seed=s, n_days=30, manipulated=True) with s running
# over SeedSequence(m).generate_state(12) in order, for m = 623, 624, ...
# It is stock 7 of m = 641.
CAPPED_DAY = SimConfig(rng_seed=int(np.random.SeedSequence(641).generate_state(
    12, dtype=np.uint64)[7]), n_days=30, manipulated=True)


def test_huge_volume_day_meets_wash_fraction():
    """The capped day meets the wash fraction like any other."""
    res = simulate(CAPPED_DAY)
    assert np.bincount(res.log.dates).max() > MAX_WASH_TRADES_PER_DAY
    assert ring_share_by_day(res).min() >= SimConfig.wash_volume_fraction


def split_cycles(sellers, buyers, volumes) -> list[tuple[list[int], int]]:
    """(members in trading order, volume) of each cycle of _wash_cycles'
    trades, asserting that each is one directed cycle of one volume."""
    sellers, buyers, volumes = sellers.tolist(), buyers.tolist(), volumes.tolist()
    cycles, i = [], 0
    while i < len(sellers):
        end = buyers.index(sellers[i], i)  # the trade back to the first seller
        assert sellers[i + 1:end + 1] == buyers[i:end]
        assert volumes[i:end + 1] == [volumes[i]] * (end + 1 - i)
        cycles.append((sellers[i:end + 1], volumes[i]))
        i = end + 1
    return cycles


def seeded_ring(ring: int, seed: int):
    """A generator of the seed, and a sorted ring of that many accounts
    out of 1,000 drawn from it."""
    rng = np.random.default_rng(seed)
    return rng, np.sort(rng.choice(1000, size=ring, replace=False))


def wash_cycles(ring: int, target: int, seed: int):
    rng, colluder_idx = seeded_ring(ring, seed)
    return colluder_idx, sim._wash_cycles(rng, colluder_idx, sim._samplers()[1], target)


@settings(max_examples=150)
@given(ring=st.integers(3, 150), target=st.integers(0, 12_000_000),
       seed=st.integers(0, 2**32 - 1))
@example(ring=3, target=0, seed=0)
@example(ring=3, target=1, seed=0)
@example(ring=150, target=10**12, seed=1)
def test_wash_cycles_close_at_the_target_or_the_cap(ring, target, seed):
    """Each cycle has 3 to min(6, ring) distinct ring members and one
    volume in lots; the day stops at the first cycle whose volume reaches
    the target, or past MAX_WASH_TRADES_PER_DAY trades at one closing cycle
    that carries the rest.  A zero target draws nothing."""
    rng, colluder_idx = seeded_ring(ring, seed)
    before = rng.bit_generator.state
    sellers, buyers, volumes = sim._wash_cycles(rng, colluder_idx, sim._samplers()[1], target)
    assert sellers.dtype == buyers.dtype == volumes.dtype == np.int64
    if target == 0:
        assert sellers.size == 0 and rng.bit_generator.state == before
        return
    cycles = split_cycles(sellers, buyers, volumes)
    ring_members = set(colluder_idx.tolist())
    done = start = 0
    for i, (members, v) in enumerate(cycles):
        assert 3 <= len(members) <= min(6, ring)
        assert len(set(members)) == len(members) and ring_members.issuperset(members)
        assert v > 0 and v % WASH_LOT_SIZE == 0
        if start > MAX_WASH_TRADES_PER_DAY:
            # The closing cycle: the only one that starts past the cap.
            assert i == len(cycles) - 1
            lot = len(members) * WASH_LOT_SIZE
            assert v == -(-(target - done) // lot) * WASH_LOT_SIZE
        done += len(members) * v
        start += len(members)
        assert (done >= target) == (i == len(cycles) - 1)


def test_wash_cycle_sizes_follow_the_wash_exponent():
    """Below the cap every size is a draw from DiscretePowerLaw(
    WASH_VOLUME_ALPHA) in lots: the KS distance of the 17,163 cycle sizes
    drawn at seeds 3 to 12 (0.0016) stays below 1.63 / sqrt(n) (0.0124),
    the 1% critical value."""
    sizes = []
    for seed in range(3, 13):
        _, (sellers, buyers, volumes) = wash_cycles(150, 3_000_000, seed)
        sizes += [v // WASH_LOT_SIZE for _, v in split_cycles(sellers, buyers, volumes)]
    assert len(sizes) > 15_000
    assert ks_distance(sizes, 1, WASH_VOLUME_ALPHA) < 1.63 / np.sqrt(len(sizes))


def test_wash_cycle_lengths_and_members_uniform():
    """In a ring of 6, cycles of 3 to 6 members are alike often, and so
    are the 120 ordered triples a cycle can start with: over the 44,385
    cycles drawn at seeds 4 to 13, chi-square tests give p = 0.054 and
    0.26, and each must give more than 0.001."""
    lengths, triples = Counter(), Counter()
    for seed in range(4, 14):
        colluder_idx, trades = wash_cycles(6, 8_000_000, seed)
        cycles = [np.searchsorted(colluder_idx, m).tolist() for m, _ in split_cycles(*trades)]
        lengths.update(len(m) for m in cycles)
        triples.update(tuple(m[:3]) for m in cycles)
    assert sorted(lengths) == [3, 4, 5, 6] and len(triples) == 6 * 5 * 4
    assert chisquare(list(lengths.values())).pvalue > 0.001
    assert chisquare(list(triples.values())).pvalue > 0.001


@pytest.mark.parametrize("n_colluders", [3, 4, 5])
def test_small_ring_meets_wash_fraction(n_colluders):
    """Cycles take 3 to min(6, ring size) members, so a ring of 3 to 5
    colluders can wash trade."""
    res = simulate(replace(SMALL, manipulated=True, n_colluders=n_colluders, n_days=5))
    assert len(res.colluders) == n_colluders
    assert ring_share_by_day(res).min() >= SMALL.wash_volume_fraction


def test_window_on_honest_stock_rejected():
    """A window is a manipulated stock's; an honest one refuses it rather
    than simulating a stock whose period is None."""
    window = (dt.date(2004, 1, 5), dt.date(2004, 1, 6))
    with pytest.raises(ValueError, match="manipulated=True"):
        replace(SMALL, manipulation_window=window)


def test_window_without_trading_day_rejected():
    saturday = dt.date(2004, 1, 10)
    cfg = replace(SMALL, manipulated=True, manipulation_window=(saturday, saturday))
    with pytest.raises(ValueError, match="2004-01-10..2004-01-10"):
        simulate(cfg)


# SHA-256 of each log's write_transactions text followed by its sorted
# colluders: a rewrite of the simulator must keep every random draw in
# order, so every corpus keeps its bytes.
PINNED_SIMULATIONS = {
    "capped-day": (CAPPED_DAY,
                   "9821d9b8ce13b71c420f84f7ff65ef1948dd1966e83ca0df3766ac9d8a47e020"),
    "no-wash": (replace(SMALL, manipulated=True, wash_volume_fraction=0.0),
                "b0c8a0c62181655fd50906f4ac6de0bf77f93ad75cf509ddf5293acc21d18a1f"),
    "days-without-churn": (SimConfig(rng_seed=11, n_days=20, n_traders=50,
                                     trades_per_day=0.2, n_colluders=8, manipulated=True),
                           "947b52ccee6e82b1f6db5b7dbd070d08f4fa62b65661a5542f304cac732f3681"),
    "partial-window": (replace(SMALL, manipulated=True, manipulation_window=(
        dt.date(2004, 1, 12), dt.date(2004, 1, 30))),
        "ad5316f1ed4ddce0dfb956decd6d5dbecc2575097f86cd66b0709b8fe10939c8"),
    "honest": (SMALL, "b5f2a0969fe965f5cc52436911fb9ca0dfc7d232243a8f2b3a204b9b7e0e001d"),
    # Accounts past A99999 trade, and "A100000" sorts before "A99999", so
    # an account's index and the rank of its id differ.
    "past-A99999": (replace(SMALL, rng_seed=5, n_traders=100_050, manipulated=True),
                    "67cd1a50b9010fa2314ccfd79edcf429648a73849b98b9bfbda87e08dcef442f"),
}


def _digest(res) -> str:
    buf = io.StringIO()
    write_transactions(res.log, buf)
    h = hashlib.sha256(buf.getvalue().encode())
    h.update(",".join(sorted(res.colluders)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", PINNED_SIMULATIONS)
def test_simulation_pinned(name):
    """The pinned bytes, and the log build_log makes from the log's own
    string columns: the simulator hands the log account indices instead."""
    cfg, digest = PINNED_SIMULATIONS[name]
    res = simulate(cfg)
    assert _digest(res) == digest
    log = res.log
    names = np.array(log.accounts)
    assert log == build_log(log.meta, log.dates, log.times,
                            np.asarray(log.txn_names)[log.txns],
                            names[log.buyers], names[log.sellers], log.volumes,
                            log.prices)


def test_past_a99999_case_holds_seven_character_ids():
    cfg, _ = PINNED_SIMULATIONS["past-A99999"]
    assert any(len(a) == 7 for a in simulate(cfg).log.accounts)


def test_day_past_999999_trades_widens_its_serials():
    """A day of more than 999,999 trades numbers them with seven-digit
    serials, all distinct, and its log reads back from its own file."""
    log = simulate(SimConfig(rng_seed=1, n_days=1, trades_per_day=1_002_000.0)).log
    assert log.n_records > 999_999
    assert {len(name) for name in log.txn_names} == {7}
    assert len(set(log.txn_names)) == len(log.txn_names) == log.n_records
    buf = io.StringIO()
    write_transactions(log, buf)
    assert parse_transactions(buf.getvalue().encode(), log.meta) == log


def test_shared_samplers_keep_no_state():
    """Simulations share the size samplers: configs A, B, A in one process
    give the first A's bytes again, whatever B drew."""
    a = replace(SMALL, manipulated=True, n_days=10)
    sim._samplers.cache_clear()
    first = _digest(simulate(a))
    simulate(CAPPED_DAY)
    assert _digest(simulate(a)) == first


def test_no_self_trades():
    res = simulate(replace(SMALL, manipulated=True))
    assert not np.any(res.log.buyers == res.log.sellers)


def test_generated_log_parses_and_roundtrips():
    res = simulate(SMALL)
    buf = io.StringIO()
    write_transactions(res.log, buf)
    again = parse_transactions(io.StringIO(buf.getvalue()), res.log.meta)
    assert again == res.log


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_colluders=200, n_traders=100)
    with pytest.raises(ValueError):
        SimConfig(wash_volume_fraction=1.0)
    with pytest.raises(ValueError):
        SimConfig(n_days=0)


def test_trading_days_skip_weekends():
    days = trading_days(dt.date(2004, 1, 2), 10)  # a Friday
    assert len(days) == 10
    assert all(d.weekday() < 5 for d in days)
    assert days[0] == dt.date(2004, 1, 2)
    assert days[1] == dt.date(2004, 1, 5)


class TestCorpus:
    BASE = SimConfig(n_traders=200, n_days=30, trades_per_day=40.0,
                     n_colluders=30)

    def test_counts_and_labels(self):
        spec = CorpusSpec(groups=(GroupSpec("mid", "tech", honest=4,
                                            manipulated=2, partial=1),),
                          master_seed=9, base=self.BASE)
        results = generate_corpus(spec)
        assert len(results) == 6
        labels = [r.log.meta.manipulated for r in results]
        assert sum(labels) == 2
        assert all(r.log.meta.manipulated == (r.colluders != frozenset())
                   for r in results)

    def test_partial_window_is_subperiod(self):
        spec = CorpusSpec(groups=(GroupSpec("mid", "tech", honest=0,
                                            manipulated=2, partial=1),),
                          master_seed=9, base=self.BASE)
        results = generate_corpus(spec)
        windows = [r.log.meta.manipulation_period for r in results]
        days = trading_days(START, self.BASE.n_days)
        full = (days[0], days[-1])
        assert full in windows
        partial = next(w for w in windows if w != full)
        assert partial[0] == days[0]
        assert partial[1] < days[-1]

    def test_same_master_seed_identical(self):
        spec = CorpusSpec(groups=(GroupSpec("mid", "tech", honest=2,
                                            manipulated=1),),
                          master_seed=42, base=self.BASE)
        a = generate_corpus(spec)
        b = generate_corpus(spec)
        assert all(x.log == y.log for x, y in zip(a, b))

    def test_empty_spec(self):
        assert generate_corpus(CorpusSpec(groups=(), master_seed=1,
                                          base=self.BASE)) == []

    def test_unique_symbols_and_sectors(self):
        spec = CorpusSpec(groups=(GroupSpec("small", "tech", honest=2),
                                  GroupSpec("large", "finance", honest=2)),
                          master_seed=3, base=self.BASE)
        results = generate_corpus(spec)
        symbols = [r.log.meta.symbol for r in results]
        assert len(set(symbols)) == 4
        assert {r.log.meta.sector for r in results} == {"tech", "finance"}


def test_manipulated_average_degree_exceeds_honest_median():
    """Corpus-level comparison over 20 seed pairs at matched size."""
    cfg = SimConfig(n_traders=250, n_days=40, trades_per_day=50.0,
                    n_colluders=40)
    honest, manip = [], []
    for seed in range(20):
        h = simulate(replace(cfg, rng_seed=seed))
        m = simulate(replace(cfg, rng_seed=seed, manipulated=True))
        honest.append(average_degree(build_network(h.log)))
        manip.append(average_degree(build_network(m.log)))
    assert np.median(manip) > np.median(honest)
