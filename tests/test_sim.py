import datetime as dt
import hashlib
import io
from dataclasses import replace

import numpy as np
import pytest

from tradenet import sim
from tradenet.ingest import build_log, parse_transactions, write_transactions
from tradenet.network import average_degree, build_network
from tradenet.sim import (MAX_WASH_TRADES_PER_DAY, START, CorpusSpec, GroupSpec,
                          SimConfig, generate_corpus, simulate, trading_days)

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


# S011 of ``simulate --seed 623 --days 30 --partial 1``: a stock with a day
# whose volume draw needs more than MAX_WASH_TRADES_PER_DAY circular trades
# at the default fraction.
CAPPED_DAY = SimConfig(rng_seed=int(np.random.SeedSequence(623).generate_state(
    12, dtype=np.uint64)[11]), n_days=30, manipulated=True)


def test_huge_volume_day_meets_wash_fraction():
    """The capped day meets the wash fraction like any other."""
    res = simulate(CAPPED_DAY)
    assert np.bincount(res.log.dates).max() > MAX_WASH_TRADES_PER_DAY
    assert ring_share_by_day(res).min() >= SimConfig.wash_volume_fraction


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
                   "658c1e1b5c7563bdaf4044999a29ebe0f3727a223e24bb7416996a324f8b71ff"),
    "no-wash": (replace(SMALL, manipulated=True, wash_volume_fraction=0.0),
                "3a2bc58bcde51c4c1d8ce4849ed6a5d5cb3111943929890c66ac1a79a7914db1"),
    "days-without-churn": (SimConfig(rng_seed=11, n_days=20, n_traders=50,
                                     trades_per_day=0.2, n_colluders=8, manipulated=True),
                           "cbc5683e74718121a7923988df59c5f1c22b2a8aa106c6dc8d8b9fa808158844"),
    "partial-window": (replace(SMALL, manipulated=True, manipulation_window=(
        dt.date(2004, 1, 12), dt.date(2004, 1, 30))),
        "5cc231bf73d7113a9a8ba33d138a3c40e8507dc5b745cc2a48f2bdd6485491b7"),
    "honest": (SMALL, "b5f2a0969fe965f5cc52436911fb9ca0dfc7d232243a8f2b3a204b9b7e0e001d"),
    # Accounts past A99999 trade, and "A100000" sorts before "A99999", so
    # an account's index and the rank of its id differ.
    "past-A99999": (replace(SMALL, rng_seed=5, n_traders=100_050, manipulated=True),
                    "8e923812a37900b09e752924bbdbd67d20c262d2d9bb6d3a08170d572bf4028d"),
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
