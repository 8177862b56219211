import datetime as dt
import io

import numpy as np
import pytest

from tradenet.ingest import parse_transactions, write_transactions
from tradenet.network import average_degree, build_network
from tradenet.sim import (START, CorpusSpec, GroupSpec, SimConfig, generate_corpus,
                          simulate, trading_days)

SMALL = SimConfig(rng_seed=3, n_traders=200, n_days=30, trades_per_day=40.0,
                  n_colluders=30)


def test_same_seed_identical_log():
    a = simulate(SMALL)
    b = simulate(SMALL)
    assert a.log == b.log
    assert a.colluders == b.colluders


def test_different_seed_differs():
    from dataclasses import replace
    a = simulate(SMALL)
    b = simulate(replace(SMALL, rng_seed=4))
    assert a.log != b.log


def test_truth_matches_config():
    from dataclasses import replace
    honest = simulate(SMALL)
    assert honest.truth.manipulated is False
    assert honest.truth.manipulation_period is None
    assert honest.colluders == frozenset()
    manip = simulate(replace(SMALL, manipulated=True))
    assert manip.truth.manipulated is True
    assert manip.truth.manipulation_period is not None
    assert len(manip.colluders) == SMALL.n_colluders


def test_wash_volume_fraction_enforced():
    from dataclasses import replace
    cfg = replace(SMALL, manipulated=True, wash_volume_fraction=0.6)
    res = simulate(cfg)
    log = res.log
    coll = {i for i, a in enumerate(log.accounts) if a in res.colluders}
    is_wash = (np.isin(log.buyers, list(coll)) & np.isin(log.sellers, list(coll)))
    wash_vol = int(log.volumes[is_wash].sum())
    assert wash_vol >= 0.6 * log.total_volume()


def test_infeasible_wash_fraction_errors():
    from dataclasses import replace
    cfg = replace(SMALL, manipulated=True, wash_volume_fraction=0.9999)
    with pytest.raises(ValueError, match="infeasible"):
        simulate(cfg)


def test_no_self_trades():
    from dataclasses import replace
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
        labels = [r.truth.manipulated for r in results]
        assert sum(labels) == 2
        assert all(r.truth.manipulated == (r.colluders != frozenset())
                   for r in results)

    def test_partial_window_is_subperiod(self):
        spec = CorpusSpec(groups=(GroupSpec("mid", "tech", honest=0,
                                            manipulated=2, partial=1),),
                          master_seed=9, base=self.BASE)
        results = generate_corpus(spec)
        windows = [r.truth.manipulation_period for r in results]
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
    from dataclasses import replace
    cfg = SimConfig(n_traders=250, n_days=40, trades_per_day=50.0,
                    n_colluders=40)
    honest, manip = [], []
    for seed in range(20):
        h = simulate(replace(cfg, rng_seed=seed))
        m = simulate(replace(cfg, rng_seed=seed, manipulated=True))
        honest.append(average_degree(build_network(h.log)))
        manip.append(average_degree(build_network(m.log)))
    assert np.median(manip) > np.median(honest)
