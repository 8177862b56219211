import datetime as dt
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from line_oracle import build_log
from tradenet.features import (DailySeries, compute_features, daily_series,
                               log_returns, pearson_corr, return_ratio_correlation,
                               seller_buyer_ratio)
from tradenet.ingest import StockMeta
from tradenet.powerlaw import GofConfig
from tradenet.sim import SimConfig, simulate


def series(days, prices, ns, nb):
    return DailySeries(days=tuple(dt.date(2004, 1, 1 + i) for i in range(days)),
                       avg_price=np.asarray(prices, dtype=float),
                       n_sellers=np.asarray(ns), n_buyers=np.asarray(nb))


class TestDailySeries:
    def test_volume_weighted_mean_price(self, make_log):
        rows = [("2004-01-05", "09:30:00", "1", "B", "A", 100, 10.0),
                ("2004-01-05", "09:31:00", "2", "C", "A", 100, 12.0)]
        s = daily_series(make_log(rows))
        assert s.n_days == 1
        assert s.n_sellers[0] == 1
        assert s.n_buyers[0] == 2
        assert s.avg_price[0] == pytest.approx(11.0)

    def test_weighting_matters(self, make_log):
        rows = [("2004-01-05", "09:30:00", "1", "B", "A", 300, 10.0),
                ("2004-01-05", "09:31:00", "2", "C", "A", 100, 12.0)]
        log = make_log(rows)
        assert daily_series(log).avg_price[0] == pytest.approx(10.5)

    def test_account_on_both_sides_counted_twice(self, make_log):
        rows = [("2004-01-05", "09:30:00", "1", "X", "A", 100, 10.0),
                ("2004-01-05", "09:31:00", "2", "B", "X", 100, 10.0)]
        s = daily_series(make_log(rows))
        assert s.n_sellers[0] == 2  # A and X
        assert s.n_buyers[0] == 2   # X and B

    def test_counts_match_set_oracle(self):
        res = simulate(SimConfig(rng_seed=13, n_traders=80, n_days=22,
                                 trades_per_day=30.0, n_colluders=20))
        s = daily_series(res.log)
        sellers = defaultdict(set)
        buyers = defaultdict(set)
        log = res.log
        for ordinal, seller, buyer in zip(log.dates.tolist(), log.sellers.tolist(),
                                          log.buyers.tolist()):
            day = dt.date.fromordinal(ordinal)
            sellers[day].add(seller)
            buyers[day].add(buyer)
        assert list(s.days) == sorted(sellers)
        for i, day in enumerate(s.days):
            assert s.n_sellers[i] == len(sellers[day])
            assert s.n_buyers[i] == len(buyers[day])

    def test_empty_log_rejected(self, make_log):
        with pytest.raises(ValueError):
            daily_series(make_log([]))

    # (day offset, second of the day, buyer, seller) per record.
    @settings(max_examples=150)
    @given(records=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 86399),
                                      st.integers(0, 5), st.integers(0, 5)),
                            min_size=1, max_size=40))
    @example(records=[(3, 600, 0, 1), (3, 60, 2, 0), (3, 60, 1, 0)])  # one day
    @example(records=[(0, 5, 0, 0), (4, 5, 0, 0), (4, 1, 0, 0)])  # one account
    def test_counts_match_unique_form(self, records):
        """The sort-and-diff counts equal np.unique's over (day, account)
        pairs, and the days its distinct dates."""
        days, times, buyers, sellers = zip(*records)
        log = build_log(StockMeta(symbol="T", capitalization_bucket="mid", sector="x"),
                        [dt.date(2004, 1, 5).toordinal() + d for d in days], times,
                        [str(i) for i in range(len(records))], [f"A{b}" for b in buyers],
                        [f"A{s}" for s in sellers], [100] * len(records),
                        [5.0] * len(records))
        s = daily_series(log)
        day_vals, day_idx = np.unique(log.dates, return_inverse=True)
        assert s.days == tuple(dt.date.fromordinal(d) for d in day_vals.tolist())
        k = len(log.accounts)
        for counts, side in ((s.n_sellers, log.sellers), (s.n_buyers, log.buyers)):
            expected = np.bincount(np.unique(day_idx * k + side) // k, minlength=day_vals.size)
            assert np.array_equal(counts, expected)


class TestReturnsAndRatio:
    def test_constant_price_zero_return(self):
        assert log_returns(series(2, [10, 10], [1, 1], [1, 1])) == pytest.approx([0.0])

    def test_eulers_step(self):
        pr = log_returns(series(2, [10, 10 * math.e], [1, 1], [1, 1]))
        assert pr == pytest.approx([1.0])

    def test_telescoping(self):
        pr = log_returns(series(3, [10, 20, 10], [1, 1, 1], [1, 1, 1]))
        assert pr == pytest.approx([math.log(2), -math.log(2)])
        assert pr.sum() == pytest.approx(0.0)

    def test_needs_two_days(self):
        with pytest.raises(ValueError):
            log_returns(series(1, [10], [1], [1]))

    def test_ratio_trivial(self):
        assert seller_buyer_ratio(series(1, [10], [3], [3]))[0] == 1.0
        assert seller_buyer_ratio(series(1, [10], [4], [2]))[0] == 2.0


class TestPearson:
    def test_exact_linearity(self):
        assert pearson_corr([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson_corr([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=100)
        y = 0.4 * x + rng.normal(size=100)
        got = pearson_corr(x, y)
        mx = math.fsum(x) / len(x)
        my = math.fsum(y) / len(y)
        num = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
        den = math.sqrt(math.fsum((a - mx) ** 2 for a in x)
                        * math.fsum((b - my) ** 2 for b in y))
        assert abs(got - num / den) <= 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        base = pearson_corr(x, y)
        assert abs(pearson_corr(3.5 * x + 11.0, y) - base) <= 1e-9
        assert abs(pearson_corr(x, 0.01 * y - 4.0) - base) <= 1e-9

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant series"):
            pearson_corr([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            pearson_corr([1, 2, 3], [1, 2])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            pearson_corr([1, 2], [3, 4])


class TestAlignment:
    def test_same_day_pairing(self):
        # pr(t) for t=2..4 pairs with r(t); r(1) never used at lag 0
        s = series(4, [10, 11, 12, 11], [9, 4, 6, 8], [3, 2, 3, 2])
        pr = log_returns(s)
        r = seller_buyer_ratio(s)
        expect = pearson_corr(pr, r[1:])
        assert return_ratio_correlation(s) == pytest.approx(expect)


class TestComputeFeatures:
    CFG = GofConfig(bootstrap_replicas=0, rng_seed=0, min_tail_size=30)

    def test_two_day_log_has_no_correlation(self, make_log):
        rows = [("2004-01-05", "09:30:00", "1", "B", "A", 100, 10.0),
                ("2004-01-06", "09:30:00", "1", "C", "A", 100, 10.5)]
        feats = compute_features(make_log(rows), self.CFG)
        assert feats.return_ratio_corr is None
        assert feats.n_days == 2

    def test_small_log_marks_fits_missing(self, make_log):
        rows = [("2004-01-05", "09:30:00", "1", "B", "A", 100, 10.0)]
        feats = compute_features(make_log(rows), self.CFG)
        assert feats.fits["degree_out"] is None
        assert feats.fits["strength_total"] is None
        assert feats.avg_degree == 1.0

    def test_full_feature_vector_on_simulation(self):
        res = simulate(SimConfig(rng_seed=1, n_traders=800, n_days=120,
                                 trades_per_day=120.0))
        feats = compute_features(res.log, GofConfig(min_tail_size=50,
                                                    bootstrap_replicas=0))
        assert feats.symbol == res.log.meta.symbol
        for stat in ("degree_in", "degree_out"):
            fit = feats.fits[stat]
            assert fit is not None and fit.x_min >= 1
        for stat in ("strength_in", "strength_out", "strength_total"):
            fit = feats.fits[stat]
            assert fit is not None and fit.n_tail >= 50
        assert feats.return_ratio_corr is not None
        assert feats.n_days == 120

    def test_daily_series_permutation_invariant(self, make_log):
        rows = [("2004-01-05", "09:30:%02d" % i, str(i), f"B{i%3}", f"S{i%2}",
                 100 + i, 10.0 + 0.01 * i) for i in range(20)]
        rng = np.random.default_rng(0)
        base = daily_series(make_log(rows))
        shuffled = [rows[j] for j in rng.permutation(len(rows))]
        other = daily_series(make_log(shuffled))
        assert base.days == other.days
        assert np.allclose(base.avg_price, other.avg_price)
        assert np.array_equal(base.n_sellers, other.n_sellers)
        assert np.array_equal(base.n_buyers, other.n_buyers)
