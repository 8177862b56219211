import datetime as dt
from functools import partial

import numpy as np
import pytest

from tradenet import detector
from tradenet.detector import (DetectorConfig, detect_corpus, evaluate,
                               feature_vector, reference_values,
                               select_reference, FEATURE_KEYS)
from tradenet.features import TAIL_STATS, StockFeatures
from tradenet.ingest import StockMeta, filter_period, load_corpus
from tradenet.powerlaw import GofConfig, TailFit
from tradenet.sim import CorpusSpec, GroupSpec, SimConfig, generate_corpus


def meta(symbol, bucket="mid", sector="tech", manipulated=False, period=None):
    return StockMeta(symbol=symbol, capitalization_bucket=bucket, sector=sector,
                     manipulated=manipulated, manipulation_period=period)


def by_symbol(*metas):
    return {m.symbol: m for m in metas}


def tail(x_min, alpha=2.0):
    return TailFit(x_min=x_min, alpha=alpha, ccdf_exponent=alpha - 1.0,
                   ks_distance=0.02, p_value=None, n_tail=100,
                   levy_stable=0.0 < alpha - 1.0 < 2.0, alpha_at_bound=False)


def features(symbol, deg_xmin=10, stren_xmin=1000, avg_degree=40.0, corr=0.5):
    return StockFeatures(
        symbol=symbol,
        fits={"degree_in": tail(deg_xmin), "degree_out": tail(deg_xmin),
              "strength_in": tail(stren_xmin), "strength_out": tail(stren_xmin),
              "strength_total": tail(stren_xmin)},
        avg_degree=avg_degree, return_ratio_corr=corr, n_days=250)


class TestSelectReference:
    def test_matching_honest_stocks(self):
        universe = by_symbol(meta("T"), meta("A"), meta("B"), meta("C"),
                             meta("D", bucket="large"), meta("E", sector="finance"))
        assert select_reference(meta("T"), universe) == ("A", "B", "C")

    def test_manipulated_stocks_excluded(self):
        import datetime as dt
        period = (dt.date(2004, 1, 2), dt.date(2004, 9, 3))
        universe = by_symbol(meta("T"), meta("A"),
                             meta("M", manipulated=True, period=period))
        assert select_reference(meta("T"), universe) == ("A",)

    def test_target_never_its_own_reference(self):
        universe = by_symbol(meta("T"), meta("A"))
        assert "T" not in select_reference(meta("T"), universe)

    def test_no_match_suggests_coarser_bucketing(self):
        universe = by_symbol(meta("T"), meta("X", bucket="large"))
        with pytest.raises(ValueError, match="coarser"):
            select_reference(meta("T"), universe)

    def test_matches_bruteforce_filter(self):
        rng = np.random.default_rng(12)
        buckets = ["small", "mid", "large"]
        sectors = ["tech", "finance", "energy"]
        universe = {}
        import datetime as dt
        for i in range(60):
            manip = bool(rng.random() < 0.15)
            universe[f"S{i}"] = meta(
                f"S{i}", bucket=buckets[rng.integers(3)],
                sector=sectors[rng.integers(3)], manipulated=manip,
                period=(dt.date(2004, 1, 2), dt.date(2004, 6, 30)) if manip else None)
        target = universe["S0"]
        expected = sorted(s for s, m in universe.items()
                          if s != "S0" and not m.manipulated
                          and m.capitalization_bucket == target.capitalization_bucket
                          and m.sector == target.sector)
        if expected:
            assert list(select_reference(target, universe)) == expected
        else:
            with pytest.raises(ValueError):
                select_reference(target, universe)


class TestReferenceValues:
    def test_mean_of_two(self):
        vals = reference_values({"A": features("A", avg_degree=2.0),
                                 "B": features("B", avg_degree=4.0)})
        assert vals["avg_degree"] == pytest.approx(3.0)

    def test_single_member_identity(self):
        f = features("A", deg_xmin=17, avg_degree=5.5, corr=0.31)
        vals = reference_values({"A": f})
        assert vals == feature_vector(f)

    def test_means_match_summation_oracle(self):
        rng = np.random.default_rng(3)
        members = {}
        for i in range(10):
            members[f"M{i}"] = features(f"M{i}",
                                        deg_xmin=int(rng.integers(5, 40)),
                                        stren_xmin=int(rng.integers(500, 5000)),
                                        avg_degree=float(rng.uniform(20, 60)),
                                        corr=float(rng.uniform(-1, 1)))
        vals = reference_values(members)
        for key in FEATURE_KEYS:
            expected = np.mean([feature_vector(f)[key] for f in members.values()])
            assert vals[key] == pytest.approx(expected)

    def test_missing_features_excluded_pairwise(self):
        f1 = features("A", avg_degree=2.0)
        f2 = StockFeatures(symbol="B", fits=dict.fromkeys(TAIL_STATS),
                           avg_degree=4.0, return_ratio_corr=None, n_days=2)
        vals = reference_values({"A": f1, "B": f2})
        assert vals["avg_degree"] == pytest.approx(3.0)
        assert vals["degree_in_xmin"] == pytest.approx(10.0)


class TestEvaluate:
    REF = {"degree_in_xmin": 10.0, "degree_out_xmin": 10.0,
           "strength_in_xmin": 1000.0, "strength_out_xmin": 1000.0,
           "strength_total_xmin": 1000.0, "avg_degree": 40.0,
           "return_ratio_corr": 0.5}

    def test_low_correlation_flagged(self):
        rep = evaluate(features("T", corr=0.15), self.REF, DetectorConfig())
        assert rep.flags["corr_below_threshold"] is True

    def test_equality_is_not_elevation(self):
        rep = evaluate(features("T"), self.REF, DetectorConfig(elevation_factor=1.0))
        assert rep.score == 0.0
        assert not rep.verdict
        assert all(v is False for v in rep.flags.values())

    def test_strong_manipulation_signature_flags_everything(self):
        rep = evaluate(features("T", deg_xmin=40, stren_xmin=8000,
                                avg_degree=120.0, corr=0.02), self.REF,
                       DetectorConfig())
        assert rep.score == 1.0
        assert rep.verdict

    def test_missing_features_shrink_denominator(self):
        f = features("T", deg_xmin=40, stren_xmin=8000, avg_degree=120.0,
                     corr=0.02)
        f = StockFeatures(symbol="T",
                          fits={**f.fits, "degree_in": None, "degree_out": None},
                          avg_degree=f.avg_degree,
                          return_ratio_corr=f.return_ratio_corr, n_days=f.n_days)
        rep = evaluate(f, self.REF, DetectorConfig())
        assert rep.flags["degree_in_xmin_elevated"] is None
        assert rep.score == 1.0  # 5 evaluable, 5 flagged

    def test_corr_threshold_monotone(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            f = features("T", corr=float(rng.uniform(-0.5, 0.8)))
            loose = evaluate(f, self.REF, DetectorConfig(corr_threshold=0.3))
            tight = evaluate(f, self.REF, DetectorConfig(corr_threshold=0.1))
            if tight.flags["corr_below_threshold"]:
                assert loose.flags["corr_below_threshold"]

    def test_elevation_factor_monotone(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            f = features("T", deg_xmin=int(rng.integers(5, 30)),
                         stren_xmin=int(rng.integers(200, 4000)),
                         avg_degree=float(rng.uniform(20, 120)))
            low = evaluate(f, self.REF, DetectorConfig(elevation_factor=1.0))
            high = evaluate(f, self.REF, DetectorConfig(elevation_factor=1.6))
            for key, flag in high.flags.items():
                if key.endswith("_elevated") and flag:
                    assert low.flags[key]

    def test_evaluate_deterministic(self):
        f = features("T", deg_xmin=40, corr=0.1)
        assert (evaluate(f, self.REF, DetectorConfig())
                == evaluate(f, self.REF, DetectorConfig()))

    def test_report_serializable(self):
        import json
        from dataclasses import asdict
        rep = evaluate(features("T", corr=0.1), self.REF, DetectorConfig())
        payload = json.dumps(asdict(rep), sort_keys=True)
        assert '"verdict"' in payload


NAN, INF = float("nan"), float("inf")


class TestDetectorConfig:
    """Outside these ranges a threshold flags every stock or none."""

    @pytest.mark.parametrize("field, value", [
        ("corr_threshold", NAN), ("corr_threshold", INF), ("corr_threshold", 1.01),
        ("corr_threshold", -1.01),
        ("elevation_factor", NAN), ("elevation_factor", INF), ("elevation_factor", 0.0),
        ("elevation_factor", -1.0),
        ("decision_threshold", NAN), ("decision_threshold", 0.0),
        ("decision_threshold", 1.01), ("decision_threshold", 2.0),
    ])
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must "):
            DetectorConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("corr_threshold", -1.0), ("corr_threshold", 1.0), ("elevation_factor", 1e-9),
        ("decision_threshold", 1.0), ("decision_threshold", 1e-9),
    ])
    def test_bounds_accepted(self, field, value):
        assert getattr(DetectorConfig(**{field: value}), field) == value


class TestDetectCorpus:
    def test_tiny_corpus_flags_the_ring(self):
        spec = CorpusSpec(
            groups=(GroupSpec("mid", "tech", honest=5, manipulated=1),),
            master_seed=77,
            base=SimConfig(n_traders=500, n_days=80, trades_per_day=80.0,
                           n_colluders=60))
        results = generate_corpus(spec)
        logs = {r.log.meta.symbol: r.log for r in results}
        reports = detect_corpus(partial(load_corpus, logs),
                                GofConfig(min_tail_size=30, rng_seed=1), DetectorConfig())
        by_symbol = {r.symbol: r for r in reports}
        truth = {r.log.meta.symbol: r.log.meta.manipulated for r in results}
        manip = [s for s, t in truth.items() if t][0]
        assert by_symbol[manip].verdict
        honest_flags = [by_symbol[s].verdict for s, t in truth.items() if not t]
        assert sum(honest_flags) <= 1

    def test_reports_sorted_and_complete(self):
        spec = CorpusSpec(
            groups=(GroupSpec("mid", "tech", honest=3, manipulated=1),),
            master_seed=5,
            base=SimConfig(n_traders=300, n_days=50, trades_per_day=50.0,
                           n_colluders=40))
        results = generate_corpus(spec)
        logs = {r.log.meta.symbol: r.log for r in results}
        reports = detect_corpus(partial(load_corpus, logs),
                                GofConfig(min_tail_size=30, rng_seed=1), DetectorConfig())
        assert [r.symbol for r in reports] == sorted(logs)

    def test_whole_log_window_reuses_full_period_features(self, monkeypatch):
        spec = CorpusSpec(
            groups=(GroupSpec("mid", "tech", honest=3, manipulated=2, partial=1),),
            master_seed=5,
            base=SimConfig(n_traders=300, n_days=50, trades_per_day=50.0,
                           n_colluders=40))
        logs = {r.log.meta.symbol: r.log for r in generate_corpus(spec)}
        computed = []
        real = detector.compute_features

        def counting(log, *args, **kwargs):
            computed.append(log.meta.symbol)
            return real(log, *args, **kwargs)

        monkeypatch.setattr(detector, "compute_features", counting)
        reports = detect_corpus(partial(load_corpus, logs),
                                GofConfig(min_tail_size=30, rng_seed=1), DetectorConfig())
        assert len(reports) == 5
        # 3 honest stocks over their full period; the full-window stock's
        # window covers its log and theirs, so it adds one computation; the
        # partial-window stock and its 3 members are featurized anew.
        assert len(computed) == 3 + 1 + 4

    def test_member_without_trades_in_the_window_drops_out(self):
        """A reference stock with no trade inside a target's window leaves
        that target's group; with no member left the error names the target."""
        spec = CorpusSpec(
            groups=(GroupSpec("mid", "tech", honest=3, manipulated=1, partial=1),),
            master_seed=5,
            base=SimConfig(n_traders=120, n_days=12, trades_per_day=30.0,
                           n_colluders=20))
        logs = {r.log.meta.symbol: r.log for r in generate_corpus(spec)}
        after = (logs["S003"].meta.manipulation_period[1] + dt.timedelta(days=1),
                 dt.date.max)
        gof, det = GofConfig(min_tail_size=10), DetectorConfig()
        logs["S001"] = filter_period(logs["S001"], after)
        edited = {r.symbol: r for r in detect_corpus(partial(load_corpus, logs), gof, det)}
        without = {r.symbol: r for r in detect_corpus(partial(
            load_corpus, {s: log for s, log in logs.items() if s != "S001"}), gof, det)}
        assert edited["S003"] == without["S003"]
        for s in ("S000", "S002"):
            logs[s] = filter_period(logs[s], after)
        with pytest.raises(ValueError, match="no reference stock of S003"):
            detect_corpus(partial(load_corpus, logs), gof, det)
