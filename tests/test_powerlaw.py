from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from brent_oracle import brent_scan_xmin, nll
from powerlaw_helpers import mle_alpha, model_cdf
from tradenet import powerlaw
from tradenet.powerlaw import (ALPHA_MAX, DiscretePowerLaw, GofConfig,
                               ccdf_points, fit_tail, gof_pvalue, ks_distance,
                               ls_ccdf_exponent, scan_xmin, select_xmin)


class TestMleAlpha:
    def test_recovers_synthetic_exponent(self):
        rng = np.random.default_rng(42)
        x = DiscretePowerLaw(2.5, 5).sample(rng, 10_000)
        assert abs(mle_alpha(x, 5) - 2.5) <= 0.1

    def test_matches_closed_form_approximation(self):
        """Numerical optimum vs 1 + n/sum(ln(x/(x_min - 0.5))) within 0.05.

        The approximation itself carries an O(x_min^-2) bias, so the bound is
        checked on its validity region (x_min >= 6); below that the numerical
        optimum is the trustworthy one."""
        for alpha, x_min, seed in [(1.8, 6, 0), (2.5, 6, 1), (3.4, 8, 2)]:
            rng = np.random.default_rng(seed)
            x = DiscretePowerLaw(alpha, x_min).sample(rng, 5000)
            approx = 1.0 + x.size / np.log(x / (x_min - 0.5)).sum()
            assert abs(mle_alpha(x, x_min) - approx) <= 0.05


def brute_force_ks(samples, x_min, alpha):
    """Direct CDF comparison at every observed support value, with the model
    CDF accumulated from the pmf (independent of the zeta-difference route)."""
    arr = np.sort(np.asarray(samples))
    z = float(zeta(alpha, x_min))
    uniq = np.unique(arr)
    worst = 0.0
    cdf = 0.0
    grid = int(x_min)
    for u in uniq:
        while grid <= u:
            cdf += grid ** (-float(alpha)) / z
            grid += 1
        ecdf = np.searchsorted(arr, u, side="right") / arr.size
        worst = max(worst, abs(ecdf - cdf))
    return worst


class TestKsDistance:
    def test_matches_bruteforce_on_random_fits(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            alpha = rng.uniform(1.5, 3.5)
            x_min = int(rng.integers(1, 6))
            x = DiscretePowerLaw(alpha, x_min).sample(rng, 400)
            got = ks_distance(x, x_min, alpha)
            assert got == pytest.approx(brute_force_ks(x, x_min, alpha), abs=1e-9)

    def test_single_distinct_value_spread_model(self):
        x = np.array([5, 5, 5, 5])
        got = ks_distance(x, 5, 2.0)
        assert got == pytest.approx(brute_force_ks(x, 5, 2.0), abs=1e-12)
        # mass the model spreads beyond 5 is exactly the gap at 5
        assert got == pytest.approx(float(zeta(2.0, 6) / zeta(2.0, 5)))

    def test_tail_perturbation_changes_distance(self):
        rng = np.random.default_rng(3)
        x = DiscretePowerLaw(2.2, 3).sample(rng, 300)
        base = ks_distance(x, 3, 2.2)
        x2 = x.copy()
        x2[0] = x.max() * 50
        moved = ks_distance(x2, 3, 2.2)
        assert moved != base
        assert moved == pytest.approx(brute_force_ks(x2, 3, 2.2), abs=1e-9)

    def test_distance_shrinks_with_sample_size(self):
        """Glivenko-Cantelli: median KS decreases over n = 1e3, 1e4, 1e5."""
        model = DiscretePowerLaw(2.5, 2)
        medians = []
        for n in (10**3, 10**4, 10**5):
            ds = []
            for rep in range(5):
                rng = np.random.default_rng(n + rep)
                ds.append(ks_distance(model.sample(rng, n), 2, 2.5))
            medians.append(np.median(ds))
        assert medians[0] > medians[1] > medians[2]


class TestSelectXmin:
    def test_pure_power_law_picks_low_xmin(self):
        model = DiscretePowerLaw(2.5, 1)
        hits = 0
        for t in range(100):
            rng = np.random.default_rng(200 + t)
            fit = select_xmin(model.sample(rng, 3000), GofConfig(min_tail_size=50))
            hits += fit.x_min <= 3
        assert hits >= 90

    def test_spliced_distribution_finds_the_junction(self):
        """Uniform body below 20 glued to a power-law tail from 20."""
        tail_model = DiscretePowerLaw(2.5, 20)
        hits = 0
        for t in range(100):
            rng = np.random.default_rng(400 + t)
            x = np.concatenate([rng.integers(1, 20, size=2500),
                                tail_model.sample(rng, 1500)])
            fit = select_xmin(x, GofConfig(min_tail_size=50))
            hits += 15 <= fit.x_min <= 30
        assert hits >= 90

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="no candidate"):
            select_xmin([1, 2, 3, 4, 5], GofConfig(min_tail_size=50))

    def test_returned_ks_is_scan_minimum(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.integers(1, 15, size=1500),
                            DiscretePowerLaw(2.2, 15).sample(rng, 800)])
        cfg = GofConfig(min_tail_size=50)
        cands, alphas, ks = scan_xmin(x, cfg)
        fit = select_xmin(x, cfg)
        assert fit.ks_distance == ks.min()
        assert fit.x_min == cands[np.argmin(ks)]

    def test_tie_breaks_toward_smaller_xmin(self):
        rng = np.random.default_rng(4)
        x = DiscretePowerLaw(2.5, 1).sample(rng, 2000)
        cfg = GofConfig(min_tail_size=50)
        cands, _, ks = scan_xmin(x, cfg)
        fit = select_xmin(x, cfg)
        at_min = cands[ks == ks.min()]
        assert fit.x_min == at_min.min()

    def test_estimator_consistency_in_n(self):
        """Median |alpha_hat - alpha| decreases over n = 1e3, 1e4, 1e5."""
        medians = []
        for n in (10**3, 10**4, 10**5):
            errs = []
            for rep in range(5):
                rng = np.random.default_rng(1000 * n + rep)
                x = DiscretePowerLaw(2.5, 5).sample(rng, n)
                errs.append(abs(mle_alpha(x, 5) - 2.5))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]

    def test_levy_regime_flag(self):
        rng = np.random.default_rng(15)
        inside = select_xmin(DiscretePowerLaw(2.7, 2).sample(rng, 6000),
                             GofConfig(min_tail_size=50))
        assert 0.0 < inside.ccdf_exponent < 2.0
        assert inside.levy_stable
        outside = select_xmin(DiscretePowerLaw(3.6, 2).sample(rng, 6000),
                              GofConfig(min_tail_size=50))
        assert outside.ccdf_exponent > 2.0
        assert not outside.levy_stable

    def test_log_binned_candidates_close_to_full_scan(self):
        rng = np.random.default_rng(6)
        x = DiscretePowerLaw(2.1, 50).sample(rng, 4000) * 100
        cfg = GofConfig(min_tail_size=50)
        full = select_xmin(x, cfg)
        binned = select_xmin(x, cfg, max_candidates=120)
        assert binned.ks_distance <= 2.0 * full.ks_distance
        assert abs(binned.alpha - full.alpha) <= 0.2

    def test_exponent_pinned_at_upper_bound_is_flagged(self):
        """A tail of 1000 tens and 10 elevens is steeper than alpha = 20
        allows: the likelihood still rises at ALPHA_MAX."""
        x = np.array([10] * 1000 + [11] * 10)
        assert nll(ALPHA_MAX, x, 10) < nll(ALPHA_MAX - 0.01, x, 10)
        fit = select_xmin(x, GofConfig(min_tail_size=50))
        assert fit.x_min == 10
        assert fit.alpha == pytest.approx(ALPHA_MAX, abs=1e-9)
        assert fit.alpha_at_bound
        assert asdict(fit)["alpha_at_bound"] is True

    def test_interior_exponent_not_flagged(self):
        rng = np.random.default_rng(21)
        fit = select_xmin(DiscretePowerLaw(2.5, 3).sample(rng, 3000),
                          GofConfig(min_tail_size=50))
        assert not fit.alpha_at_bound
        assert asdict(fit)["alpha_at_bound"] is False


def power_law_sample(alpha, x_min, n, body_frac, seed):
    """Discrete power law from x_min, plus a uniform body below it."""
    rng = np.random.default_rng(seed)
    tail = DiscretePowerLaw(alpha, x_min).sample(rng, n)
    body = rng.integers(1, x_min, size=int(body_frac * n)) if x_min > 1 else []
    return np.concatenate([tail, body]).astype(np.int64)


samples_strategy = st.builds(
    power_law_sample,
    alpha=st.floats(1.3, 6.0), x_min=st.integers(1, 40),
    n=st.integers(100, 1500), body_frac=st.sampled_from([0.0, 0.5, 1.5]),
    seed=st.integers(0, 2**32 - 1))


class TestBatchedScanMatchesBrent:
    """The batched scan against the scalar bounded-Brent reference."""

    CFG = GofConfig(min_tail_size=50)

    @settings(max_examples=100)
    @given(x=samples_strategy, cap=st.sampled_from([None, 160]))
    def test_scan_matches_oracle(self, x, cap):
        ref_cands, ref_alphas, ref_ks = brent_scan_xmin(x, 50, cap)
        if ref_cands.size == 0:
            with pytest.raises(ValueError, match="no candidate"):
                scan_xmin(x, self.CFG, max_candidates=cap)
            return
        cands, alphas, ks = scan_xmin(x, self.CFG, max_candidates=cap)
        np.testing.assert_array_equal(cands, ref_cands)
        assert np.abs(alphas - ref_alphas).max() <= 2e-6
        assert np.abs(ks - ref_ks).max() <= 1e-6
        for x0, a, ref_a in zip(cands, alphas, ref_alphas):
            tail = x[x >= x0]
            ref = nll(ref_a, tail, int(x0))
            assert nll(a, tail, int(x0)) <= ref + 1e-12 * abs(ref)
        assert cands[np.argmin(ks)] == ref_cands[np.argmin(ref_ks)]

    @settings(max_examples=25)
    @given(x=samples_strategy)
    def test_candidate_independent_of_batch(self, x):
        """Scanning a candidate's tail with min_tail_size = its size leaves it
        the only candidate; its alpha and KS match the full batch exactly."""
        try:
            cands, alphas, ks = scan_xmin(x, self.CFG)
        except ValueError:
            return
        for x0, a, d in zip(cands, alphas, ks):
            tail = x[x >= x0]
            alone = scan_xmin(tail, GofConfig(min_tail_size=tail.size))
            assert alone[0].tolist() == [x0]
            assert alone[1][0] == a
            assert alone[2][0] == d

    def test_large_uncapped_sample_spans_ks_blocks(self, monkeypatch):
        """Candidate supports add up to several KS blocks; the blocked pass
        matches the oracle and a single-block pass."""
        rng = np.random.default_rng(8)
        x = DiscretePowerLaw(1.3, 1).sample(rng, 5000)
        cands, alphas, ks = scan_xmin(x, self.CFG)
        uniq = np.unique(x)
        flat = int((uniq.size - np.searchsorted(uniq, cands)).sum())
        assert flat > 4 * powerlaw.KS_BLOCK
        ref_cands, ref_alphas, ref_ks = brent_scan_xmin(x, 50)
        np.testing.assert_array_equal(cands, ref_cands)
        assert np.abs(alphas - ref_alphas).max() <= 2e-6
        assert np.abs(ks - ref_ks).max() <= 1e-6
        monkeypatch.setattr(powerlaw, "KS_BLOCK", flat)
        np.testing.assert_array_equal(scan_xmin(x, self.CFG)[2], ks)


class TestGof:
    def test_pvalue_deterministic_under_seed(self):
        rng = np.random.default_rng(9)
        x = DiscretePowerLaw(2.4, 1).sample(rng, 600)
        cfg = GofConfig(bootstrap_replicas=60, rng_seed=123, min_tail_size=50)
        fit = select_xmin(x, cfg)
        p1 = gof_pvalue(x, fit, cfg)
        p2 = gof_pvalue(x, fit, cfg)
        assert p1 == p2

    def test_different_seeds_usually_differ(self):
        rng = np.random.default_rng(9)
        x = DiscretePowerLaw(2.4, 1).sample(rng, 600)
        fit = select_xmin(x, GofConfig(min_tail_size=50))
        ps = {gof_pvalue(x, fit, GofConfig(bootstrap_replicas=60, rng_seed=s,
                                           min_tail_size=50))
              for s in range(5)}
        assert len(ps) > 1

    def test_fit_tail_attaches_pvalue(self):
        rng = np.random.default_rng(31)
        x = DiscretePowerLaw(2.5, 1).sample(rng, 800)
        cfg = GofConfig(bootstrap_replicas=50, rng_seed=2, min_tail_size=50)
        fit = fit_tail(x, cfg)
        assert fit.p_value is not None and 0.0 <= fit.p_value <= 1.0
        skipped = fit_tail(x, replace(cfg, bootstrap_replicas=0))
        assert skipped.p_value is None
        assert skipped.x_min == fit.x_min

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GofConfig(bootstrap_replicas=-1)
        with pytest.raises(ValueError):
            GofConfig(min_tail_size=0)


class TestSampler:
    def test_sampler_respects_lower_bound(self):
        rng = np.random.default_rng(0)
        x = DiscretePowerLaw(1.6, 9).sample(rng, 5000)
        assert x.min() >= 9

    def test_sampler_matches_model_cdf(self):
        model = DiscretePowerLaw(2.5, 3)
        rng = np.random.default_rng(1)
        x = model.sample(rng, 100_000)
        for q in (3, 5, 10, 40):
            emp = (x <= q).mean()
            assert emp == pytest.approx(float(model_cdf(model, q)), abs=0.01)

    def test_far_tail_reachable_for_heavy_exponent(self):
        rng = np.random.default_rng(5)
        x = DiscretePowerLaw(1.5, 1, table_size=64).sample(rng, 20_000)
        assert x.max() > 64  # bisection beyond the table

    def test_ccdf_points(self):
        xs, cc = ccdf_points([1, 1, 2, 5])
        assert list(xs) == [1, 2, 5]
        assert list(cc) == [1.0, 0.5, 0.25]


def test_ls_ccdf_exponent_labeled_secondary():
    """The least-squares route tracks the CCDF slope on clean data."""
    rng = np.random.default_rng(10)
    x = DiscretePowerLaw(2.5, 5).sample(rng, 20_000)
    est = ls_ccdf_exponent(x, 5)
    assert est == pytest.approx(1.5, abs=0.35)
