from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from brent_oracle import brent_scan_xmin, nll
from powerlaw_helpers import (far_tail_oracle, full_ks_scan, gof_pvalue_oracle,
                              ks_distance, mle_alpha, model_cdf)
from tradenet import powerlaw
from tradenet.powerlaw import (ALPHA_MAX, ALPHA_MIN, ALPHA_XTOL, DiscretePowerLaw,
                               GofConfig, _ks_scan, _solve_alpha, ccdf_points,
                               fit_tail, gof_pvalue, scan_xmin, select_xmin)


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

    def test_underflowing_normaliser_reads_inf(self):
        """A bootstrap replica of a tail at alpha = 1.056 fits alpha = 18.28
        at x_min = 4.5e18, where zeta(alpha, x_min) underflows to 0: that
        candidate reads KS = inf, with no 0 / 0, and is never picked."""
        x = DiscretePowerLaw(1.05, 1).sample(np.random.default_rng(1), 2000)
        cfg = GofConfig(min_tail_size=50)
        fit = select_xmin(x, cfg)
        seed = np.random.SeedSequence(3).spawn(1)[0]
        replica = DiscretePowerLaw(fit.alpha, 1).sample(np.random.default_rng(seed), 2000)
        cands, alphas, ks = scan_xmin(replica, cfg)
        lost = zeta(alphas, cands.astype(float)) == 0.0
        assert lost.any()
        np.testing.assert_array_equal(np.isinf(ks), lost)
        assert not np.isnan(ks).any()
        refit = select_xmin(replica, cfg)
        assert refit.ks_distance == ks.min() < np.inf
        # The tail above that candidate, with no smaller candidate allowed,
        # leaves no finite KS to pick.
        tail = replica[replica >= cands[lost][0]]
        with pytest.raises(ValueError, match="finite KS"):
            select_xmin(tail, GofConfig(min_tail_size=tail.size))

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

    @pytest.mark.xfail(strict=True, reason="zeta(alpha, x_min) underflows near "
                       "x_min = 1e18 and sets the exponent; a log-space zeta mends it")
    @pytest.mark.parametrize("base", [10**18, 2 * 10**18, 4 * 10**18])
    def test_exponent_past_zeta_underflow_reaches_the_bound(self, base):
        """Sixty values at base and one 1e16 above it: the closed-form
        estimate is about 6,100, so the likelihood rises all the way to
        ALPHA_MAX.  The scan is checked, not select_xmin, which raises once
        zeta(ALPHA_MAX, base) underflows."""
        cands, alphas, _ = scan_xmin([base] * 60 + [base + 10**16],
                                     GofConfig(min_tail_size=50))
        assert cands.tolist() == [base]
        assert ALPHA_MAX - alphas[0] <= ALPHA_XTOL


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


def ks_case(n_values, top, n_fits, alpha_kind, seed):
    """Inputs of _ks_scan: distinct support values log-uniform in [1, top],
    their counts, n_fits start indices and each fit's (x_min, alpha)."""
    rng = np.random.default_rng(seed)
    uniq = np.unique(np.rint(np.exp(rng.uniform(0.0, np.log(top), n_values))))
    counts = rng.geometric(rng.uniform(0.05, 1.0), uniq.size)
    if uniq.size == 1:
        first = np.zeros(1, dtype=np.int64)
    else:
        first = np.sort(rng.choice(uniq.size - 1, min(n_fits, uniq.size - 1),
                                   replace=False))
    if alpha_kind == "fitted":
        tail_sizes = np.cumsum(counts[::-1])[::-1]
        log_sums = np.cumsum((counts * np.log(uniq))[::-1])[::-1]
        alphas = _solve_alpha(log_sums[first], tail_sizes[first], uniq[first])
    else:
        alphas = {"min": np.full(first.size, ALPHA_MIN),
                  "max": np.full(first.size, ALPHA_MAX),
                  "uniform": rng.uniform(ALPHA_MIN, ALPHA_MAX, first.size)}[alpha_kind]
    return uniq, np.cumsum(counts), first, uniq[first], alphas


ks_cases = st.builds(
    ks_case, n_values=st.integers(1, 400),
    top=st.sampled_from([10.0, 1e3, 1e6, 1e9, 1e12]), n_fits=st.integers(1, 40),
    alpha_kind=st.sampled_from(["fitted", "min", "max", "uniform"]),
    seed=st.integers(0, 2**32 - 1))


def interior_max_case():
    """A tail over 1..20 whose KS maximum lies strictly between pivots: the
    power-law counts with a spike at 5 put the largest gap at 4."""
    uniq = np.arange(1.0, 21.0)
    counts = np.maximum(1, np.rint(uniq ** -2.5 / zeta(2.5, 1) * 2000)).astype(np.int64)
    counts[4] += 60
    return uniq, np.cumsum(counts), np.zeros(1, dtype=np.int64), np.ones(1), np.full(1, 2.5)


class TestBracketedKsPass:
    """The bracketed KS pass against the full pass that evaluates zeta at
    every support value: equal bit for bit."""

    @settings(max_examples=300)
    @given(case=ks_cases)
    def test_matches_full_pass(self, case):
        np.testing.assert_array_equal(_ks_scan(*case), full_ks_scan(*case))

    @pytest.mark.parametrize("alpha", [ALPHA_MIN, 1.0001, 2.5, ALPHA_MAX])
    @pytest.mark.parametrize("top", [1e3, 1e12])
    def test_exponent_bounds_and_wide_supports(self, alpha, top):
        for seed in range(10):
            uniq, cum, first, x_mins, _ = ks_case(300, top, 30, "fitted", seed)
            alphas = np.full(first.size, alpha)
            np.testing.assert_array_equal(_ks_scan(uniq, cum, first, x_mins, alphas),
                                          full_ks_scan(uniq, cum, first, x_mins, alphas))

    def test_two_value_tails(self):
        for seed in range(20):
            case = ks_case(2, 1e6, 1, "fitted", seed)
            np.testing.assert_array_equal(_ks_scan(*case), full_ks_scan(*case))
        uniq, cum = np.array([3.0, 1e12]), np.array([5, 6])
        for alpha in (ALPHA_MIN, 2.0, ALPHA_MAX):
            case = (uniq, cum, np.zeros(1, dtype=np.int64), uniq[:1], np.array([alpha]))
            np.testing.assert_array_equal(_ks_scan(*case), full_ks_scan(*case))

    def test_values_sharing_a_float(self):
        """Distinct values above 2**53 that round to one float: their model
        CDF is one value, and no bracket divides by a zero width."""
        x = np.concatenate([np.arange(1, 1500), 2**60 + np.arange(3000)])
        uniq, counts = np.unique(x, return_counts=True)
        uniq = uniq.astype(float)
        first = np.array([0, 1000, 1499])
        alphas = np.array([1.0001, 1.5, ALPHA_MIN])
        case = (uniq, np.cumsum(counts), first, uniq[first], alphas)
        with np.errstate(all="raise"):
            got = _ks_scan(*case)
        np.testing.assert_array_equal(got, full_ks_scan(*case))

    @pytest.mark.parametrize("uniq, heavy", [
        pytest.param(np.concatenate([np.arange(1, 9), 2**60 + spacing * np.arange(9),
                                     2**61 + 2**58 * np.arange(7), [2**62 - 1]]), -1,
                     id=f"then-rise-{spacing}")
        for spacing in (1, 256, 512)
    ] + [
        pytest.param(np.concatenate([np.arange(1, 9), 2**57 + 2**54 * np.arange(8),
                                     2**60 + 4096 + 256 * np.arange(9)]), 16,
                     id="after-rise"),
    ])
    def test_narrow_rows(self, uniq, heavy):
        """Nine values from 2**60 make a narrow row: one float (spacing 1),
        or 2,048 or 4,096 wide with equal model CDFs at its ends as computed,
        or 2,048 wide from 2**60 + 4096 with end CDFs one rounding step
        apart, far more than F's true rise.  The maximum lies inside the
        wide row next to it, so no chord of the narrow row may be extended
        over that row as it is computed."""
        uniq = uniq.astype(float)
        counts = np.ones(uniq.size, dtype=np.int64)
        counts[heavy] = 10**7
        cum = np.cumsum(counts)
        model = 1.0 - zeta(1.02, uniq + 1.0) / zeta(1.02, 1.0)
        assert int(np.argmax(np.abs(cum / cum[-1] - model))) % powerlaw.KS_STRIDE
        case = (uniq, cum, np.zeros(1, dtype=np.int64), uniq[:1], np.array([1.02]))
        with np.errstate(all="raise"):
            got = _ks_scan(*case)
        np.testing.assert_array_equal(got, full_ks_scan(*case))

    def test_maximum_strictly_between_pivots(self):
        uniq, cum, first, x_mins, alphas = interior_max_case()
        ecdf = cum / cum[-1]
        gaps = np.abs(ecdf - (1.0 - zeta(2.5, uniq + 1.0) / zeta(2.5, 1.0)))
        peak = int(np.argmax(gaps))
        assert peak % powerlaw.KS_STRIDE and peak != uniq.size - 1
        got = _ks_scan(uniq, cum, first, x_mins, alphas)
        assert got[0] == gaps[peak]
        np.testing.assert_array_equal(got, full_ks_scan(uniq, cum, first, x_mins, alphas))

    def test_interior_maximum_a_hair_above_a_pivot(self):
        """Near alpha = 2.32 the largest gap moves from the pivot at 1 to the
        value 5.  Bisect alpha until value 5 leads by under 1e-10: the pass
        must still evaluate it, however tight its bracket."""
        uniq, cum, first, x_mins, _ = interior_max_case()
        ecdf = cum / cum[-1]

        def gaps(alpha):
            return np.abs(ecdf - (1.0 - zeta(alpha, uniq + 1.0) / zeta(alpha, 1.0)))

        lo, hi = 2.3, 2.35
        while True:
            lead = gaps(hi)[4] - gaps(hi)[0]
            if lead < 1e-10:
                break
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if gaps(mid)[4] > gaps(mid)[0] else (mid, hi)
        assert lead > 0.0 and int(np.argmax(gaps(hi))) == 4
        alphas = np.full(1, hi)
        got = _ks_scan(uniq, cum, first, x_mins, alphas)
        assert got[0] == gaps(hi)[4]
        np.testing.assert_array_equal(got, full_ks_scan(uniq, cum, first, x_mins, alphas))

    @settings(max_examples=50)
    @given(case=ks_cases, block=st.integers(1, 64))
    def test_small_blocks(self, case, block):
        """Blocks of a few rows put the fits of one scan in many blocks."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(powerlaw, "KS_BLOCK", block)
            np.testing.assert_array_equal(_ks_scan(*case), full_ks_scan(*case))

    def test_evaluates_a_fraction_of_the_support(self, monkeypatch):
        """On a realistic scan the brackets leave most support values
        without a zeta call."""
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.integers(1, 10, 2000),
                            DiscretePowerLaw(2.2, 10).sample(rng, 3000)])
        cands, alphas, ks = scan_xmin(x, GofConfig(min_tail_size=50))
        uniq, counts = np.unique(x, return_counts=True)
        uniq = uniq.astype(float)
        first = np.searchsorted(uniq, cands)
        evaluated = []
        real = powerlaw._zeta
        monkeypatch.setattr(powerlaw, "_zeta",
                            lambda a, q: evaluated.append(np.size(q)) or real(a, q))
        got = _ks_scan(uniq, np.cumsum(counts), first, uniq[first], alphas)
        np.testing.assert_array_equal(got, ks)
        assert sum(evaluated) < 0.5 * (uniq.size - first).sum()


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

    @settings(max_examples=30)
    @given(x=samples_strategy, replicas=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), cap=st.sampled_from([None, 40]))
    def test_pvalue_matches_replica_loop(self, x, replicas, seed, cap):
        cfg = GofConfig(bootstrap_replicas=replicas, rng_seed=seed, min_tail_size=50)
        try:
            fit = select_xmin(x, cfg, max_candidates=cap)
        except ValueError:
            return
        assert (gof_pvalue(x, fit, cfg, max_candidates=cap)
                == gof_pvalue_oracle(x, fit, cfg, max_candidates=cap))

    def test_degenerate_replicas_match_replica_loop(self, monkeypatch):
        """Sixty fives and one six fit an exponent at ALPHA_MAX: some replicas
        hold only fives and cannot be refit, and count as hits."""
        x = np.array([5] * 60 + [6])
        cfg = GofConfig(bootstrap_replicas=40, rng_seed=5, min_tail_size=50)
        fit = select_xmin(x, cfg)
        expected = gof_pvalue_oracle(x, fit, cfg)
        failed = []
        real = powerlaw.select_xmin

        def counting(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except ValueError:
                failed.append(1)
                raise
        monkeypatch.setattr(powerlaw, "select_xmin", counting)
        assert gof_pvalue(x, fit, cfg) == expected
        assert 0 < len(failed) < cfg.bootstrap_replicas

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
        model = DiscretePowerLaw(1.5, 1)
        x = model.sample(rng, 20_000)
        assert x.max() > model._table_hi  # bisection beyond the table

    @pytest.mark.parametrize("alpha, x_min", [(1.5, 1), (1.2, 50)])
    def test_sample_inverts_its_own_uniforms(self, alpha, x_min):
        """A draw of n samples takes the generator's next n uniforms and no
        more, and maps each to the smallest x whose model CDF reaches it: by
        the CDF inside the table, by the far-tail search beyond it."""
        model = DiscretePowerLaw(alpha, x_min)
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        x = model.sample(rng, 20_000)
        u = twin.random(20_000)
        assert rng.random() == twin.random()
        inside = x <= model._table_hi
        assert inside.any() and not inside.all()
        xi, ui = x[inside], u[inside]
        assert np.all(model_cdf(model, xi) >= ui)
        assert np.all(model_cdf(model, xi - 1) < ui)
        far = (1.0 - u[~inside]) * zeta(alpha, x_min)
        np.testing.assert_array_equal(x[~inside], far_tail_oracle(model, far))

    def test_ccdf_points(self):
        xs, cc = ccdf_points([1, 1, 2, 5])
        assert list(xs) == [1, 2, 5]
        assert list(cc) == [1.0, 0.5, 0.25]


class TestFarTail:
    """The far-tail inversion against the doubling-and-bisection search it
    starts ahead of."""

    @settings(max_examples=200)
    @given(alpha=st.floats(ALPHA_MIN, ALPHA_MAX), x_min=st.integers(1, 10**6),
           seed=st.integers(0, 2**32 - 1))
    @example(alpha=ALPHA_MIN, x_min=1, seed=0)
    @example(alpha=1.05, x_min=10**6, seed=0)
    @example(alpha=ALPHA_MAX, x_min=1, seed=0)
    def test_far_tail_matches_search(self, alpha, x_min, seed):
        """The far-tail inversion gives what the doubling-and-bisection
        search gives, on log-uniform targets from just below zeta(alpha,
        x_min) down past zeta(alpha, 2**62 + 1), or down to 2**-60 of
        zeta(alpha, x_min) where that underflows."""
        model = DiscretePowerLaw(alpha, x_min)
        top = float(zeta(alpha, x_min))
        cap = float(zeta(alpha, 2.0**62 + 1))
        low = np.log(cap) - 1.0 if cap > 0 else np.log(top) - 60 * np.log(2)
        rng = np.random.default_rng(seed)
        targets = np.exp(rng.uniform(low, np.log(top), 300))
        targets = np.concatenate((targets[targets < top], [np.nextafter(top, 0.0)],
                                  [cap, np.nextafter(cap, 0.0)] if cap > 0 else []))
        assert np.array_equal(model._far_tail(targets), far_tail_oracle(model, targets))

    @pytest.mark.parametrize("alpha", [ALPHA_MIN, 1.0 + 1e-4, 1.01])
    def test_far_tail_capped_row(self, alpha):
        """Near alpha = 1 a target below zeta(alpha, 2**62 + 1) reaches no x
        under the cap, and its draw is _HI_CAP, as the search gives."""
        model = DiscretePowerLaw(alpha, 1)
        cap = float(zeta(alpha, 2.0**62 + 1))
        targets = np.array([np.nextafter(cap, 0.0), 0.5 * cap, 1e-3 * cap])
        assert np.all(model._far_tail(targets) == model._HI_CAP)
        assert np.array_equal(far_tail_oracle(model, targets), model._far_tail(targets))
