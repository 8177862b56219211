"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them on
success).  Synthetic scales are desk-sized; seeds are frozen so the whole
gate is reproducible.
"""

import math
import time
from functools import partial

import numpy as np
from scipy.special import zeta

from line_oracle import build_log
from powerlaw_helpers import ks_distance
from tradenet.cli import main
from tradenet.detector import DetectorConfig, detect_corpus
from tradenet.features import pearson_corr, tail_samples
from tradenet.ingest import load_corpus
from tradenet.network import (build_network, degree_sequences,
                              strength_sequences)
from tradenet.powerlaw import DiscretePowerLaw, GofConfig, fit_tail
from tradenet.sim import CorpusSpec, GroupSpec, SimConfig, generate_corpus, simulate


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_fitter_recovery():
    """alpha within 0.1 and x_min within [3, 10] for 90% of 50 trials, <60s."""
    model = DiscretePowerLaw(2.5, 5)
    t0 = time.perf_counter()
    hits = 0
    for trial in range(50):
        rng = np.random.default_rng(90_000 + trial)
        x = model.sample(rng, 10_000)
        fit = fit_tail(x, GofConfig(rng_seed=trial, min_tail_size=50,
                                    bootstrap_replicas=0))
        hits += (abs(fit.alpha - 2.5) <= 0.1 and 3 <= fit.x_min <= 10)
    elapsed = time.perf_counter() - t0
    ok = hits >= 45 and elapsed < 60.0
    report(1, "fitter recovery", ok, f"{hits}/50 recovered, {elapsed:.1f}s")
    assert hits >= 45
    assert elapsed < 60.0


def test_criterion_2_gof_calibration():
    """H0 rejection rate at level 0.1 in [0.02, 0.25] over 100 trials;
    exponential data (n=5000) rejected at 0.01 in 90% of trials; <10min.

    The oracle keeps the x_min scan away from vanishing tails by floored
    min_tail_size = n/10, the regime where the bootstrap has its nominal
    power."""
    t0 = time.perf_counter()
    model = DiscretePowerLaw(2.5, 1)
    rejected = 0
    for trial in range(100):
        rng = np.random.default_rng(50_000 + trial)
        x = model.sample(rng, 1000)
        cfg = GofConfig(bootstrap_replicas=250, rng_seed=60_000 + trial,
                        min_tail_size=100)
        rejected += fit_tail(x, cfg).p_value < 0.1

    low = 0
    for trial in range(20):
        rng = np.random.default_rng(70_000 + trial)
        x = np.ceil(rng.exponential(scale=8.0, size=5000)).astype(np.int64)
        cfg = GofConfig(bootstrap_replicas=250, rng_seed=80_000 + trial,
                        min_tail_size=500)
        low += fit_tail(x, cfg).p_value < 0.01
    elapsed = time.perf_counter() - t0

    rate = rejected / 100
    ok = 0.02 <= rate <= 0.25 and low >= 18 and elapsed < 600.0
    report(2, "gof calibration", ok,
           f"H0 rejection {rate:.2f}, exponential {low}/20 rejected, {elapsed:.0f}s")
    assert 0.02 <= rate <= 0.25
    assert low >= 18
    assert elapsed < 600.0


def test_criterion_3_network_conservation():
    """Exact integer handshakes on every simulated log; permutation
    invariance of build_network over 20 shuffles."""
    configs = [SimConfig(rng_seed=s, n_traders=150 + 40 * s, n_days=20,
                         trades_per_day=30.0, n_colluders=30,
                         manipulated=(s % 2 == 1)) for s in range(6)]
    for cfg in configs:
        log = simulate(cfg).log
        net = build_network(log)
        deg = degree_sequences(net)
        stren = strength_sequences(net)
        assert int(deg.in_deg.sum()) == int(deg.out_deg.sum()) == net.edge_count
        assert int(stren.s_in.sum()) == int(stren.s_out.sum()) == int(log.volumes.sum())

    log = simulate(configs[0]).log
    base = build_network(log)
    accounts = np.asarray(log.accounts)
    txn_ids = np.asarray(log.txn_names)
    rng = np.random.default_rng(1)
    for _ in range(20):
        perm = rng.permutation(log.n_records)
        shuffled = build_log(log.meta, log.dates[perm], log.times[perm],
                             txn_ids[log.txns[perm]], accounts[log.buyers[perm]],
                             accounts[log.sellers[perm]], log.volumes[perm],
                             log.prices[perm])
        net = build_network(shuffled)
        assert np.array_equal(net.edge_sellers, base.edge_sellers)
        assert np.array_equal(net.edge_buyers, base.edge_buyers)
        assert np.array_equal(net.edge_weights, base.edge_weights)
    report(3, "network conservation", True,
           "6 logs exact, 20 shuffles invariant")


def test_criterion_4_oracle_equivalence():
    """pearson_corr within 1e-12 of a two-pass fsum oracle on 1000 random
    instances; ks_distance equal to a brute-force CDF comparison over the
    observed support for 100 random fits."""
    rng = np.random.default_rng(2024)
    worst_corr = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + rng.uniform(-1, 1) * x
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        got = pearson_corr(x, y)
        mx = math.fsum(x) / n
        my = math.fsum(y) / n
        num = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
        den = math.sqrt(math.fsum((a - mx) ** 2 for a in x)
                        * math.fsum((b - my) ** 2 for b in y))
        worst_corr = max(worst_corr, abs(got - num / den))
    assert worst_corr <= 1e-12

    worst_ks = 0.0
    for trial in range(100):
        alpha = float(rng.uniform(1.5, 3.5))
        x_min = int(rng.integers(1, 8))
        x = DiscretePowerLaw(alpha, x_min).sample(rng, int(rng.integers(50, 500)))
        got = ks_distance(x, x_min, alpha)
        # oracle: cumulative pmf model CDF + counting ECDF per support point
        z = float(zeta(alpha, x_min))
        xs = np.sort(x)
        cdf = 0.0
        grid = x_min
        brute = 0.0
        for u in np.unique(xs):
            while grid <= u:
                cdf += grid ** (-alpha) / z
                grid += 1
            ecdf = np.searchsorted(xs, u, side="right") / xs.size
            brute = max(brute, abs(ecdf - cdf))
        worst_ks = max(worst_ks, abs(got - brute))
    ok = worst_corr <= 1e-12 and worst_ks <= 1e-9
    report(4, "oracle equivalence", ok,
           f"pearson dev {worst_corr:.1e}, ks dev {worst_ks:.1e}")
    assert worst_ks <= 1e-9


def test_criterion_5_honest_tails_power_law():
    """Honest sims: all five tails pass GoF at 0.01 in 80% of 20 seeds and
    the CCDF exponent lies in the Levy regime (0, 2) in 70% of fits."""
    t0 = time.perf_counter()
    seeds_passing = 0
    levy = 0
    total_fits = 0
    for seed in range(20):
        cfg = GofConfig(bootstrap_replicas=100, rng_seed=10_000 + seed,
                        min_tail_size=50)
        res = simulate(SimConfig(rng_seed=seed, n_traders=1500,
                                 trades_per_day=220.0))
        pvals = []
        for s, max_cands in tail_samples(build_network(res.log)).values():
            fit = fit_tail(s, cfg, max_candidates=max_cands)
            pvals.append(fit.p_value)
            levy += fit.levy_stable
            total_fits += 1
        seeds_passing += all(p >= 0.01 for p in pvals)
    elapsed = time.perf_counter() - t0
    levy_frac = levy / total_fits
    ok = seeds_passing >= 16 and levy_frac >= 0.70
    report(5, "honest power-law tails", ok,
           f"{seeds_passing}/20 seeds pass GoF, Levy fraction {levy_frac:.2f}, "
           f"{elapsed:.0f}s")
    assert seeds_passing >= 16
    assert levy_frac >= 0.70


def test_criterion_6_manipulation_separation():
    """40 honest + 8 manipulated corpus: correlation split, average-degree
    split, x_min elevation on 4 of 5 statistics on average, and detector
    precision/recall of 0.75, inside 15 minutes."""
    t0 = time.perf_counter()
    groups = (
        GroupSpec("small", "tech", honest=10, manipulated=2, partial=1),
        GroupSpec("small", "finance", honest=10, manipulated=2, partial=1),
        GroupSpec("large", "tech", honest=10, manipulated=2, partial=1),
        GroupSpec("large", "finance", honest=10, manipulated=2, partial=0),
    )
    spec = CorpusSpec(groups=groups, master_seed=2004,
                      base=SimConfig(n_traders=1200, trades_per_day=150.0))
    results = generate_corpus(spec)
    assert len(results) == 48
    logs = {r.log.meta.symbol: r.log for r in results}
    truth = {r.log.meta.symbol: r.log.meta.manipulated for r in results}

    reports = detect_corpus(partial(load_corpus, logs),
                            GofConfig(min_tail_size=50, rng_seed=5), DetectorConfig())
    by_symbol = {r.symbol: r for r in reports}

    # (a) correlation split
    manip_corr = [by_symbol[s].target_values["return_ratio_corr"]
                  for s, t in truth.items() if t]
    honest_corr = [by_symbol[s].target_values["return_ratio_corr"]
                   for s, t in truth.items() if not t]
    corr_ok = (all(c is not None and c < 0.2 for c in manip_corr)
               and np.mean([c is not None and c > 0.2 for c in honest_corr]) >= 0.8)

    # (b) average-degree split
    med_m = np.median([by_symbol[s].target_values["avg_degree"]
                       for s, t in truth.items() if t])
    med_h = np.median([by_symbol[s].target_values["avg_degree"]
                       for s, t in truth.items() if not t])
    degree_ok = med_m > med_h

    # (c) x_min elevation vs matched reference means
    xmin_keys = ("degree_in_xmin", "degree_out_xmin", "strength_in_xmin",
                 "strength_out_xmin", "strength_total_xmin")
    elevated = []
    for s, t in truth.items():
        if not t:
            continue
        rep = by_symbol[s]
        elevated.append(sum(
            1 for k in xmin_keys
            if rep.target_values[k] is not None
            and rep.reference_values[k] is not None
            and rep.target_values[k] > rep.reference_values[k]))
    elevation_ok = np.mean(elevated) >= 4.0

    # (d) confusion matrix
    tp = sum(1 for s, t in truth.items() if t and by_symbol[s].verdict)
    fp = sum(1 for s, t in truth.items() if not t and by_symbol[s].verdict)
    fn = sum(1 for s, t in truth.items() if t and not by_symbol[s].verdict)
    precision = tp / max(tp + fp, 1)
    recall = tp / max(tp + fn, 1)
    detector_ok = precision >= 0.75 and recall >= 0.75

    elapsed = time.perf_counter() - t0
    ok = corr_ok and degree_ok and elevation_ok and detector_ok and elapsed < 900
    report(6, "manipulation separation", ok,
           f"corr split {'ok' if corr_ok else 'FAIL'}, "
           f"avg degree {med_m:.0f} vs {med_h:.0f}, "
           f"elevated {np.mean(elevated):.2f}/5, "
           f"precision {precision:.2f}, recall {recall:.2f}, {elapsed:.0f}s")
    assert corr_ok, (manip_corr, honest_corr)
    assert degree_ok, (med_m, med_h)
    assert elevation_ok, elevated
    assert detector_ok, (precision, recall)
    assert elapsed < 900


def test_criterion_7_pipeline_determinism(tmp_path):
    """Two identically seeded pipeline runs emit byte-identical fits/,
    features.csv, and reports.json."""
    sim_args = ["--honest", "4", "--manipulated", "1", "--seed", "11",
                "--traders", "300", "--trades-per-day", "50", "--days", "40",
                "--colluders", "40"]
    run_args = ["--bootstrap", "20", "--min-tail", "30", "--seed", "9"]
    artifacts = {}
    for tag in ("a", "b"):
        corpus = tmp_path / f"corpus_{tag}"
        out = tmp_path / f"out_{tag}"
        assert main(["simulate", "--out", str(corpus), *sim_args]) == 0
        assert main(["fit", "--corpus", str(corpus), "--out", str(out),
                     *run_args]) == 0
        assert main(["features", "--corpus", str(corpus), "--out", str(out),
                     *run_args]) == 0
        rc = main(["detect", "--corpus", str(corpus), "--out", str(out),
                   "--bootstrap", "0", "--min-tail", "30"])
        assert rc in (0, 1)
        artifacts[tag] = {
            "fits": {p.name: p.read_bytes()
                     for p in sorted((out / "fits").glob("*.json"))},
            "features": (out / "features.csv").read_bytes(),
            "reports": (out / "reports.json").read_bytes(),
        }
    identical = artifacts["a"] == artifacts["b"]
    report(7, "pipeline determinism", identical,
           f"{len(artifacts['a']['fits'])} fit files + features.csv + reports.json")
    assert identical
