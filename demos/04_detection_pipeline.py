"""Full detection pipeline on a labeled synthetic corpus.

Generates two (bucket, sector) cells of stocks with known ground truth,
computes features per stock over the right analysis window, compares each
stock against its reference group, and prints the verdict table.
"""

from functools import partial

from tradenet import (CorpusSpec, DetectorConfig, GofConfig, GroupSpec,
                      SimConfig, detect_corpus, load_corpus)
from tradenet.sim import generate_corpus

spec = CorpusSpec(
    groups=(
        GroupSpec("small", "tech", honest=6, manipulated=1, partial=1),
        GroupSpec("large", "finance", honest=6, manipulated=1),
    ),
    master_seed=99,
    base=SimConfig(n_traders=700, n_days=100, trades_per_day=100.0,
                   n_colluders=80),
)

results = generate_corpus(spec)
logs = {r.log.meta.symbol: r.log for r in results}
truth = {r.log.meta.symbol: r.log.meta.manipulated for r in results}
print(f"generated {len(results)} stocks "
      f"({sum(truth.values())} manipulated, ground truth known)\n")

reports = detect_corpus(partial(load_corpus, logs),
                        GofConfig(min_tail_size=40, rng_seed=3), DetectorConfig())

print(f"{'symbol':>7} {'bucket':>6} {'sector':>8} {'score':>6} "
      f"{'verdict':>8} {'truth':>6}")
hits = 0
for rep in reports:
    meta = logs[rep.symbol].meta
    marker = "*" if rep.verdict == truth[rep.symbol] else "!"
    hits += rep.verdict == truth[rep.symbol]
    print(f"{rep.symbol:>7} {meta.capitalization_bucket:>6} {meta.sector:>8} "
          f"{rep.score:>6.2f} {str(rep.verdict):>8} "
          f"{str(truth[rep.symbol]):>6} {marker}")

print(f"\n{hits}/{len(reports)} verdicts agree with the ground truth")
flagged = [r for r in reports if r.verdict]
if flagged:
    rep = flagged[0]
    print(f"\nflag breakdown for {rep.symbol}:")
    for flag, value in rep.flags.items():
        print(f"  {flag:<32} {value}")
