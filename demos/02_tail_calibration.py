"""Calibrate power-law tails: exponent recovery and goodness of fit.

Draws from a known discrete power law, recovers (x_min, alpha) with the
KS-minimizing scan, attaches a bootstrap p-value, then shows the same test
firmly rejecting exponential data.
"""

import numpy as np

from tradenet import DiscretePowerLaw, GofConfig, fit_tail

rng = np.random.default_rng(7)
cfg = GofConfig(bootstrap_replicas=200, rng_seed=1, min_tail_size=50)

print("== synthetic power law (alpha=2.5, x_min=5, n=10000) ==")
x = DiscretePowerLaw(2.5, 5).sample(rng, 10_000)
fit = fit_tail(x, cfg)
print(f"recovered x_min={fit.x_min}, alpha={fit.alpha:.3f} "
      f"(ccdf exponent {fit.ccdf_exponent:.3f})")
print(f"tail size {fit.n_tail}, KS distance {fit.ks_distance:.4f}, "
      f"bootstrap p={fit.p_value:.3f}")
print(f"Levy-stable regime (ccdf exponent in (0,2)): {fit.levy_stable}")

print("\n== exponential data dressed as a tail (n=5000) ==")
y = np.ceil(rng.exponential(scale=8.0, size=5000)).astype(np.int64)
# keep the scan from retreating into a tiny far tail: floor at 10% of n
bad = fit_tail(y, GofConfig(bootstrap_replicas=200, rng_seed=2,
                            min_tail_size=500))
print(f"best power-law window: x_min={bad.x_min}, alpha={bad.alpha:.2f}, "
      f"KS={bad.ks_distance:.4f}")
print(f"bootstrap p={bad.p_value:.3f} -> "
      f"{'rejected' if bad.p_value < 0.01 else 'not rejected'} at the 0.01 level")
