"""
What a stealthy attacker gains from a loose threshold
=====================================================

An attacker who can read and overwrite the sensors can pin the detector
statistic to any value at or below the threshold and never raise an
alarm.  The states such an attacker can drag the plant into are
outer-bounded by a Minkowski sum of ellipsoids, and the bound shrinks
monotonically as the threshold tightens — this is the security payoff
of the moment-tuned thresholds from the previous demos.
"""

import numpy as np

from drdetect import (
    AttackPolicy,
    NoiseFamily,
    NoiseModel,
    benchmark_system,
    noise_threshold,
    reach_bound,
    simulate,
    volume_comparison,
)

sys = benchmark_system()

# ---------------------------------------------------------------------------
# The zero-alarm attack: delta_t = -C e_t - v_t + sigma_r^{1/2} d, with
# |d|^2 = alpha.  The residual statistic then sits exactly at alpha at
# every step, and the detector stays silent for ten thousand steps.

alpha = 9.1315  # the k=4 tuned threshold
w = NoiseModel(NoiseFamily.GAUSSIAN, sys.sigma_w, seed=21)
v = NoiseModel(NoiseFamily.GAUSSIAN, sys.sigma_v, seed=22)
policy = AttackPolicy(alpha=alpha, direction=np.array([1.0, 0.0]))
trace = simulate(sys, w, v, 10_000, attack=policy, keep_states=True)
quiet = simulate(sys, w, v, 10_000, keep_states=True)
print(f"attack at alpha={alpha}: max q = {trace.q_values.max():.6f}, "
      f"alarms = {int((trace.q_values > alpha).sum())}")
print(f"max |x| without attack {np.linalg.norm(quiet.states, axis=1).max():.2f}, "
      f"under attack {np.linalg.norm(trace.states, axis=1).max():.2f}")

# ---------------------------------------------------------------------------
# Reachable-set outer bounds at horizon 50.  The disturbance level
# w_bar = n/rate covers 95% of the process noise by the same two-moment
# argument used for the detector.  Each bound is sampled by its support
# values along 256 directions; their support lines cut out a polygon that
# holds the reachable set, and its area and largest vertex norm bound the
# set's area and extent from outside.

w_bar = noise_threshold(sys.n, 0.05)
print(f"\ndisturbance level w_bar = {w_bar}")

thresholds = {
    "robust k=1": 40.0,
    "robust k=2": 10.7178,
    "robust k=4": 9.1315,
    "chi-squared": 5.9915,
}
bounds = {name: reach_bound(sys, w_bar, a, t=50, n_dirs=256)
          for name, a in thresholds.items()}

print(f"{'threshold':>12} {'alpha':>9} {'bound area':>11} {'max |x|':>9}")
for name, rb in bounds.items():
    extent = np.linalg.norm(rb.boundary, axis=1).max()
    print(f"{name:>12} {rb.alpha:>9.4f} {rb.area:>11.4f} {extent:>9.4f}")

# ---------------------------------------------------------------------------
# Nesting is exact, not just areas: the support functions are ordered
# direction by direction, so each tighter threshold's reachable bound
# sits strictly inside the looser one's.

report = volume_comparison(list(bounds.values()))
print(f"\nareas ordered:   {report.area_ordered}")
print(f"support ordered: {report.support_ordered} "
      f"(worst violation {report.max_support_violation:.2e})")

# tightening from the Markov threshold to the k=4 one denies the
# attacker a third of the bounded area
shrink = 1.0 - bounds["robust k=4"].area / bounds["robust k=1"].area
print(f"area denied by k=4 vs k=1 tuning: {100 * shrink:.1f}%")
