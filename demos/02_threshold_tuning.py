"""
Tuning a detector threshold without knowing the distribution
============================================================

A chi-squared detector compares the quadratic residual statistic q
against a threshold alpha.  The textbook threshold assumes q is exactly
chi-squared; the distributionally robust one only assumes a few moments
and guarantees the false-alarm rate for every distribution matching
them.  This demo tunes both and shows the robust thresholds shrink as
more moments are used.
"""

import numpy as np

from drdetect import (
    chi_squared_moments,
    chi_squared_threshold,
    solve_sdp,
    tune_threshold_sdp,
)

RATE = 0.05  # tolerated false-alarm probability

# ---------------------------------------------------------------------------
# The chi-squared quantile is the baseline; for 2 degrees of freedom it
# has the closed form -2 ln(rate).

alpha_chi = chi_squared_threshold(2, RATE)
print(f"chi-squared threshold: {alpha_chi:.4f}  (-2 ln 0.05 = "
      f"{-2 * np.log(RATE):.4f})")

# ---------------------------------------------------------------------------
# Robust thresholds from k moments of q.  k = 1 inverts Markov
# (M1/rate), k = 2 the lesser of Markov and the one-sided Chebyshev
# bound, both in closed form, and k >= 3 bisects on the SDP worst case.

moments = chi_squared_moments(2, 4)
rows = [
    tune_threshold_sdp(moments.truncated(k), RATE, epsilon=1e-4)
    for k in (1, 2, 3, 4)
]

print(f"\n{'k':>2} {'method':>16} {'alpha':>10} {'worst case':>11}")
for row in rows:
    print(f"{row.k:>2} {row.method.value:>16} {row.alpha:>10.4f} "
          f"{row.achieved_worst_case:>11.6f}")

# ---------------------------------------------------------------------------
# The thresholds are monotone in k: more information, tighter detector.
# Each still guarantees the 5% rate against every distribution with
# those moments, which the chi-squared quantile does not.

alphas = [row.alpha for row in rows]
assert all(a >= b for a, b in zip(alphas, alphas[1:]))
print("\nmonotone in k:", " >= ".join(f"{a:.4f}" for a in alphas))

# the guarantee is sharp: just below the tuned threshold the worst-case
# probability crosses the target
alpha_4 = rows[-1].alpha
for shift in (0.0, -0.05):
    bound = solve_sdp(moments, alpha_4 + shift).objective
    side = "at tuned alpha " if shift == 0.0 else "slightly below "
    print(f"{side}{alpha_4 + shift:.4f}: worst-case rate {bound:.6f}")

# ---------------------------------------------------------------------------
# The gap to the chi-squared quantile is the price of distributional
# robustness; whether it is worth paying is a question about the
# reachable states it denies an attacker (see demo 04).

print(f"\nrobust k=4 threshold {alpha_4:.4f} vs chi-squared "
      f"{alpha_chi:.4f}: factor {alpha_4 / alpha_chi:.2f}")
