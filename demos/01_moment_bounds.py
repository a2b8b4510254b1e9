"""
Worst-case tail bounds from a handful of moments
================================================

How much can a distribution on the nonnegative axis misbehave if all we
know are its first k moments?  This demo builds moment sequences,
checks their feasibility, and computes the tight bound on
P(X >= threshold) three ways: closed forms, a semidefinite program, and
a brute-force linear program over discrete measures.
"""

import numpy as np

from drdetect import (
    MomentSequence,
    chebyshev_bound,
    chi_squared_moments,
    hankel_pair,
    is_feasible,
    markov_bound,
    oracle_worst_case,
    solve_sdp,
)

# ---------------------------------------------------------------------------
# A chi-squared variable with 2 degrees of freedom has moments
# M^r = 2^r r!, so (1, 2, 8, 48, 384) up to order four.  Feasibility of a
# truncated sequence is a pair of positive-semidefinite Hankel matrices.

moments = chi_squared_moments(2, 4)
print("chi-squared(2) moments:", moments.moments)
r_even, r_odd = hankel_pair(moments)
print("hankel eigenvalues:", np.linalg.eigvalsh(r_even).round(6),
      np.linalg.eigvalsh(r_odd).round(6))
print("feasible:", is_feasible(moments))

# a sequence no distribution can realize: its variance would be negative
bogus = MomentSequence((1.0, 3.0, 8.0))
print("variance", bogus.variance, "-> feasible:", is_feasible(bogus))

# ---------------------------------------------------------------------------
# With one moment the tight bound is Markov's inequality; with two it is
# the one-sided Chebyshev (Cantelli) expression.  The moment-bound SDP
# recovers both digits-for-digits.

alpha = 10.0
m1 = moments.truncated(1)
m2 = moments.truncated(2)
print(f"\nthreshold {alpha}")
print("markov      :", markov_bound(m1, alpha))
print("sdp   (k=1) :", solve_sdp(m1, alpha).objective)
print("chebyshev   :", chebyshev_bound(m2, alpha))
print("sdp   (k=2) :", solve_sdp(m2, alpha).objective)

# ---------------------------------------------------------------------------
# Higher moments buy strictly smaller worst cases.  The SDP emits a
# polynomial certificate p with p >= 1 above the threshold and p >= 0 on
# the nonnegative axis, so E p(X) upper-bounds the tail for every
# distribution matching the moments.

for k in (1, 2, 3, 4):
    sol = solve_sdp(moments.truncated(k), alpha)
    print(f"k={k}: worst-case tail {sol.objective:.6f}, "
          f"certificate valid: {sol.y.is_valid()}")

# ---------------------------------------------------------------------------
# A linear program over discrete measures on a grid lands close to the
# SDP value, a cross-check that the bound is (numerically) tight.  The
# oracle is not a certified lower bound: on sequences at the edge of the
# moment cone its loose moment check can overshoot the true tail.

for k in (2, 4):
    seq = moments.truncated(k)
    sdp = solve_sdp(seq, alpha).objective
    lp = oracle_worst_case(seq, alpha, grid=4000)
    print(f"k={k}: oracle {lp:.6f} <= sdp {sdp:.6f}, gap {sdp - lp:.2e}")
