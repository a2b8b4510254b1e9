"""Worst-case tail probabilities from finite moment information.

Given the first k raw moments of a nonnegative scalar random variable q
and a threshold alpha, the tight bound

    sup { P(q >= alpha) : all laws on R+ matching the moments }

is the optimal value of a small semidefinite program whose dual
variables y_0..y_k are the coefficients of a polynomial certificate
p(q) = sum_r y_r q^r with p >= 1 above the threshold and p >= 0 on the
nonnegative axis.  For k = 1 and k = 2 the bound has closed forms
(Markov; a one-sided Chebyshev form valid at thresholds above M2/M1).
A linear-programming oracle over gridded discrete distributions gives
an independent cross-check.  It is not a certified lower bound: its
loose moment check can overshoot the true tail on boundary sequences.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from . import ipm
from .ipm import Status, svec_dim
from .moment_core import MomentSequence, is_feasible

__all__ = [
    "PolyBound",
    "SdpSolution",
    "markov_bound",
    "chebyshev_bound",
    "build_sdp",
    "solve_sdp",
    "oracle_worst_case",
]


def markov_bound(moments: MomentSequence, alpha: float) -> float:
    """min(1, M1/alpha): the tight one-moment bound on P(q >= alpha)."""
    if alpha <= 0:
        raise ValueError("threshold must be positive")
    return min(1.0, moments.moments[1] / alpha)


def chebyshev_bound(moments: MomentSequence, alpha: float) -> float:
    """One-sided two-moment tail bound.

    For alpha = (1 + delta) M1 with delta > 0 this is
    C2 / (C2 + delta^2) with C2 = (M2 - M1^2) / M1^2; it returns 1 for
    alpha <= M1.  The expression is the tight two-moment bound whenever
    alpha >= M2/M1; below that the tight value is M1/alpha instead, and
    this function intentionally keeps the Chebyshev form.
    """
    if alpha <= 0:
        raise ValueError("threshold must be positive")
    if moments.order < 2:
        raise ValueError("two moments are needed")
    if not is_feasible(moments):
        raise ValueError("infeasible moment sequence")
    m1, m2 = moments.moments[1], moments.moments[2]
    if m1 == 0.0:
        # all mass at zero, nothing above a positive threshold
        return 0.0
    if alpha <= m1:
        return 1.0
    c2 = max(0.0, (m2 - m1 * m1) / (m1 * m1))
    if c2 == 0.0:
        return 0.0
    delta = (alpha - m1) / m1
    return c2 / (c2 + delta * delta)


@dataclass(frozen=True)
class PolyBound:
    """Polynomial certificate p(q) = sum_r coeffs[r] q^r for a tail bound
    at `threshold`: p >= 1 above the threshold and p >= 0 on R+."""

    coeffs: tuple[float, ...]
    threshold: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")

    def __call__(self, q) -> np.ndarray:
        return np.polynomial.polynomial.polyval(q, self.coeffs)

    def min_over(self, lo: float, hi: float = math.inf) -> float:
        """Minimum of p on [lo, hi] via a dense grid refined with the real
        critical points of p (root isolation on the derivative).

        With `hi` infinite the minimum is exact on the half-line [lo, inf):
        it is -inf when the leading coefficient is negative, and otherwise
        taken over lo and every real critical point above it; the grid
        then spans [lo, 100 lo]."""
        coeffs = np.polynomial.polynomial.polytrim(self.coeffs)
        if math.isinf(hi) and len(coeffs) > 1 and coeffs[-1] < 0.0:
            return -math.inf
        grid = np.linspace(lo, hi if math.isfinite(hi) else 100.0 * lo, 10_000)
        candidates = [self(grid).min()]
        deriv = np.polynomial.polynomial.polyder(coeffs)
        if len(deriv) > 1:
            roots = np.polynomial.polynomial.polyroots(deriv)
            scale = np.maximum(1.0, np.abs(roots.real))
            real = roots[np.abs(roots.imag) < 1e-9 * scale].real
            inside = real[(real >= lo) & (real <= hi)]
            if inside.size:
                candidates.append(self(inside).min())
        return float(min(candidates))

    def is_valid(self) -> bool:
        """Certificate check: p >= 1 on [threshold, inf) and p >= 0 on
        [0, threshold], within -1e-6."""
        a = self.threshold
        return self.min_over(a) >= 1.0 - 1e-6 and self.min_over(0.0, a) >= -1e-6


def build_sdp(moments: MomentSequence) -> ipm.ConicProblem:
    """Assemble the dual moment-bound program for sup P(q >= 1).

    The bound at a threshold alpha is this program for the moments of
    q/alpha, ``moments.scaled(1/alpha)``; in these units every constraint
    coefficient is an integer that depends on k alone, and programs of
    one order share their read-only rows.  Objective: minimize
    sum_r y_r M^r over free y and two (k+1) x (k+1) PSD blocks X and Z,
    subject to

      X odd,  l = 1..k:   sum_{i+j=2l-1} X_ij = 0
      X even, l = 0..k:   sum_{i+j=2l} X_ij = sum_{r=l..k} C(r,l) y_r - [l = 0]
      Z odd,  l = 1..k:   sum_{i+j=2l-1} Z_ij = 0
      Z even, l = 0..k:   sum_{i+j=2l} Z_ij = sum_{r=0..l} C(k-r,l-r) y_r

    The X block certifies p - 1 >= 0 above the threshold via the Taylor
    shift q = 1 + u^2; the Z block certifies p >= 0 on [0, 1] via
    q = t^2/(1 + t^2), stated in an equivalent diagonally rescaled form.
    The result is laid out for :mod:`drdetect.ipm`: `c_free` holds the
    moments, `a_free` acts on y, and the two blocks on svec(X), svec(Z).
    """
    return _moment_rows(moments.order).with_objective(moments.moments)


@functools.lru_cache(maxsize=None)
def _moment_rows(k: int) -> ipm.ConicProblem:
    """The program of :func:`build_sdp` at order k with a zero objective.
    Its rows are integers that depend on k alone, so they are made and
    checked once per order and shared by every threshold."""
    size = k + 1
    # row t in svec coordinates of the functional X -> sum_{i+j=t} X_ij
    rows, cols, scale = ipm._svec_index(size)
    anti = np.where(rows + cols == np.arange(2 * k + 1)[:, None], scale, 0.0)
    odd, even = anti[1::2], anti[::2]
    x_even = [[-comb(r, l) for r in range(size)] for l in range(size)]
    z_even = [
        [-comb(k - r, l - r) if r <= l else 0 for r in range(size)]
        for l in range(size)
    ]
    no_y = np.zeros((k, size))
    no_block = np.zeros((k + size, svec_dim(size)))
    b = np.zeros(2 * (k + size))
    b[k] = -1.0  # the X even row at l = 0 carries the 1 of p - 1
    return ipm.ConicProblem(
        c_free=np.zeros(size),
        a_free=np.vstack([no_y, x_even, no_y, z_even]),
        a_blocks=(np.vstack([odd, even, no_block]), np.vstack([no_block, odd, even])),
        b=b,
    )


@dataclass(frozen=True)
class SdpSolution:
    """Solver output: the worst-case probability and its certificate."""

    objective: float
    y: PolyBound
    duality_gap: float
    iterations: int
    status: Status


def solve_sdp(moments: MomentSequence, alpha: float) -> SdpSolution:
    """Worst-case P(q >= alpha) over all laws on R+ with the given
    moments, clamped to [0, 1], together with its polynomial certificate.

    The program is solved in units of the threshold (q -> q/alpha maps
    the bound onto the same program at threshold 1, see
    :func:`build_sdp`), which keeps all constraint coefficients order
    one.  Any residual infeasibility of the returned certificate is
    absorbed into the constant coefficient, so the reported objective is
    always a certified upper bound, also when the solver stalls and the
    status is `NUMERICAL_TROUBLE`.  The certificate is checked exactly on
    the whole half-line above the threshold.
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError("threshold must be positive")
    if not is_feasible(moments):
        raise ValueError("infeasible moment sequence")
    conic = build_sdp(moments.scaled(1.0 / alpha))
    c_vec = conic.c_free
    size = c_vec.shape[0]
    result = ipm.solve(conic)

    y_scaled = result.x_free
    status = result.status
    # certificate polish: absorb solver residual into the constant term
    cert_scaled = PolyBound(tuple(y_scaled), 1.0)
    slack = min(
        cert_scaled.min_over(1.0) - 1.0,
        cert_scaled.min_over(0.0, 1.0),
    )
    shift = max(0.0, -slack)
    if shift > 1e-5:
        status = Status.NUMERICAL_TROUBLE
    if math.isinf(shift):
        # a negative leading coefficient: no shift repairs it, so fall
        # back to the trivial certificate p = 1
        y_scaled = np.zeros(size)
        y_scaled[0] = 1.0
    else:
        y_scaled = y_scaled.copy()
        y_scaled[0] += shift

    objective = float(np.clip(np.dot(y_scaled, c_vec), 0.0, 1.0))
    coeffs = tuple(y_scaled[r] / alpha**r for r in range(size))
    return SdpSolution(
        objective=objective,
        y=PolyBound(coeffs, alpha),
        duality_gap=result.gap,
        iterations=result.iterations,
        status=status,
    )


def oracle_worst_case(
    moments: MomentSequence, alpha: float, grid: int = 2000
) -> float:
    """Cross-check of sup P(q >= alpha) by linear programming.

    Maximizes the mass at or above the threshold over discrete
    distributions supported on a fixed grid, subject to moment matching.
    Atom locations are a uniform grid on [0, 10 alpha] plus a geometric
    refinement near zero, with 0 and alpha always included (extremal
    measures place mass exactly at the threshold).  A basic optimal
    solution uses at most k+1 atoms.

    This is not a certified lower bound.  The moment rows are scaled by
    (10 alpha)^r and checked to an absolute 1e-7, which is loose at
    higher r, so on boundary sequences the LP can move mass above the
    threshold: for a two-atom law at k = 4 and alpha = 4.45608 it returns
    0.468 where the true tail is 0.
    """
    import scipy.optimize  # costs about 0.5 s of import, for this call only

    if alpha <= 0:
        raise ValueError("threshold must be positive")
    k = moments.order
    if k > 4:
        raise ValueError("oracle supports k <= 4 only")
    if grid < 100:
        raise ValueError("grid must have at least 100 points")
    hi = 10.0 * alpha
    n_geo = grid // 4
    # 0, the threshold, and the mean are always candidate atoms: extremal
    # measures touch the threshold, and point masses sit at the mean
    pts = np.unique(
        np.concatenate(
            [
                np.linspace(0.0, hi, grid - n_geo),
                alpha * np.geomspace(1e-4, 10.0, n_geo),
                [0.0, alpha, moments.moments[1]],
            ]
        )
    )
    # rows scaled by hi^r so all coefficients are order one
    a_eq = np.vstack([(pts / hi) ** r for r in range(k + 1)])
    b_eq = np.array([m / hi**r for r, m in enumerate(moments.moments)])
    objective = -(pts >= alpha * (1.0 - 1e-12)).astype(float)

    def moment_feasible(res, tol: float) -> bool:
        if not res.success or res.x is None:
            return False
        return float(np.abs(a_eq @ res.x - b_eq).max()) <= tol

    # the simplex can stall, or even report an infeasible basis as optimal,
    # on the badly scaled near-duplicate columns of the geometric
    # refinement; every candidate measure is therefore verified against the
    # moment constraints before it is trusted, with the interior-point
    # variant as the fallback
    res = scipy.optimize.linprog(
        objective, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs"
    )
    if not moment_feasible(res, 1e-7):
        res = scipy.optimize.linprog(
            objective, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ipm"
        )
    if not moment_feasible(res, 1e-7):
        # boundary sequences may need a whisker of slack on the equalities
        eps = 1e-9 * (1.0 + np.abs(b_eq))
        res = scipy.optimize.linprog(
            objective,
            A_ub=np.vstack([a_eq, -a_eq]),
            b_ub=np.concatenate([b_eq + eps, -(b_eq - eps)]),
            bounds=(0, None),
            method="highs",
        )
        if not moment_feasible(res, float(eps.max()) + 1e-7):
            raise ValueError(
                "moment sequence is not representable on the oracle grid"
            )
    return float(min(1.0, -res.fun))
