"""Worst-case tail probabilities from finite moment information.

Given the first k raw moments of a nonnegative scalar random variable q
and a threshold alpha, the tight bound

    sup { P(q >= alpha) : all laws on R+ matching the moments }

is the optimal value of a small semidefinite program whose dual
variables y_0..y_k are the coefficients of a polynomial certificate
p(q) = sum_r y_r q^r with p >= 1 above the threshold and p >= 0 on the
nonnegative axis.  For k = 1 and k = 2 the bound has closed forms
(Markov; a one-sided Chebyshev form valid at thresholds above M2/M1).
The tail of an explicit law that matches the moments, a Gauss-Radau
rule with a node at the threshold, is a certified lower bound where such
a law exists.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from . import ipm
from .ipm import Status, svec_dim
from .moment_core import MomentSequence, _hankel_matrix, is_feasible

__all__ = [
    "PolyBound",
    "SdpSolution",
    "markov_bound",
    "chebyshev_bound",
    "build_sdp",
    "solve_sdp",
    "tail_lower_bound",
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
        if not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError("coefficients must be finite")

    def __call__(self, q) -> np.ndarray:
        return np.polynomial.polynomial.polyval(q, self.coeffs)

    def slack(self) -> float:
        """Least certificate margin: the smaller of min p - 1 on
        [threshold, inf) and min p on [0, threshold], exact up to
        rounding.  It is -inf when the leading coefficient is negative;
        otherwise p is evaluated at 0, at the threshold and at the real
        part of every root of p' that is nonnegative.  Taking every root
        keeps a real one that comes back with a rounding-size imaginary
        part; a point that is not a critical point can only bring the
        computed minimum closer to the true one."""
        coeffs = np.polynomial.polynomial.polytrim(self.coeffs)
        if len(coeffs) > 1 and coeffs[-1] < 0.0:
            return -math.inf
        a = self.threshold
        roots = np.polynomial.polynomial.polyroots(
            np.polynomial.polynomial.polyder(coeffs)
        ).real
        pts = np.concatenate(([0.0, a], roots[roots >= 0.0]))
        values = self(pts)
        return float(min(values[pts >= a].min() - 1.0, values[pts <= a].min()))

    def is_valid(self) -> bool:
        """Certificate check: p >= 1 on [threshold, inf) and p >= 0 on
        [0, threshold], within -1e-6."""
        return self.slack() >= -1e-6


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
    status is `NUMERICAL_TROUBLE`.  The certificate is checked exactly by
    :meth:`PolyBound.slack`.
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
    shift = max(0.0, -cert_scaled.slack())
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


def tail_lower_bound(moments: MomentSequence, alpha: float) -> float:
    """Mass at or above alpha of an explicit law on R+ with the given
    moments, or 0.0 when none is found: a lower bound on the tight
    worst case that :func:`solve_sdp` bounds from above.

    In the units of :func:`build_sdp` (moments s_r of q/alpha, threshold
    1) the law is a Gauss-Radau rule with one node at 1.  For even k it
    is the rule of the measure itself, built from the top Hankel matrix
    (s_{i+j}); for odd k it is the rule of the measure q mu (s_{i+j+1}),
    each weight is divided by its node and the mass left over sits at 0.
    The Hankel matrix is factored by Cholesky, the factor gives the
    Jacobi recurrence (Golub & Welsch, Math. Comp. 1969), and its last
    diagonal entry is modified so that 1 is an eigenvalue (Golub, SIAM
    Rev. 1973).  Extremal laws touch the threshold in the same way
    (Bertsimas & Popescu, SIAM J. Optim. 2005).  The law is accepted only
    when every atom and weight is nonnegative and it reproduces every
    scaled moment to relative 1e-10; a singular Hankel matrix gives none.
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError("threshold must be positive")
    k = moments.order
    scaled = np.array(moments.scaled(1.0 / alpha).moments)
    hankel = _hankel_matrix(tuple(scaled), k)
    try:
        upper = np.linalg.cholesky(hankel).T
    except np.linalg.LinAlgError:
        return 0.0
    n = hankel.shape[0] - 1
    # Jacobi matrix of the orthonormal polynomials, from hankel = R'R:
    # a_j = r_{j,j+1}/r_{jj} - r_{j-1,j}/r_{j-1,j-1} and b_j =
    # r_{jj}/r_{j-1,j-1}; its last diagonal entry is set below
    pivots = np.diag(upper)
    ratio = np.diag(upper, 1) / pivots[:-1]
    a = np.append(ratio - np.append(0.0, ratio[:-1]), 1.0)
    b = pivots[1:] / pivots[:-1]
    jacobi = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
    if n:
        # the entry that makes 1 an eigenvalue: (J_n - I) d = b_n^2 e_n
        rhs = np.zeros(n)
        rhs[-1] = b[-1] ** 2
        try:
            jacobi[n, n] = 1.0 + np.linalg.solve(jacobi[:n, :n] - np.eye(n), rhs)[-1]
        except np.linalg.LinAlgError:
            return 0.0
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = hankel[0, 0] * vectors[0] ** 2
    nodes[np.argmin(np.abs(nodes - 1.0))] = 1.0
    if k % 2:
        if (nodes <= 0.0).any():
            return 0.0
        weights = weights / nodes
        nodes = np.append(nodes, 0.0)
        weights = np.append(weights, scaled[0] - weights.sum())
    if (nodes < 0.0).any() or (weights < 0.0).any():
        return 0.0
    law = (weights * nodes ** np.arange(k + 1)[:, None]).sum(axis=1)
    if not (np.abs(law - scaled) <= 1e-10 * scaled).all():
        return 0.0
    return min(1.0, float(weights[nodes >= 1.0].sum()))
