"""Worst-case tail probabilities from finite moment information.

Given the first k raw moments of a nonnegative scalar random variable q
and a threshold alpha, the tight bound

    sup { P(q >= alpha) : all laws on R+ matching the moments }

is the optimal value of a small semidefinite program whose dual
variables y_0..y_k are the coefficients of a polynomial certificate
p(q) = sum_r y_r q^r with p >= 1 above the threshold and p >= 0 on the
nonnegative axis.  For k = 1 and k = 2 the bound has closed forms
(Markov; a one-sided Chebyshev form valid at thresholds above M2/M1).
The tail of an explicit law that matches the moments is a certified
lower bound where such a law is found: a Gauss-Radau rule with a node at
the threshold, or the rule one order lower plus one far atom that
carries the rest of the top moment.  The polynomial that interpolates
the indicator at the nodes of the highest-order rule that exists,
checked like the SDP's certificate, gives a certified upper bound
without a solve; at the order-k rule both ends meet up to rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

import numpy as np

from . import ipm
from .ipm import Status, svec, svec_dim
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
    if not 0 < alpha < math.inf:
        raise ValueError("threshold must be positive and finite")
    return min(1.0, moments.moments[1] / alpha)


def chebyshev_bound(moments: MomentSequence, alpha: float) -> float:
    """One-sided two-moment tail bound.

    For alpha = (1 + delta) M1 with delta > 0 this is
    C2 / (C2 + delta^2) with C2 = (M2 - M1^2) / M1^2; it returns 1 for
    alpha <= M1.  The expression is the tight two-moment bound whenever
    alpha >= M2/M1; below that the tight value is M1/alpha instead, and
    this function intentionally keeps the Chebyshev form.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("threshold must be positive and finite")
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
    coefficient is an integer that depends on k alone.  Objective:
    minimize sum_r y_r M^r over free y and two (k+1) x (k+1) PSD blocks X
    and Z, subject to

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
    k = moments.order
    size = k + 1
    # row t in svec coordinates of X -> sum_{i+j=t} X_ij: svec of the mask i + j = t
    i = np.arange(size)
    anti = svec((np.add.outer(i, i) == np.arange(2 * k + 1)[:, None, None]) * 1.0)
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
        c_free=moments.moments,
        a_free=np.vstack([no_y, x_even, no_y, z_even]),
        a_blocks=(np.vstack([odd, even, no_block]), np.vstack([no_block, odd, even])),
        b=b,
    )


def _polish(y: np.ndarray, scaled: np.ndarray) -> tuple[np.ndarray, float, float]:
    """A certified upper bound from a certificate y in units of the
    threshold, for the moments `scaled` of q/alpha: (the polished
    coefficients, the shift, their mean clipped to [0, 1]).

    The certificate is checked exactly by :meth:`PolyBound.slack`, and
    any negative slack is added to its constant coefficient as the shift,
    so the mean E[p] = sum y_r s_r bounds every law with these moments
    whatever the accuracy of y.  No shift repairs a negative leading
    coefficient (the shift is inf there), so p falls back to the trivial
    certificate p = 1.
    """
    shift = max(0.0, -PolyBound(tuple(y), 1.0).slack())
    if math.isinf(shift):
        y = np.zeros(len(y))
        y[0] = 1.0
    else:
        y = y.copy()
        y[0] += shift
    return y, shift, float(np.clip(np.dot(y, scaled), 0.0, 1.0))


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
    one.  The solver's certificate is polished by :func:`_polish`, so the
    reported objective is always a certified upper bound, also when the
    solver stalls; a shift above 1e-5 marks the solve `NUMERICAL_TROUBLE`.
    """
    alpha = float(alpha)
    if not 0 < alpha < math.inf:
        raise ValueError("threshold must be positive and finite")
    if not is_feasible(moments):
        raise ValueError("infeasible moment sequence")
    conic = build_sdp(moments.scaled(1.0 / alpha))
    result = ipm.solve(conic)
    y_scaled, shift, objective = _polish(result.x_free, conic.c_free)
    status = Status.NUMERICAL_TROUBLE if shift > 1e-5 else result.status
    coeffs = tuple(y_scaled[r] / alpha**r for r in range(len(y_scaled)))
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
    1) the law is the Gauss-Radau rule of order k with one node at 1
    (:func:`_radau_law`).  Where that rule does not exist and k >= 2, it
    is the rule of order k-1 plus one far atom: the rule of s_0..s_{k-1}
    leaves d = s_k - sum w_i x_i^k of the k-th moment, which must be
    nonnegative, and an atom at L = 1e12 max(1, largest node) carries it
    with weight d / L^k.  Mass may escape to infinity in this way on
    [0, inf) (Karlin & Studden, Tchebycheff Systems, 1966; Krein &
    Nudelman, 1977); the far atom lies above the threshold, so its weight
    counts in the tail.  It also adds d L^(r-k) to each lower moment s_r,
    which the check below rejects where that is not negligible.  Either
    law is accepted only when it reproduces every scaled moment to
    relative 1e-10.
    """
    return _law_ends(moments, alpha, certify_up_to=-1.0)[0]


def _law_ends(
    moments: MomentSequence, alpha: float, certify_up_to: float = math.inf
) -> tuple[float, float]:
    """Both certified ends of the tight bound at alpha that the Gauss-Radau
    rules give without a solve: the tail of :func:`tail_lower_bound`'s
    law, and the mean of the polynomial certificate built on the nodes of
    the highest-order rule that exists (:func:`_interpolant`), polished
    by :func:`_polish`.  The upper end is 1.0 where no rule exists, and
    where the tail exceeds `certify_up_to`: the certificate is not built
    there.

    The polish makes E[p] = sum y_r s_r an upper bound on every law with
    these moments whatever the accuracy of the rule.  Where the rule is
    the order-k law, E[p] is its tail up to rounding: p interpolates the
    indicator at the law's atoms (Karlin & Studden 1966; Bertsimas &
    Popescu 2005).  The far-atom law gives none, since its node at L
    cannot carry p' = 0 in floating point; the rule of order k-1 that it
    extends does.
    """
    alpha = float(alpha)
    if not 0 < alpha < math.inf:
        raise ValueError("threshold must be positive and finite")
    k = moments.order
    scaled = np.array(moments.scaled(1.0 / alpha).moments)
    for order in range(k, 0, -1):
        law = _radau_law(scaled, order)
        if law is None:
            continue
        if order == k:
            lower = _tail(scaled, law)
        elif order == k - 1:
            lower = _tail(scaled, _far_atom_law(scaled, *law))
        else:
            lower = 0.0
        if lower > certify_up_to:
            return lower, 1.0
        return lower, _polish(_interpolant(law[0], order), scaled[: order + 1])[2]
    return 0.0, 1.0


def _tail(scaled: np.ndarray, law) -> float:
    """Mass at or above 1 of a law given as (nodes, weights), or 0.0 where
    there is none or it misses a moment in scaled by more than relative
    1e-10."""
    if law is None:
        return 0.0
    nodes, weights = law
    fit = (weights * nodes ** np.arange(len(scaled))[:, None]).sum(axis=1)
    if not (np.abs(fit - scaled) <= 1e-10 * scaled).all():
        return 0.0
    return min(1.0, float(weights[nodes >= 1.0].sum()))


def _radau_law(scaled: np.ndarray, k: int):
    """Nodes and weights, in units of the threshold, of the Gauss-Radau
    rule with one node at 1 for the moments scaled[0..k], or None where
    there is none.  The moments are not checked here.

    For even k it is the rule of the measure itself, built from the top
    Hankel matrix (s_{i+j}); for odd k it is the rule of the measure
    q mu (s_{i+j+1}), each weight is divided by its node and the mass
    left over sits at 0.  The Hankel matrix is factored by Cholesky, the
    factor gives the Jacobi recurrence (Golub & Welsch, Math. Comp.
    1969), and its last diagonal entry is modified so that 1 is an
    eigenvalue (Golub, SIAM Rev. 1973).  Extremal laws touch the
    threshold in the same way (Bertsimas & Popescu, SIAM J. Optim. 2005).
    A singular Hankel matrix gives none.
    """
    hankel = _hankel_matrix(tuple(scaled), k)
    try:
        upper = np.linalg.cholesky(hankel).T
    except np.linalg.LinAlgError:
        return None
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
            return None
    nodes, vectors = np.linalg.eigh(jacobi)
    weights = hankel[0, 0] * vectors[0] ** 2
    nodes[np.argmin(np.abs(nodes - 1.0))] = 1.0
    if k % 2:
        if (nodes <= 0.0).any():
            return None
        weights = weights / nodes
        nodes = np.append(nodes, 0.0)
        weights = np.append(weights, scaled[0] - weights.sum())
    if (nodes < 0.0).any() or (weights < 0.0).any():
        return None
    return nodes, weights


def _far_atom_law(scaled: np.ndarray, nodes: np.ndarray, weights: np.ndarray):
    """The law of :func:`tail_lower_bound` one order down: the rule of
    order k-1 (`nodes`, `weights`, from :func:`_radau_law`) plus one far
    atom that carries the rest of the k-th moment, k = len(scaled) - 1,
    as nodes and weights with the far atom last, or None where the rest
    is negative or L^k is not finite."""
    k = len(scaled) - 1
    d = float(scaled[k] - weights @ nodes**k)
    if d < 0.0:
        return None
    far = 1e12 * max(1.0, float(nodes.max()))
    try:
        omega = d / far**k
    except OverflowError:
        return None
    return np.append(nodes, far), np.append(weights, omega)


def _interpolant(nodes: np.ndarray, k: int) -> np.ndarray:
    """Coefficients, in units of the threshold, of the polynomial p of
    degree k that certifies the Gauss-Radau rule of order k with these
    nodes (:func:`_radau_law`): p(1) = 1, p = [x >= 1] and p' = 0 at
    every other positive node, and p = 0 at the atom at 0 that odd orders
    add.  Every node but 1 and that atom counts twice, which makes k + 1
    conditions.  p is built in Newton form over the nodes in ascending
    order, whose divided differences stay accurate at the small nodes
    that carry most of the mass; at a repeated node the first difference
    is p' = 0."""
    single = nodes == 1.0
    if k % 2:
        single[-1] = True
    z = sorted(np.append(nodes, nodes[~single]).tolist())
    diffs = [float(x >= 1.0) for x in z]
    for level in range(1, k + 1):
        for i in range(k, level - 1, -1):
            step = z[i] - z[i - level]
            diffs[i] = (diffs[i] - diffs[i - 1]) / step if step > 0.0 else 0.0
    # Horner's rule on the Newton form: p <- p (x - z_j) + diffs_j
    coeffs = [diffs[k]]
    for j in range(k - 1, -1, -1):
        shifted = [0.0] + coeffs
        coeffs = [lo - z[j] * hi for lo, hi in zip(shifted, coeffs + [0.0])]
        coeffs[0] += diffs[j]
    return np.array(coeffs)
