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
the threshold, or the highest-order rule that fits, plus one far atom
that carries the rest of the top moment.  The polynomial that interpolates
the indicator at the nodes of the highest-order rule that exists,
checked like the SDP's certificate, gives a certified upper bound
without a solve; at the order-k rule both ends meet up to rounding.  A
sequence of few atoms lies on the boundary of the moment cone, where the
Hankel matrix is singular, no order-k rule exists and the solver tends
to stall; there the law with these moments is unique, is read off the
Hankel matrix's leading block, and its tail is the tight bound, met by
the polynomial that interpolates the indicator at its atoms.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from . import ipm
from ._lapack import (
    _NO_CONVERGENCE,
    _cholesky,
    _eigh,
    _eigvals,
    _eigvalsh,
    _lapack_state,
    _solve,
    _solve1,
)
from .ipm import Status, svec, svec_dim
from .moment_core import (
    MomentSequence,
    _hankel_matrix,
    _scaled_moments,
    hankel_pair,
    is_feasible,
)

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
        if isinstance(q, (tuple, list)):
            q = np.asarray(q)
        return _horner(self.coeffs, q)

    def slack(self) -> float:
        """Least certificate margin: the smaller of min p - 1 on
        [threshold, inf) and min p on [0, threshold], exact up to
        rounding, and -inf for a negative leading coefficient
        (:func:`_slack`)."""
        return _slack(self.coeffs, self.threshold)

    def is_valid(self) -> bool:
        """Certificate check: p >= 1 on [threshold, inf) and p >= 0 on
        [0, threshold], within -1e-6."""
        return self.slack() >= -1e-6


def _horner(coeffs: tuple | list, x):
    """sum_r coeffs[r] x^r by Horner's rule, step for step as numpy's polyval."""
    value = coeffs[-1] + x * 0
    for coeff in coeffs[-2::-1]:
        value = coeff + value * x
    return value


def _slack(coeffs: tuple | list, threshold: float) -> float:
    """Least certificate margin of p(q) = sum_r coeffs[r] q^r at the
    threshold: the smaller of min p - 1 on [threshold, inf) and min p on
    [0, threshold], exact up to rounding.  It is -inf when the leading
    coefficient is negative; otherwise p is evaluated at 0, at the
    threshold and at the real part of every root of p' that is
    nonnegative.  Taking every root keeps a real one that comes back with
    a rounding-size imaginary part; a point that is not a critical point
    can only bring the computed minimum closer to the true one.

    The roots are the eigenvalues of the companion matrix of p', as
    numpy.polynomial's polyroots computes them; a companion matrix that
    is not finite raises `LinAlgError`.  p is evaluated by :func:`_horner`
    in Python floats, and each side's least value follows numpy's min: a
    NaN stands, and of equal values the last (:func:`_least`).  The outer
    min of the two sides is Python's, so a NaN on the lower side alone is
    passed over.  The result does not depend on the order of the roots,
    but for the sign of a zero least value that 0.0 and -0.0 both reach."""
    top = len(coeffs)  # the degree plus one, trailing zeros trimmed
    while top > 1 and coeffs[top - 1] == 0.0:
        top -= 1
    if top > 1 and coeffs[top - 1] < 0.0:
        return -math.inf
    der = [j * coeffs[j] for j in range(1, top)]
    if len(der) < 3:
        roots = [-der[0] / der[1]] if len(der) == 2 else []
    else:
        n = len(der) - 1
        column = [d / der[-1] for d in der[:-1]]
        if not all(map(math.isfinite, column)):
            raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
        companion = np.zeros((n, n))
        companion.reshape(-1)[n :: n + 1] = 1.0
        companion[:, -1] -= column
        roots = _eigvals(companion).real.tolist()
    above, below = [], []
    for x in [0.0, threshold, *(r for r in roots if r >= 0.0)]:
        value = _horner(coeffs, x)
        if x >= threshold:
            above.append(value)
        if x <= threshold:
            below.append(value)
    return min(_least(above) - 1.0, _least(below))


def _least(values: list) -> float:
    """The least of values as numpy's min takes it: a NaN stands, and of
    equal values (0.0 and -0.0) the last."""
    return math.nan if True in map(math.isnan, values) else min(reversed(values))


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


def _polish(y: list, scaled: np.ndarray) -> tuple[list, float, float]:
    """A certified upper bound from a certificate y in units of the
    threshold, for the moments `scaled` of q/alpha: (the polished
    coefficients, the shift, their mean clipped to [0, 1]).

    The certificate is checked exactly by :func:`_slack`, and any
    negative slack is added to its constant coefficient as the shift, so
    the mean E[p] = sum y_r s_r bounds every law with these moments
    whatever the accuracy of y.  No shift repairs a negative leading
    coefficient (the shift is inf there), so p falls back to the trivial
    certificate p = 1.  The coefficients are Python floats, checked
    finite as :class:`PolyBound` checks them; only the mean goes through
    numpy, whose dot and clip fix its bits.
    """
    if not all(map(math.isfinite, y)):
        raise ValueError("coefficients must be finite")
    shift = max(0.0, -_slack(y, 1.0))
    y = [1.0] + [0.0] * (len(y) - 1) if math.isinf(shift) else [y[0] + shift, *y[1:]]
    return y, shift, float(np.dot(y, scaled).clip(0.0, 1.0))


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
    y_scaled, shift, objective = _polish(result.x_free.tolist(), conic.c_free)
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
    (:func:`_radau_law`).  Where that rule does not exist or misses a
    moment, it is the highest-order rule that fits, plus one far atom:
    the rule of order j < k matches s_0..s_j, must match s_{j+1}..s_{k-1}
    too, and leaves d = s_k - sum w_i x_i^k of the k-th moment, which must
    be nonnegative; an atom at L = 1e12 max(1, largest node) carries it
    with weight d / L^k.  Mass may escape to infinity in this way on
    [0, inf) (Karlin & Studden, Tchebycheff Systems, 1966; Krein &
    Nudelman, 1977); the far atom lies above the threshold, so its weight
    counts in the tail.  It also adds d L^(r-k) to each lower moment s_r,
    which the check below rejects where that is not negligible.  Either
    law is accepted only when it reproduces every scaled moment to
    relative 1e-10.  For chi2(4) at k = 5 and alpha = M1 = 4 the order-5
    rule misses s_5 and no order-4 rule exists, but the order-3 rule
    {0: 1/6, 1: 3/4, 3: 1/12} matches s_4 as well, so the law is that
    rule with a far atom, and its tail is 5/6.  Where the order-k rule
    does not exist and the order-(k-1) rule with a far atom gives no
    positive tail, the unique law of a sequence on the boundary of the
    moment cone (:func:`_boundary_law`), whose tail is the tight bound
    itself, comes before a far atom on a rule of lower order.
    """
    return _law_ends(moments, alpha, above=0.0)[0]


def _law_ends(
    moments: MomentSequence,
    alpha: float,
    below: float = -math.inf,
    above: float = math.inf,
) -> tuple[float, float]:
    """Both certified ends of the tight bound at alpha that explicit laws
    give without a solve: the tail of :func:`tail_lower_bound`'s law, and
    the mean of the polynomial certificate built on the nodes of the
    highest-order Gauss-Radau rule that exists (:func:`_interpolant`),
    polished by :func:`_polish`.  The upper end is 1.0 where no rule
    exists, and where the tail exceeds `above`: the certificate is not
    built there.  The rules come from one descent through the orders k,
    k - 1, ..., 1 (:func:`_radau_law`), each built only as the walk
    reaches it; its first rule is the highest that exists.

    The polish makes E[p] = sum y_r s_r an upper bound on every law with
    these moments whatever the accuracy of the rule.  Where the rule is
    the order-k law, E[p] is its tail up to rounding: p interpolates the
    indicator at the law's atoms (Karlin & Studden 1966; Bertsimas &
    Popescu 2005).  The far-atom law gives none, since its node at L
    cannot carry p' = 0 in floating point; the rule that it extends does.

    Where the order-k rule does not exist and these ends leave the point
    open (a tail at most `above`, a mean above `below`), the sequence may
    lie on the boundary of the moment cone, where the law with these
    moments is unique and has few atoms (Curto & Fialkow, Houston J.
    Math. 1991).  Where :func:`_boundary_law` finds it, its tail and the
    polished mean of the polynomial that interpolates the indicator at
    its atoms and at 1 are both ends, and they meet up to rounding.  A
    wrong rank, or a step of the rule that fails, leaves the ends above.

    Where the ends so far still leave the point open (a tail at most
    `above`, a mean above `below` and above `above`), the descent resumes
    at its first rule, down to the highest-order rule that fits its own
    moments, and the law is that rule plus a far atom
    (:func:`_far_atom_law`): where its tail exceeds `above`, it is the
    lower end, and the upper end is 1.0.  It skips that rule where the
    ends above took it already: the order-k law, or the order-(k-1) rule
    with its far atom.  With `below` = `above` = the rate, these are
    exactly the points where :func:`drdetect.detector_tuning._settle`
    would solve, and a tail above the rate proves the branch the solve
    would take, since no certified bound lies under the tail of a law.
    """
    alpha = float(alpha)
    if not 0 < alpha < math.inf:
        raise ValueError("threshold must be positive and finite")
    k = moments.order
    scaled = np.array(_scaled_moments(moments.moments, 1.0 / alpha))
    # lazy, so no rule is built that the walk does not reach; the far-atom
    # rung below resumes it
    rules = ((j, _radau_law(scaled, j)) for j in range(k, 0, -1))
    for order, law in rules:
        if law is not None:
            break
    else:
        order, law = 0, None
    lower, upper = 0.0, 1.0
    if order:
        if order == k:
            lower = _tail(scaled, law)
        elif order == k - 1:
            lower = _tail(scaled, _far_atom_law(scaled, *law))
        if lower > above:
            return lower, 1.0
        upper = _polish(_interpolant(law[0], order), scaled[: order + 1])[2]
    if upper <= below:
        return lower, upper
    if order < k:
        try:
            boundary = _boundary_law(scaled, k)
            if boundary is not None:
                # the atoms and the threshold; for odd k the atom at 0 stays last
                nodes = boundary[0]
                if 1.0 not in nodes.tolist():
                    nodes = np.concatenate(([1.0], nodes))
                y = _interpolant(nodes, k)
                lower, upper = _tail(scaled, boundary), _polish(y, scaled[: len(y)])[2]
        except (ValueError, ArithmeticError):
            # a factorization that failed, or a certificate that is not finite
            pass
    if lower <= above < upper:
        for j, rule in itertools.chain([(order, law)], rules):
            if rule is not None and _fits(scaled[: j + 1], *rule):
                # the order-k law and the order-(k-1) far atom are taken above
                if not j == order >= k - 1:
                    tail = _tail(scaled, _far_atom_law(scaled, *rule))
                    if tail > above:
                        return tail, 1.0
                break
    return lower, upper


def _threshold_root(moments: MomentSequence, rate: float, start: float):
    """The threshold at which the largest mass that a law on R+ with these
    moments can put at one point falls to the rate, or None.

    That mass at alpha is min(1 / (v'H^-1 v), 1 / (alpha w'H1^-1 w)) with
    v = (1, alpha, alpha^2, ...) and w alike, where H = (M_{i+j}) and
    H1 = (M_{i+j+1}) are the pair of :func:`hankel_pair`: the Christoffel
    functions of mu and of q mu (Akhiezer, The Classical Moment Problem,
    1965, ch. 2).  v'H^-1 v is the sum of p_j(alpha)^2 over the
    orthonormal polynomials of H, which follow the three-term recurrence
    of the Jacobi matrix of H's Cholesky factor (:func:`_jacobi`).  The
    result is the lesser of the largest real roots of
    rate sum p_j(alpha)^2 = 1 and rate alpha sum p~_j(alpha)^2 = 1, each
    found by Newton steps in Python floats that descend from `start`.
    Where alpha is the top atom of the extremal law this is the tight
    threshold; elsewhere it lies below it, since the mass at alpha is at
    most the tail there.  Nothing here is certified: the caller tests the
    law ends around it.

    None where either matrix has less than full numerical rank
    (:func:`_rank`), where a Cholesky factor fails, where a step leaves the
    convex branch (a slope not positive, or a value that is not finite),
    or where 64 steps do not converge to relative 1e-12.  No step warns.
    """
    roots = []
    for shift, hankel in enumerate(hankel_pair(moments)):
        n = len(hankel) - 1
        if _rank(hankel) <= n:
            return None
        try:
            jacobi = _jacobi(_cholesky(hankel).T).tolist()
        except np.linalg.LinAlgError:
            return None
        p0 = 1.0 / math.sqrt(hankel[0, 0])
        alpha = start
        for _ in range(64):
            # sum p_j^2 and its slope by the recurrence
            # b_{j+1} p_{j+1} = (alpha - a_j) p_j - b_j p_{j-1}, as in mu
            p, dp, p_prev, dp_prev, b_j = p0, 0.0, 0.0, 0.0, 0.0
            total, slope = p * p, 0.0
            for j in range(n):
                x, b_next = alpha - jacobi[j][j], jacobi[j + 1][j]
                p, p_prev = (x * p - b_j * p_prev) / b_next, p
                dp, dp_prev = (p_prev + x * dp - b_j * dp_prev) / b_next, dp
                b_j = b_next
                total, slope = total + p * p, slope + 2.0 * p * dp
            if shift:
                value = rate * alpha * total - 1.0
                slope = rate * (total + alpha * slope)
            else:
                value, slope = rate * total - 1.0, rate * slope
            if not (slope > 0.0 and math.isfinite(value)):
                return None
            step = value / slope
            alpha -= step
            if abs(step) <= 1e-12 * abs(alpha):
                break
        else:
            return None
        roots.append(alpha)
    return min(roots)


def _tail(scaled: np.ndarray, law) -> float:
    """Mass at or above 1 of a law given as (nodes, weights), or 0.0 where
    there is none or it misses a moment in scaled by more than relative
    1e-10."""
    if law is None or not _fits(scaled, *law):
        return 0.0
    nodes, weights = law
    return min(1.0, float(weights[nodes >= 1.0].sum()))


def _fits(scaled: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> bool:
    """Whether the law (nodes, weights) reproduces every moment in scaled
    to relative 1e-10."""
    fit = (weights * nodes ** _powers(len(scaled))).sum(axis=1)
    return False not in (abs(fit - scaled) <= 1e-10 * scaled).tolist()


@functools.lru_cache(maxsize=None)
def _powers(n: int) -> np.ndarray:
    """The exponents 0..n-1 as a column."""
    column = np.arange(n)[:, None]
    column.flags.writeable = False
    return column


@functools.lru_cache(maxsize=None)
def _eye(n: int) -> np.ndarray:
    """The n x n identity."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


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
    hankel = _hankel_matrix(scaled, k)
    n = len(hankel) - 1
    # one error state for the rule's gufuncs, numpy.linalg's own: a factor
    # or a solve that fails is no rule, and an eigh that fails raises
    # numpy's LinAlgError
    with _lapack_state(_NO_CONVERGENCE):
        try:
            upper = _cholesky.raw(hankel).T
        except np.linalg.LinAlgError:
            return None
        jacobi = _jacobi(upper)
        if n:
            # the entry that makes 1 an eigenvalue: (J_n - I) d = b_n^2 e_n
            rhs = np.zeros(n)
            rhs[-1] = jacobi[n, n - 1] ** 2
            try:
                jacobi[n, n] = 1.0 + _solve1.raw(jacobi[:n, :n] - _eye(n), rhs)[-1]
            except np.linalg.LinAlgError:
                return None
        nodes, vectors = _eigh.raw(jacobi)
    weights = hankel[0, 0] * vectors[0] ** 2
    nodes[abs(nodes - 1.0).argmin()] = 1.0
    return _on_half_line(scaled, k, nodes, weights)


def _jacobi(upper: np.ndarray) -> np.ndarray:
    """Jacobi matrix of the orthonormal polynomials of a Hankel matrix,
    from the first rows of its upper Cholesky factor R (Golub & Welsch,
    Math. Comp. 1969): a_j = r_{j,j+1}/r_{jj} - r_{j-1,j}/r_{j-1,j-1} and
    b_j = r_{jj}/r_{j-1,j-1}.  R with one column more than rows gives
    every entry; a square R leaves the last diagonal entry at 1, for the
    caller to set.  The entries are Python floats, each added into 0.0,
    which gives the bits of a sum of diagonal matrices in numpy, signed
    zeros included.  An entry that comes out NaN raises the LinAlgError
    that numpy's invalid-value flag raises under the callers' error
    state (:func:`drdetect._lapack._lapack_state`).  A zero pivot, which no
    Cholesky factor has, raises ZeroDivisionError where numpy divided
    into inf; :func:`_law_ends` catches both on the boundary law's path."""
    rows = upper.tolist()
    n = len(rows)
    flat = [0.0] * (n * n - 1) + [1.0]  # what a square R leaves at (n-1, n-1)
    last = 0.0  # r_{j-1,j}/r_{j-1,j-1}; x - 0.0 is x, bit for bit
    for j, row in enumerate(rows):
        d = j * (n + 1)  # the place of (j, j)
        if j:
            flat[d - 1] = flat[d - n] = 0.0 + row[j] / rows[j - 1][j - 1]
        if j + 1 < len(row):
            flat[d] = 0.0 + ((ratio := row[j + 1] / row[j]) - last)
            last = ratio
    if True in map(math.isnan, flat):
        raise np.linalg.LinAlgError(_NO_CONVERGENCE)
    return np.array(flat).reshape(n, n)


def _on_half_line(
    scaled: np.ndarray, k: int, nodes: np.ndarray, weights: np.ndarray, clip=False
):
    """A rule (nodes, weights) of the Hankel matrix of order k as a law of
    the moments scaled, or None where it leaves R+.  For odd k the rule
    is that of q mu: each weight is divided by its node, which must be
    positive, and the mass left over sits at 0, last.  `clip` counts a
    negative mass left over as none, for the moment check to judge: a law
    with no atom at 0 leaves a few ulps of either sign there."""
    if k % 2:
        if True in (nodes <= 0.0).tolist():
            return None
        weights = weights / nodes
        rest = scaled[0] - weights.sum()
        nodes = np.concatenate((nodes, [0.0]))
        weights = np.concatenate((weights, [max(0.0, rest) if clip else rest]))
    if True in (nodes < 0.0).tolist() or True in (weights < 0.0).tolist():
        return None
    return nodes, weights


def _rank(hankel: np.ndarray) -> int:
    """Numerical rank of a positive semidefinite matrix: the count of its
    eigenvalues above 1e-12 times its largest diagonal entry."""
    tol = 1e-12 * hankel.diagonal().max()
    return int(np.count_nonzero(_eigvalsh(hankel) > tol))


def _boundary_law(scaled: np.ndarray, k: int):
    """The law of the moments scaled[0..k] on the boundary of the moment
    cone, as nodes and weights in units of the threshold, or None where
    the order-k Hankel matrix of :func:`_radau_law` is not singular or the
    law found misses a moment by more than relative 1e-10.

    On the boundary the Hankel matrix has rank r below its size: r
    eigenvalues above 1e-12 of its largest diagonal entry (:func:`_rank`).
    Its leading r x r block is that of the unique law with these moments:
    r atoms, and for odd k the atom at 0 of :func:`_radau_law` (Curto &
    Fialkow 1991).  The block and the column after it give the r-node
    Gauss rule by Golub-Welsch.  A rank that is wrong yields a rule that
    fails the moment check or leaves R+, or a factorization that raises
    `LinAlgError`.
    """
    hankel = _hankel_matrix(scaled, k)
    r = _rank(hankel)
    if not 0 < r < len(hankel):
        return None
    # one error state for the rule's gufuncs; the caller catches what fails
    with _lapack_state(_NO_CONVERGENCE):
        lead = _cholesky.raw(hankel[:r, :r])
        upper = _solve.raw(lead, hankel[:r, : r + 1])
        nodes, vectors = _eigh.raw(_jacobi(upper))
    law = _on_half_line(scaled, k, nodes, hankel[0, 0] * vectors[0] ** 2, clip=True)
    return law if law is not None and _fits(scaled, *law) else None


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
    return np.concatenate((nodes, [far])), np.concatenate((weights, [omega]))


def _interpolant(nodes: np.ndarray, k: int) -> list:
    """Coefficients, in units of the threshold, of the polynomial p that
    certifies a law with these nodes, among them 1: the Gauss-Radau rule
    of order k (:func:`_radau_law`), or the boundary law of order k with
    1 added (:func:`_boundary_law`).  p(1) = 1, p = [x >= 1] and p' = 0
    at every other positive node, and p = 0 at the atom at 0 that odd
    orders add, last.  Every node but 1 and that atom counts twice, and
    p has degree one less than the count: k for the order-k rule, and
    2r + (k mod 2) for r positive atoms of a boundary law not at 1.  p is
    built in Newton form over the nodes in ascending order, whose divided
    differences stay accurate at the small nodes that carry most of the
    mass; at a repeated node the first difference is p' = 0."""
    z = nodes.tolist()
    z = sorted(z + [x for x in (z[:-1] if k % 2 else z) if x != 1.0])
    degree = len(z) - 1
    diffs = [1.0 if x >= 1.0 else 0.0 for x in z]
    for level in range(1, degree + 1):
        for i in range(degree, level - 1, -1):
            step = z[i] - z[i - level]
            diffs[i] = (diffs[i] - diffs[i - 1]) / step if step > 0.0 else 0.0
    # Horner's rule on the Newton form, in place: p <- p (x - z_j) + diffs_j
    # for j = degree - 1 down to 0, where p has `size` coefficients
    coeffs = [diffs[degree]] * (degree + 1)
    for size, (x, diff) in enumerate(zip(z[-2::-1], diffs[-2::-1]), 1):
        coeffs[size] = coeffs[size - 1] - x * 0.0
        for i in range(size - 1, 0, -1):
            coeffs[i] = coeffs[i - 1] - x * coeffs[i]
        coeffs[0] = (0.0 - x * coeffs[0]) + diff
    return coeffs
