"""Dense primal-dual interior-point solver for the moment-bound program.

Solves problems in the form

    minimize    c_f . u
    subject to  A_f u  +  sum_j A_j svec(X_j)  =  b
                X_j positive semidefinite,  u free,

the layout :func:`drdetect.bound_engine.build_sdp` produces: a handful of
free variables carry the objective, and the dense positive-semidefinite
blocks are all of one single-digit size.  The scheme is the usual
infeasible-start Mehrotra predictor-corrector with Nesterov-Todd scaling;
per iteration one LU factorization of the (m + f) x (m + f) augmented KKT
system.  The blocks ride on the leading axis of every array, so each
block operation is one numpy call over the stack, and the primal X and
the dual S share one stack wherever the iteration treats them alike;
stacked matmul, eigh, eigvalsh and cholesky round each slice exactly as
a call on that slice alone does.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

# float64 triangular solve and LU factorization and solve, scipy's own
# wrappers loaded by _scipy_ext; getrf/getrs are the routines under scipy's
# LU helpers, so the KKT solves round exactly as through those helpers
from ._scipy_ext import getrf as _GETRF, getrs as _GETRS, trtrs as _TRTRS

__all__ = [
    "Status",
    "ConicProblem",
    "ConicSolution",
    "svec",
    "smat",
    "svec_dim",
    "solve",
]

_SQRT2 = math.sqrt(2.0)
# residuals and gap, relative to the problem scale, at which a run is optimal
_TOL = 1e-9
_MAX_ITER = 100
# iterations without halving the best score after which a run has stalled
_STALL_ITERS = 20


class Status(enum.Enum):
    OPTIMAL = "optimal"
    MAX_ITER = "max_iter"
    NUMERICAL_TROUBLE = "numerical_trouble"


def svec_dim(n: int) -> int:
    return n * (n + 1) // 2


def _svec_order(d: int) -> int:
    """The n with svec_dim(n) = d."""
    n = int(round((math.sqrt(8 * d + 1) - 1) / 2))
    if svec_dim(n) != d:
        raise ValueError(f"length {d} is not a triangular number")
    return n


@functools.lru_cache(maxsize=None)
def _svec_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, scale) of the svec layout of an n x n matrix: the upper
    triangle column by column, scale 1 on the diagonal and sqrt(2) off it."""
    rows, cols = np.array(
        [(i, j) for j in range(n) for i in range(j + 1)], dtype=np.intp
    ).reshape(-1, 2).T
    scale = np.where(rows == cols, 1.0, _SQRT2)
    for arr in (rows, cols, scale):
        arr.flags.writeable = False
    return rows, cols, scale


def svec(mat: np.ndarray) -> np.ndarray:
    """Stack the upper triangle column by column, off-diagonal entries
    scaled by sqrt(2), so that svec(M) . svec(N) = <M, N>.  A stack of
    matrices (..., n, n) maps to a stack of vectors (..., d)."""
    rows, cols, scale = _svec_index(mat.shape[-1])
    return mat[..., rows, cols] * scale


def smat(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`svec`, also over a stack (..., d)."""
    n = _svec_order(vec.shape[-1])
    rows, cols, scale = _svec_index(n)
    out = np.empty(vec.shape[:-1] + (n, n))
    vals = vec / scale
    out[..., rows, cols] = vals
    out[..., cols, rows] = vals
    return out


@functools.lru_cache(maxsize=None)
def _smat_basis(n: int) -> np.ndarray:
    """The (d, n, n) stack of smat(e_i) over the svec basis vectors e_i."""
    basis = np.stack([smat(e) for e in np.eye(svec_dim(n))])
    basis.flags.writeable = False
    return basis


def _t(mat: np.ndarray) -> np.ndarray:
    """Transpose of each matrix of a stack (..., n, n)."""
    return mat.swapaxes(-1, -2)


def _sym_kron(w: np.ndarray) -> np.ndarray:
    """Matrix of the congruence map M -> W M W in svec coordinates, for
    each W of a stack (..., n, n); column i is svec(W smat(e_i) W)."""
    # the stacked matmul repeats the per-column products exactly; the copy
    # keeps the C layout, so products with the result take the same BLAS
    # calls as before and round the same way
    w = w[..., None, :, :]
    return np.ascontiguousarray(_t(svec(w @ _smat_basis(w.shape[-1]) @ w)))


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + _t(mat))


def _psd_sqrt_pair(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M^{1/2}, M^{-1/2}) of each symmetric positive-definite matrix of a
    stack (..., n, n)."""
    vals, vecs = np.linalg.eigh(mat)
    if (vals[..., 0] <= 0).any():
        raise np.linalg.LinAlgError("matrix not positive definite")
    root = np.sqrt(vals)[..., None, :]
    vecs_t = _t(vecs)
    return (vecs * root) @ vecs_t, (vecs / root) @ vecs_t


@dataclass(frozen=True)
class ConicProblem:
    """Conic program data; see the module docstring for the layout.  The
    blocks must all have one size, which the common width of the
    `a_blocks` matrices fixes; they are stored stacked, as one read-only
    (blocks, m, svec_dim(n)) array."""

    c_free: np.ndarray
    a_free: np.ndarray
    a_blocks: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        c_free = np.atleast_1d(np.asarray(self.c_free, dtype=float))
        a_free = np.asarray(self.a_free, dtype=float)
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        blocks = [np.asarray(a, dtype=float) for a in self.a_blocks]
        m = b.shape[0]
        if c_free.shape[0] == 0:
            raise ValueError("the objective needs at least one free variable")
        if a_free.shape != (m, c_free.shape[0]):
            raise ValueError("free-variable constraint matrix has wrong shape")
        if not blocks:
            raise ValueError("the program needs at least one PSD block")
        for a_mat in blocks:
            if a_mat.ndim != 2 or a_mat.shape[0] != m:
                raise ValueError("PSD-block constraint matrix has wrong shape")
            _svec_order(a_mat.shape[1])  # raises unless the width is svec_dim(n)
        if len({a_mat.shape[1] for a_mat in blocks}) != 1:
            raise ValueError("the PSD blocks must all have the same size")
        a_blocks = np.stack(blocks)
        data = (c_free, a_free, b, a_blocks)
        if not all(np.all(np.isfinite(arr)) for arr in data):
            raise ValueError("problem data must be finite")
        for arr in data:
            arr.flags.writeable = False
        object.__setattr__(self, "c_free", c_free)
        object.__setattr__(self, "a_free", a_free)
        object.__setattr__(self, "a_blocks", a_blocks)
        object.__setattr__(self, "b", b)


@dataclass
class ConicSolution:
    x_free: np.ndarray
    gap: float
    iterations: int
    status: Status


def _max_step(zs: np.ndarray, dzs: np.ndarray, parts: int = 2) -> tuple[float, ...]:
    """For each of `parts` equal parts of the stacks (blocks, n, n), the
    largest a with Z + a dZ psd for every Z, dZ of the part, each Z
    positive definite; 0 for a part where one Z is not.  The solver's
    stacks hold X, dX in the first half and S, dS in the second, so the
    default gives the (primal, dual) steps."""
    try:
        chols = np.linalg.cholesky(zs)
    except np.linalg.LinAlgError:
        if parts == 1:
            return (0.0,)
        # a stacked cholesky fails for the whole stack: take each part alone
        pairs = zip(np.split(zs, parts), np.split(dzs, parts))
        return sum((_max_step(z, dz, 1) for z, dz in pairs), ())
    # L^{-1} dZ L^{-T}; LAPACK reads the C-ordered factor L as the
    # Fortran-ordered upper factor L^T, so solve with its transpose.
    # LAPACK has no batched trtrs, so this is the one per-matrix loop.
    inners = np.empty_like(dzs)
    for chol, dz, inner in zip(chols, dzs, inners):
        half, _ = _TRTRS(chol.T, dz, lower=0, trans=1)
        inner[...] = _TRTRS(chol.T, half.T, lower=0, trans=1)[0]
    lows = np.linalg.eigvalsh(_sym(inners))[:, 0].reshape(parts, -1)
    # the step is monotone in the smallest eigenvalue, so the least over
    # a part gives its least step
    return tuple(
        np.inf if lo >= -1e-14 else -1.0 / lo for lo in lows.min(axis=1).tolist()
    )


def _stepped(zs: np.ndarray, dzs: np.ndarray, ap: float, ad: float) -> np.ndarray:
    """X + ap dX on the first half of the stacks, S + ad dS on the second."""
    half = zs.shape[0] // 2
    step = dzs * ap
    step[half:] = dzs[half:] * ad
    return zs + step


def _mv(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The products mats[j] @ vecs[j] over a stack of blocks."""
    # matmul makes one gemv per block, as the product of that block alone
    # does; np.einsum sums in another order and rounds differently
    return (mats @ vecs[..., None])[..., 0]


def _inner_sum(xs: np.ndarray, ss: np.ndarray) -> float:
    """sum_j <X_j, S_j>, one block sum after the other."""
    return sum((xs * ss).sum(axis=(1, 2)).tolist())


def _lyap_solve(q: np.ndarray, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (lam Y + Y lam) / 2 = rhs for symmetric Y, lam = Q diag(d) Q',
    for each matrix of the stacks."""
    g = _t(q) @ rhs @ q
    denom = 0.5 * (d[..., :, None] + d[..., None, :])
    return q @ (g / denom) @ _t(q)


def _kkt_solve(
    lu: np.ndarray, piv: np.ndarray, kkt: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve kkt @ sol = rhs from the `_GETRF` factors of kkt, with one
    step of iterative refinement."""
    sol, _ = _GETRS(lu, piv, rhs)
    if not np.isfinite(sol).all():
        raise np.linalg.LinAlgError("singular KKT system")
    sol += _GETRS(lu, piv, rhs - kkt @ sol)[0]
    if not np.isfinite(sol).all():
        raise np.linalg.LinAlgError("singular KKT system")
    return sol


def solve(prob: ConicProblem) -> ConicSolution:
    """Run the predictor-corrector iteration until the primal/dual
    residuals and the complementarity gap all fall below `_TOL` (relative
    to the problem scale).

    The start is u = e_0 and X_j = (1 + sum |c_f|) I, S_j = I, lambda = 0.
    The score of an iterate is the largest of the three measures.  A run
    whose best score has not halved within `_STALL_ITERS` iterations has
    stalled: it stops with `NUMERICAL_TROUBLE` instead of running on to
    `_MAX_ITER`.  So does a run whose iteration raises `LinAlgError`: a
    point that cannot be scaled, a singular KKT system, no step on
    either side, or an iterate that is not finite.  Any run that does
    not reach `OPTIMAL` returns its best-scored iterate."""
    m = prob.b.shape[0]
    f = prob.c_free.shape[0]
    a_mats = prob.a_blocks
    a_mats_t = _t(a_mats)
    nb, n = a_mats.shape[0], _svec_order(a_mats.shape[2])
    n_tot = nb * n
    c_norm = 1.0 + math.sqrt(float(np.dot(prob.c_free, prob.c_free)))
    b_norm = 1.0 + float(np.linalg.norm(prob.b))

    u = np.zeros(f)
    u[0] = 1.0
    init_scale = 1.0 + float(np.sum(np.abs(prob.c_free)))
    eyes = np.repeat(np.eye(n)[None], nb, axis=0)
    # X and S ride on one stack (2 nb, n, n), X first: every step that
    # treats the primal and the dual side alike is one call over it
    zs = np.concatenate([init_scale * eyes, eyes])
    lam = np.zeros(m)

    best = None
    best_score = np.inf
    halved_score = np.inf
    halved_at = 0
    status = Status.MAX_ITER
    iterations = 0

    for iteration in range(_MAX_ITER + 1):
        xs, ss = zs[:nb], zs[nb:]
        z_vec = svec(zs)
        rp = prob.b - prob.a_free @ u
        for a_x in _mv(a_mats, z_vec[:nb]):  # block by block, in order
            rp = rp - a_x
        rd_free = prob.c_free - prob.a_free.T @ lam
        rd_cone = -(a_mats_t @ lam) - z_vec[nb:]
        gap = _inner_sum(xs, ss)
        pobj = float(np.dot(prob.c_free, u))
        dobj = float(np.dot(prob.b, lam))
        res_p = float(np.linalg.norm(rp)) / b_norm
        res_d = (
            math.sqrt(
                float(np.dot(rd_free, rd_free))
                + sum(float(np.dot(r, r)) for r in rd_cone)
            )
            / c_norm
        )
        rel_gap = gap / max(1.0, abs(pobj), abs(dobj))
        iterations = iteration
        score = max(res_p, res_d, rel_gap)
        if score < best_score:
            best_score = score
            best = (u, gap)
        if res_p <= _TOL and res_d <= _TOL and rel_gap <= _TOL:
            status = Status.OPTIMAL
            break
        if best_score <= 0.5 * halved_score:
            halved_score = best_score
            halved_at = iteration
        elif iteration - halved_at >= _STALL_ITERS:
            status = Status.NUMERICAL_TROUBLE
            break
        if iteration == _MAX_ITER:
            status = Status.MAX_ITER
            break

        mu = gap / n_tot
        # every exit below is a LinAlgError, and they all end the run alike
        try:
            # Nesterov-Todd scaling per block: W S W = X.
            s_half, s_ihalf = _psd_sqrt_pair(ss)
            t_half, _ = _psd_sqrt_pair(_sym(s_half @ xs @ s_half))
            w = _sym(s_ihalf @ t_half @ s_ihalf)
            r_half, r_ihalf = _psd_sqrt_pair(w)
            # W^{-1/2} on the X half, W^{1/2} on the S half
            rs = np.concatenate([r_ihalf, r_half])
            scaled = rs @ zs @ rs
            lam_mat = _sym(0.5 * (scaled[:nb] + scaled[nb:]))
            d_l, q_l = np.linalg.eigh(lam_mat)
            if (d_l[:, 0] <= 0).any():
                raise np.linalg.LinAlgError("scaled point not positive")

            e_mats = _sym_kron(w)
            kkt = np.zeros((m + f, m + f))
            # the builtin sum adds the blocks' Schur terms in order, from 0
            kkt[:m, :m] = sum(a_mats @ e_mats @ a_mats_t)
            kkt[:m, m:] = prob.a_free
            kkt[m:, :m] = prob.a_free.T
            lu, piv, info = _GETRF(kkt)
            if info != 0:
                # an exactly singular KKT matrix has a zero pivot
                raise np.linalg.LinAlgError("singular KKT matrix")

            def newton(rp_v, rdf_v, rdc_v, rc_v):
                """(du, the stack of dX and dS, dlambda)."""
                rhs = np.concatenate(
                    [rp_v + sum(_mv(a_mats, _mv(e_mats, rdc_v) - rc_v)), rdf_v]
                )
                sol = _kkt_solve(lu, piv, kkt, rhs)
                dlam, du = sol[:m], sol[m:]
                ds = rdc_v - a_mats_t @ dlam
                dx = rc_v - _mv(e_mats, ds)
                return du, smat(np.concatenate([dx, ds])), dlam

            # predictor: aim at the boundary (sigma = 0)
            du_a, dzs_a, dlam_a = newton(rp, rd_free, rd_cone, -z_vec[:nb])
            ap, ad = _max_step(zs, dzs_a)
            z_aff = _stepped(zs, dzs_a, min(1.0, ap), min(1.0, ad))
            gap_aff = _inner_sum(z_aff[:nb], z_aff[nb:])
            mu_aff = max(gap_aff, 0.0) / n_tot
            sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))

            # corrector in the scaled space, with the Mehrotra cross term
            scaled = rs @ dzs_a @ rs
            dxi, dsg = scaled[:nb], scaled[nb:]
            rhs_mat = (
                sigma * mu * np.eye(n)
                - lam_mat @ lam_mat
                - 0.5 * (dxi @ dsg + dsg @ dxi)
            )
            sol_mat = _lyap_solve(q_l, d_l, _sym(rhs_mat))
            rc = svec(_sym(r_half @ sol_mat @ r_half))
            du, dzs, dlam = newton(rp, rd_free, rd_cone, rc)

            ap, ad = _max_step(zs, dzs)
            ap, ad = min(1.0, 0.98 * ap), min(1.0, 0.98 * ad)
            if ap < 1e-10 and ad < 1e-10:
                raise np.linalg.LinAlgError("no step on either side")

            u = u + ap * du
            lam = lam + ad * dlam
            zs = _sym(_stepped(zs, dzs, ap, ad))
            if not all(np.isfinite(arr).all() for arr in (zs, u, lam)):
                raise np.linalg.LinAlgError("iterate not finite")
        except np.linalg.LinAlgError:
            status = Status.NUMERICAL_TROUBLE
            break

    if status is not Status.OPTIMAL and best is not None:
        u, gap = best
    return ConicSolution(x_free=u, gap=gap, iterations=iterations, status=status)
