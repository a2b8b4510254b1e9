"""Closed-loop simulation of a stochastic LTI plant with a steady-state
Kalman estimator.

The plant is x[t+1] = A x[t] + B u[t] + w[t] with measurements
y[t] = C x[t] + v[t] (+ an optional sensor attack), state feedback
u[t] = K xhat[t], and estimator update
xhat[t+1] = A xhat[t] + B u[t] + L (y[t] - C xhat[t]).  The residual
r[t] = y[t] - C xhat[t] has steady-state covariance
sigma_r = C P C' + sigma_v, and the detection measure is the quadratic
form q[t] = r[t]' sigma_r^{-1} r[t].
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg

if TYPE_CHECKING:
    from .attack_reach import AttackPolicy

__all__ = [
    "LtiSystem",
    "NoiseFamily",
    "NoiseModel",
    "ResidualTrace",
    "solve_dare",
    "simulate",
    "empirical_false_alarm_rate",
]


# steps per banded solve in _linear_path; its band holds 2 d^2 _CHUNK floats
_CHUNK = 1024
(_TBTRS,) = scipy.linalg.get_lapack_funcs(("tbtrs",), dtype=np.float64)
(_DGTSV,) = scipy.linalg.get_lapack_funcs(("gtsv",), dtype=np.float64)
(_ZGTSV,) = scipy.linalg.get_lapack_funcs(("gtsv",), dtype=np.complex128)


def _as_matrix(value, name: str) -> np.ndarray:
    mat = np.array(value, dtype=float)
    if mat.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} must be finite")
    return mat


def _check_symmetric_psd(mat: np.ndarray, name: str, definite: bool = False):
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(mat).max())):
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    scale = max(1.0, float(np.abs(mat).max()))
    if definite:
        if eigs[0] <= 0:
            raise ValueError(f"{name} must be positive definite")
    elif eigs[0] < -1e-12 * scale:
        raise ValueError(f"{name} must be positive semidefinite")


def _psd_factor(mat: np.ndarray) -> np.ndarray:
    """Square factor F with F F' = mat, tolerant of semidefinite input."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def solve_dare(
    A: np.ndarray,
    C: np.ndarray,
    sigma_w: np.ndarray,
    sigma_v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point iteration on the predicted-error-covariance Riccati map

        P <- A (P - P C' (C P C' + sigma_v)^{-1} C P) A' + sigma_w,

    started from sigma_w and iterated to relative tolerance 1e-12, for
    at most 100000 steps.
    Returns (P, L) with the innovation gain of the estimator update,
    L = A P C' (C P C' + sigma_v)^{-1}.

    Raises ArithmeticError on non-convergence, which signals a
    detectability violation.
    """
    A = _as_matrix(A, "A")
    C = _as_matrix(C, "C")
    sigma_w = _as_matrix(sigma_w, "sigma_w")
    sigma_v = _as_matrix(sigma_v, "sigma_v")
    p_cov = sigma_w.copy()
    for _ in range(100_000):
        s = C @ p_cov @ C.T + sigma_v
        gain = np.linalg.solve(s, C @ p_cov).T  # P C' S^{-1}
        p_next = A @ (p_cov - gain @ C @ p_cov) @ A.T + sigma_w
        p_next = 0.5 * (p_next + p_next.T)
        delta = np.linalg.norm(p_next - p_cov, "fro")
        p_cov = p_next
        if delta <= 1e-12 * max(1.0, np.linalg.norm(p_cov, "fro")):
            break
    else:
        raise ArithmeticError(
            "Riccati iteration did not converge; check detectability of (A, C)"
        )
    s = C @ p_cov @ C.T + sigma_v
    gain = A @ np.linalg.solve(s, C @ p_cov).T
    return p_cov, gain


def _pbh_checks(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> None:
    """PBH rank tests on every unstable eigenvalue of A."""
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) < 1.0 - 1e-9:
            continue
        shifted = lam * np.eye(n) - A
        if np.linalg.matrix_rank(np.vstack([shifted, C])) < n:
            raise ValueError(f"(A, C) not detectable at eigenvalue {lam:.4g}")
        if np.linalg.matrix_rank(np.hstack([shifted, B])) < n:
            raise ValueError(f"(A, B) not stabilizable at eigenvalue {lam:.4g}")


@dataclass(frozen=True)
class LtiSystem:
    """Plant, feedback, and estimator data with derived filter quantities.

    Build through :meth:`from_matrices`, which solves the Riccati
    equation and validates detectability, stabilizability, and closed-
    loop stability (both A + B K and A - L C must be Schur stable).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    K: np.ndarray
    sigma_w: np.ndarray
    sigma_v: np.ndarray
    L: np.ndarray
    P: np.ndarray
    sigma_r: np.ndarray
    sigma_r_inv: np.ndarray
    sigma_r_sqrt: np.ndarray

    def __post_init__(self) -> None:
        for name in (
            "A",
            "B",
            "C",
            "K",
            "sigma_w",
            "sigma_v",
            "L",
            "P",
            "sigma_r",
            "sigma_r_inv",
            "sigma_r_sqrt",
        ):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_matrices(cls, A, B, C, K, sigma_w, sigma_v) -> "LtiSystem":
        A = _as_matrix(A, "A")
        B = _as_matrix(B, "B")
        C = _as_matrix(C, "C")
        K = _as_matrix(K, "K")
        sigma_w = _as_matrix(sigma_w, "sigma_w")
        sigma_v = _as_matrix(sigma_v, "sigma_v")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        m = B.shape[1]
        p = C.shape[0]
        if B.shape != (n, m) or C.shape != (p, n) or K.shape != (m, n):
            raise ValueError("B, C, K dimensions are mutually inconsistent")
        if sigma_w.shape != (n, n) or sigma_v.shape != (p, p):
            raise ValueError("noise covariances have wrong shapes")
        _check_symmetric_psd(sigma_w, "sigma_w")
        _check_symmetric_psd(sigma_v, "sigma_v", definite=True)
        _pbh_checks(A, B, C)
        P, L = solve_dare(A, C, sigma_w, sigma_v)
        sigma_r = C @ P @ C.T + sigma_v
        sigma_r = 0.5 * (sigma_r + sigma_r.T)
        rho_ctrl = max(abs(np.linalg.eigvals(A + B @ K)))
        rho_est = max(abs(np.linalg.eigvals(A - L @ C)))
        if rho_ctrl >= 1.0 or rho_est >= 1.0:
            raise ValueError(
                "closed loop unstable: spectral radius of A + B K is "
                f"{rho_ctrl:.6g}, of A - L C is {rho_est:.6g}"
            )
        return cls(
            A=A,
            B=B,
            C=C,
            K=K,
            sigma_w=sigma_w,
            sigma_v=sigma_v,
            L=L,
            P=P,
            sigma_r=sigma_r,
            sigma_r_inv=np.linalg.inv(sigma_r),
            sigma_r_sqrt=_sym_sqrt(sigma_r),
        )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


class NoiseFamily(enum.Enum):
    GAUSSIAN = "gaussian"
    MULTIVARIATE_LAPLACIAN = "multivariate_laplacian"


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean iid noise with a prescribed covariance.

    The multivariate Laplacian is the Gaussian scale mixture
    sqrt(e) g with g ~ N(0, covariance) and e ~ Exponential(1) drawn
    independently per sample; it keeps the covariance and has coordinate
    kurtosis 6.  Streams are counter-based (Philox), so every run is
    reproducible from the seed alone.
    """

    family: NoiseFamily
    covariance: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        cov = _as_matrix(self.covariance, "covariance")
        _check_symmetric_psd(cov, "covariance")
        cov.flags.writeable = False
        object.__setattr__(self, "covariance", cov)
        if not isinstance(self.family, NoiseFamily):
            raise ValueError(f"unknown noise family {self.family!r}")

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    def sample(self, size: int) -> np.ndarray:
        """Draw `size` iid vectors as rows, from a fresh stream at the seed."""
        if size < 1:
            raise ValueError("sample size must be positive")
        rng = np.random.Generator(np.random.Philox(self.seed))
        factor = _psd_factor(self.covariance)
        draws = rng.standard_normal((size, self.dim)) @ factor.T
        if self.family is NoiseFamily.MULTIVARIATE_LAPLACIAN:
            draws *= np.sqrt(rng.exponential(1.0, size=size))[:, None]
        return draws


@dataclass(frozen=True)
class ResidualTrace:
    """Recorded residuals r[t], detection measures q[t], and optionally
    the plant states (kept by attack simulations)."""

    residuals: np.ndarray
    q_values: np.ndarray
    states: np.ndarray | None = None

    def __post_init__(self) -> None:
        residuals = np.asarray(self.residuals, dtype=float)
        q_values = np.asarray(self.q_values, dtype=float)
        if residuals.ndim != 2 or q_values.ndim != 1:
            raise ValueError("residuals must be (T, p) and q_values (T,)")
        if residuals.shape[0] != q_values.shape[0]:
            raise ValueError("residuals and q_values disagree on length")
        if np.any(q_values < -1e-12):
            raise ValueError("detection measure must be nonnegative")
        q_values = np.clip(q_values, 0.0, None)
        residuals.flags.writeable = False
        q_values.flags.writeable = False
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "q_values", q_values)
        if self.states is not None:
            states = np.asarray(self.states, dtype=float)
            if states.shape[0] != q_values.shape[0]:
                raise ValueError("states and q_values disagree on length")
            states.flags.writeable = False
            object.__setattr__(self, "states", states)

    @property
    def length(self) -> int:
        return self.q_values.shape[0]


def _mode_path(lam, x: np.ndarray) -> np.ndarray:
    """y[t] = x[t] + lam y[t-1] from y[-1] = 0: the unit lower-bidiagonal
    system with subdiagonal -lam, solved by LAPACK gtsv in the dtype of x
    (complex whenever lam is).

    gtsv does not pivot while the unit diagonal dominates, |lam| <= 1 for
    real lam, and then computes fl(x[t] + fl(lam y[t-1])) step by step,
    bit for bit the two-rounding scalar loop.  Complex lam pivots once
    |Re lam| + |Im lam| > 1; the path then agrees with the scalar loop to
    about 3e-15 relative, not bit for bit.
    """
    gtsv = _ZGTSV if np.iscomplexobj(x) else _DGTSV
    off = max(x.size - 1, 1)  # the wrapper wants an off-diagonal even at size 1
    _, _, _, y, _ = gtsv(np.full(off, -lam), np.ones(x.size), np.zeros(off), x[:, None])
    return y[:, 0]


def _error_path_modal(
    F: np.ndarray, inputs: np.ndarray
) -> np.ndarray | None:
    """Estimation-error path e[t+1] = F e[t] + inputs[t] from e[0] = 0 by
    one `_mode_path` per eigenmode; None when F is too far from
    diagonalizable for the modal route to be trustworthy.  The modes of a
    Schur-stable F with real eigenvalues follow the scalar loop bit for
    bit."""
    vals, vecs = np.linalg.eig(F)
    if np.linalg.cond(vecs) > 1e8:
        return None
    total = inputs.shape[0]
    modal_in = np.linalg.solve(vecs, inputs.T)  # (n, total)
    modal_out = np.empty_like(modal_in)
    for i, lam in enumerate(vals):
        modal_out[i] = _mode_path(lam, modal_in[i])
    e = np.zeros((total, F.shape[0]))
    e[1:] = (vecs @ modal_out[:, :-1]).T.real
    return e


def _linear_path(M: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Path z[t+1] = M z[t] + u[t] from z[0] = 0, one row per step t: a unit
    lower-triangular system with 2 d - 1 subdiagonals (d = len(z)), solved
    by LAPACK tbtrs _CHUNK steps at a time from the last state before."""
    d = M.shape[0]
    # band column j of a step: the unit diagonal and, d - j rows down, -M[:, j]
    block = np.zeros((2 * d, d))
    block[0] = 1.0
    for j in range(d):
        block[d - j : 2 * d - j, j] = -M[:, j]
    band = np.asfortranarray(np.tile(block, _CHUNK))
    z = np.zeros_like(u)
    z[1:] = u[:-1]
    for start in range(0, u.shape[0] - 1, _CHUNK):
        chunk = z[start + 1 : start + 1 + _CHUNK]
        chunk[0] += M @ z[start]
        rhs = chunk.reshape(-1, 1)
        sol, _ = _TBTRS(band[:, : rhs.shape[0]], rhs, uplo="L", diag="U")
        chunk[:] = sol.reshape(chunk.shape)
    return z


def simulate(
    sys: LtiSystem,
    noise_w: NoiseModel,
    noise_v: NoiseModel,
    T: int,
    attack: AttackPolicy | None = None,
    burn_in: int = 1000,
    keep_states: bool = False,
) -> ResidualTrace:
    """Run the closed loop from zero states for `burn_in + T` steps and
    record the last T.

    Two routes.  Attack-free without states, the control input cancels
    out of the residual, and the estimation error
    e[t+1] = (A - L C) e[t] + w[t] - L v[t] is one bidiagonal solve per
    eigenmode (`_error_path_modal`).
    Otherwise, and when A - L C resists diagonalization, the path is
    linear with known inputs and `_linear_path` solves it in banded
    chunks: z = (x, e) attack-free, with r = C e + v, and z = (x, xhat)
    under an attack, whose pinned residuals r drive xhat through L r.
    Raises ArithmeticError at the first plant state whose norm exceeds
    1e12 or is not finite.
    """
    if T < 1:
        raise ValueError("simulation length must be positive")
    if burn_in < 0:
        raise ValueError("burn-in must be nonnegative")
    if noise_w.dim != sys.n or noise_v.dim != sys.p:
        raise ValueError("noise dimensions do not match the system")
    total = burn_in + T
    w = noise_w.sample(total)
    v = noise_v.sample(total)
    F = sys.A - sys.L @ sys.C
    bk = sys.B @ sys.K
    zero = np.zeros_like(bk)
    if attack is None:
        inputs = w - v @ sys.L.T
        if not keep_states:
            e = _error_path_modal(F, inputs)
            if e is not None:
                r = e @ sys.C.T + v
                q = np.einsum("ij,jk,ik->i", r, sys.sigma_r_inv, r)
                return ResidualTrace(r[burn_in:], q[burn_in:])
        M = np.block([[sys.A + bk, -bk], [zero, F]])
        z = _linear_path(M, np.hstack([w, inputs]))
    else:
        r = attack.residuals(sys, total)
        M = np.block([[sys.A, bk], [zero, sys.A + bk]])
        z = _linear_path(M, np.hstack([w, r @ sys.L.T]))
    x, e = np.split(z, 2, axis=1)
    with np.errstate(over="ignore"):  # a diverged path may overflow to inf
        diverged = ~(np.linalg.norm(x, axis=1) <= 1e12)
    if diverged.any():
        raise ArithmeticError(f"state diverged at step {diverged.argmax()}")
    if attack is None:
        r = e @ sys.C.T + v
    q = np.einsum("ij,jk,ik->i", r, sys.sigma_r_inv, r)
    return ResidualTrace(r[burn_in:], q[burn_in:], x[burn_in:] if keep_states else None)


def empirical_false_alarm_rate(trace: ResidualTrace, alpha: float) -> float:
    """Fraction of steps with q > alpha (strict, per the alarm rule).
    Meaningful as a false-alarm rate only on attack-free traces."""
    if alpha < 0:
        raise ValueError("threshold must be nonnegative")
    return float(np.mean(trace.q_values > alpha))
