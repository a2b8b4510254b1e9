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
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from ._lapack import tbtrs as _TBTRS
from .moment_core import _check_count

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
# steps per piece of the attack-free stream; a multiple of _CHUNK, so the
# pieces keep _linear_path's grid of banded solves
_STREAM = 64 * _CHUNK


def _as_matrix(value, name: str) -> np.ndarray:
    try:
        mat = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a matrix") from None
    if mat.ndim != 2:
        raise ValueError(f"{name} must be a matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} must be finite")
    return mat


def _check_symmetric_psd(mat: np.ndarray, name: str, definite: bool = False):
    if mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square")
    scale = max(1.0, float(np.abs(mat).max()))
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * scale):
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if definite and eigs[0] <= 0:
        raise ValueError(f"{name} must be positive definite")
    if eigs[0] < -1e-12 * scale:
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
    # the series of `attack_reach.reach_bound` on this plant, which builds
    # it on its first call and extends it to longer horizons; not a field,
    # so `dataclasses.replace` gives a system that builds its own
    _reach_series = None

    def __post_init__(self) -> None:
        for field in fields(self):
            arr = np.asarray(getattr(self, field.name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, field.name, arr)

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
            raise ValueError(f"sigma_w must be {n} x {n} and sigma_v {p} x {p}")
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
    def p(self) -> int:
        return self.C.shape[0]


class NoiseFamily(enum.Enum):
    GAUSSIAN = "gaussian"
    MULTIVARIATE_LAPLACIAN = "multivariate_laplacian"


def _check_seed(seed) -> None:
    """The seed rule of every noise stream: a nonnegative integer, a
    numpy one included, and not a bool."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")


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
        _check_seed(self.seed)

    @property
    def dim(self) -> int:
        return self.covariance.shape[0]

    def sample(self, size: int) -> np.ndarray:
        """Draw `size` iid vectors as rows: standard normals from
        Philox(seed) times a factor of the covariance, each row scaled in
        the Laplacian family by the square root of an exponential from the
        stream of the seed's child.  Row t depends on t alone, so
        `sample(n)` is the head of `sample(N)`.  The rows come in the
        attack-free stream's pieces, joined."""
        _check_count(size, "sample size")
        if size < 1:
            raise ValueError("sample size must be positive")
        return np.concatenate(list(self._pieces(size)))

    def _pieces(self, size: int):
        """The rows of `sample(size)`, one array per `_stream_rows` range,
        in one pass.  Philox streams under distinct keys are independent
        and draw the same in pieces (Salmon et al., SC 2011); the scales
        are keyed by the seed's child, since seed + j is another model's."""
        # C-ordered: numpy multiplies a tall array by it about 3x faster
        # than by the transposed view, with the same bits from two rows on
        factor_t = np.ascontiguousarray(_psd_factor(self.covariance).T)
        normals = np.random.Generator(np.random.Philox(self.seed))
        scales = None
        if self.family is NoiseFamily.MULTIVARIATE_LAPLACIAN:
            child = np.random.SeedSequence(self.seed).spawn(1)[0]
            scales = np.random.Generator(np.random.Philox(child))
        for start, stop in _stream_rows(size):
            draws = normals.standard_normal((stop - start, self.dim)) @ factor_t
            if scales is not None:
                draws *= np.sqrt(scales.exponential(1.0, size=stop - start))[:, None]
            yield draws


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


def _stream_rows(total: int) -> list[tuple[int, int]]:
    """Row ranges [start, stop) of the attack-free stream: _STREAM rows
    each, and a rest shorter than _CHUNK joins the range before it.  numpy
    computes a product of one or two rows on other paths than a long one,
    with other bits, so no range is that short unless the run is."""
    starts = list(range(0, total, _STREAM))
    if len(starts) > 1 and total - starts[-1] < _CHUNK:
        starts.pop()
    return list(zip(starts, starts[1:] + [total]))


def _linear_path(M: np.ndarray, u: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """States z[0..L] of z[t+1] = M z[t] + u[t] from z[0] = z0, for the L
    rows of u: a unit lower-triangular system with 2 d - 1 subdiagonals
    (d = len(z)), solved by LAPACK tbtrs _CHUNK steps at a time from the
    last state before."""
    d = M.shape[0]
    # band column j of a step: -M[:, j], d - j rows below the unit diagonal,
    # which tbtrs with diag="U" implies and never reads, so row 0 stays 0
    block = np.zeros((2 * d, d))
    for j in range(d):
        block[d - j : 2 * d - j, j] = -M[:, j]
    band = np.asfortranarray(np.tile(block, _CHUNK))
    z = np.empty((u.shape[0] + 1, d))
    z[0] = z0
    z[1:] = u
    for start in range(0, u.shape[0], _CHUNK):
        chunk = z[start + 1 : start + 1 + _CHUNK]
        chunk[0] += M @ z[start]
        rhs = chunk.reshape(-1, 1)
        sol, _ = _TBTRS(band[:, : rhs.shape[0]], rhs, uplo="L", diag="U")
        chunk[:] = sol.reshape(chunk.shape)
    return z


def _check_states(x: np.ndarray, start: int) -> None:
    """Raise ArithmeticError at the first state whose norm exceeds 1e12 or
    is not finite; row i of x is step start + i.  The squared norms add
    the squared columns in order, one whole column at a time."""
    with np.errstate(over="ignore"):  # a diverged path may overflow to inf
        squares = x[:, 0] * x[:, 0]
        for col in x.T[1:]:
            squares += col * col
        diverged = ~(np.sqrt(squares) <= 1e12)
    if diverged.any():
        raise ArithmeticError(f"state diverged at step {start + diverged.argmax()}")


def _trace(sys: LtiSystem, r: np.ndarray, x, skip: int) -> ResidualTrace:
    """The trace of residuals r, their q = r' sigma_r^{-1} r and, unless
    None, states x, all without their first `skip` rows.  q adds
    (r[:, j] S[j, k]) r[:, k] over j, then k, on contiguous columns, so
    each row's q has the same bits at every run length: those of
    np.einsum("ij,jk,ik->i", r, sigma_r_inv, r) on three rows or more."""
    S = sys.sigma_r_inv
    cols = np.ascontiguousarray(r.T)
    q = np.zeros(r.shape[0])
    for j, rj in enumerate(cols):
        for k, rk in enumerate(cols):
            q += (rj * S[j, k]) * rk
    return ResidualTrace(r[skip:], q[skip:], None if x is None else x[skip:])


def _drawn_ahead(items):
    """The items of the iterator `items`, each drawn on one helper thread
    while the caller works on the item before.  In the attack-free stream
    each draw advances up to four generators: each model's normals and
    Laplacian scales.  An error raised by `items` reaches the caller with
    its own type.  The helper ends when `items` is exhausted or this
    generator is closed, waiting for the one draw in flight."""
    # loaded with the first stream, not with the package
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as helper:
        ahead = helper.submit(next, items, None)
        while (item := ahead.result()) is not None:
            ahead = helper.submit(next, items, None)
            yield item


def _attack_free_stream(
    sys: LtiSystem,
    noise_w: NoiseModel,
    noise_v: NoiseModel,
    T: int,
    burn_in: int,
    keep_states: bool = False,
):
    """`simulate`'s attack-free run, on arguments that `simulate` accepts,
    yielded as one ResidualTrace per range of `_stream_rows` that holds
    recorded steps.  Each range draws its noise and carries every path on
    from the last state before, so a caller that reduces the pieces holds
    about _STREAM steps at a time, and the joined pieces are the bits of
    one whole-run computation.  The (w, v) pieces of both noise models are
    drawn one piece ahead on one helper thread (`_drawn_ahead`; numpy's
    Philox fills release the GIL), while this thread runs the paths, the
    residual, q and the caller's work on the piece before.  The helper
    alone creates and advances the models' generators, in the order of a
    serial run, so every draw keeps its bits; it has ended when the stream
    is exhausted, closed or raises."""
    total = burn_in + T
    m_err = sys.A - sys.L @ sys.C
    bk = sys.B @ sys.K
    m_plant = sys.A + bk
    # C-ordered right operands of the tall products, as in `_pieces`
    l_t, c_t, bk_t = (np.ascontiguousarray(m.T) for m in (sys.L, sys.C, bk))
    e0 = x0 = np.zeros(sys.n)
    draws = _drawn_ahead(zip(noise_w._pieces(total), noise_v._pieces(total)))
    for (start, stop), (w, v) in zip(_stream_rows(total), draws):
        e = _linear_path(m_err, w - v @ l_t, e0)
        e0, e = e[-1], e[:-1]
        x = None
        if keep_states:
            x = _linear_path(m_plant, w - e @ bk_t, x0)
            x0, x = x[-1], x[:-1]
            _check_states(x, start)
        skip = max(burn_in - start, 0)
        if skip < stop - start:
            yield _trace(sys, e @ c_t + v, x, skip)


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

    The loop is a cascade of n-state paths, each driven by the one
    before, and every path is computed by `_linear_path`.  Attack-free,
    the estimation error follows e[t+1] = (A - L C) e[t] + w[t] - L v[t];
    the residual is r = C e + v, and with `keep_states` the plant follows
    as x[t+1] = (A + B K) x[t] + w[t] - B K e[t].  The attack-free run
    goes in bounded pieces of 65 536 steps that carry each path's state
    on, the pieces the CLI reduces to power sums and alarm counts without
    joining them; here they are joined.  One helper thread draws each
    piece's noise while the piece before runs, with the bits of a serial
    draw, and it has ended when `simulate` returns.  Under an attack the
    pinned residuals r drive the estimate,
    xhat[t+1] = (A + B K) xhat[t] + L r[t], and the estimate drives the
    plant, x[t+1] = A x[t] + w[t] + B K xhat[t].
    Where the plant path is computed, raises ArithmeticError at its first
    state whose norm exceeds 1e12 or is not finite.
    """
    _check_count(T, "simulation length T")
    _check_count(burn_in, "burn-in")
    if T < 1:
        raise ValueError("simulation length must be positive")
    if burn_in < 0:
        raise ValueError("burn-in must be nonnegative")
    if noise_w.dim != sys.n or noise_v.dim != sys.p:
        raise ValueError("noise dimensions do not match the system")
    if attack is None:
        parts = list(
            _attack_free_stream(sys, noise_w, noise_v, T, burn_in, keep_states)
        )
        return ResidualTrace(
            np.concatenate([part.residuals for part in parts]),
            np.concatenate([part.q_values for part in parts]),
            np.concatenate([part.states for part in parts]) if keep_states else None,
        )
    total = burn_in + T
    zero = np.zeros(sys.n)
    bk = sys.B @ sys.K
    l_t, bk_t = np.ascontiguousarray(sys.L.T), np.ascontiguousarray(bk.T)
    r = attack.residuals(sys, total)
    xhat = _linear_path(sys.A + bk, (r @ l_t)[:-1], zero)
    x = _linear_path(sys.A, (noise_w.sample(total) + xhat @ bk_t)[:-1], zero)
    _check_states(x, 0)
    return _trace(sys, r, x if keep_states else None, burn_in)


def _alarm_count(trace: ResidualTrace, alpha: float) -> int:
    """Steps of the trace with q > alpha (strict, per the alarm rule)."""
    if not 0 <= alpha < np.inf:
        raise ValueError("threshold must be finite and nonnegative")
    return int(np.count_nonzero(trace.q_values > alpha))


def empirical_false_alarm_rate(trace: ResidualTrace, alpha: float) -> float:
    """Fraction of steps with q > alpha (strict, per the alarm rule).
    Meaningful as a false-alarm rate only on attack-free traces."""
    return _alarm_count(trace, alpha) / trace.length
