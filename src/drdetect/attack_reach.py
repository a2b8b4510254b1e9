"""Zero-alarm sensor attacks and ellipsoidal reachable-set bounds.

An attacker that knows the estimation error and measurement noise can
inject delta[t] = -C e[t] - v[t] + sigma_r^{1/2} delta_bar[t], which
pins the residual to sigma_r^{1/2} delta_bar[t]; the detection measure
becomes q[t] = |delta_bar[t]|^2, so any choice with |delta_bar|^2 <=
alpha never raises an alarm.  The states reachable under such attacks
and bounded disturbances are outer-bounded by a Minkowski sum of
ellipsoids whose boundary is exact direction-by-direction (support
functions add under Minkowski sums), so a tighter detector threshold
shrinks the bound monotonically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cps_sim import LtiSystem

__all__ = [
    "Ellipsoid",
    "ReachBound",
    "AttackPolicy",
    "zero_alarm_attack",
    "noise_threshold",
    "reach_bound",
    "volume_comparison",
    "VolumeReport",
]

_FLAT_TOL = 1e-14
# steps per full turn of a rotating attack direction
_ROTATION_PERIOD = 64


@dataclass(frozen=True)
class Ellipsoid:
    """The set {Q^{1/2} u : |u| <= 1} for a symmetric PSD shape matrix Q,
    equivalently support function h(l) = sqrt(l' Q l)."""

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("shape matrix must be square")
        scale = max(1.0, float(np.abs(q).max()))
        if not np.allclose(q, q.T, rtol=0.0, atol=1e-10 * scale):
            raise ValueError("shape matrix must be symmetric")
        q = 0.5 * (q + q.T)
        if np.linalg.eigvalsh(q)[0] < -1e-10 * scale:
            raise ValueError("shape matrix must be positive semidefinite")
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def support(self, direction: np.ndarray) -> float:
        return math.sqrt(max(0.0, float(direction @ self.q @ direction)))

    def support_point(self, direction: np.ndarray) -> np.ndarray:
        """Maximizer of l'x over the ellipsoid; zero when the ellipsoid is
        flat in that direction."""
        val = float(direction @ self.q @ direction)
        if val < _FLAT_TOL:
            return np.zeros(self.dim)
        return (self.q @ direction) / math.sqrt(val)


def zero_alarm_attack(
    sys: LtiSystem,
    alpha: float,
    e_t: np.ndarray,
    v_t: np.ndarray,
    delta_bar: np.ndarray,
) -> np.ndarray:
    """Sensor offset -C e - v + sigma_r^{1/2} delta_bar.

    The induced residual is sigma_r^{1/2} delta_bar, so the detection
    measure equals |delta_bar|^2 and stays at or below alpha.
    """
    delta_bar = np.asarray(delta_bar, dtype=float)
    if float(delta_bar @ delta_bar) > alpha * (1.0 + 1e-12):
        raise ValueError("|delta_bar|^2 exceeds the threshold")
    return -sys.C @ e_t - v_t + sys.sigma_r_sqrt @ delta_bar


@dataclass(frozen=True)
class AttackPolicy:
    """Zero-alarm attack with a fixed or rotating direction for delta_bar.

    A fixed unit direction scaled by sqrt(alpha) maximizes sustained
    displacement; the rotating mode sweeps the direction through the
    leading coordinate plane, one turn per 64 steps, to exercise the
    whole no-alarm boundary.
    """

    alpha: float
    direction: np.ndarray
    rotate: bool = False

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("threshold must be nonnegative")
        direction = np.array(self.direction, dtype=float)
        norm = np.linalg.norm(direction)
        if direction.ndim != 1 or norm == 0:
            raise ValueError("direction must be a nonzero vector")
        direction = direction / norm
        direction.flags.writeable = False
        object.__setattr__(self, "direction", direction)

    def delta_bar(self, t: int) -> np.ndarray:
        d = self.direction.copy()
        if self.rotate and d.shape[0] >= 2:
            angle = 2.0 * math.pi * t / _ROTATION_PERIOD
            c, s = math.cos(angle), math.sin(angle)
            d0, d1 = d[0], d[1]
            d[0] = c * d0 - s * d1
            d[1] = s * d0 + c * d1
        return math.sqrt(self.alpha) * d

    def delta(
        self, t: int, e: np.ndarray, v: np.ndarray, sys: LtiSystem
    ) -> np.ndarray:
        return zero_alarm_attack(sys, self.alpha, e, v, self.delta_bar(t))


def noise_threshold(n: int, rate: float) -> float:
    """Disturbance energy level w_bar = n/rate such that
    P(w' sigma_w^{-1} w > w_bar) <= rate, from the n-dimensional
    two-moment bound."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not 0 < rate < 1:
        raise ValueError("rate must be in (0, 1)")
    return n / rate


@dataclass(frozen=True)
class ReachBound:
    """Outer bound on the attack-reachable state set at a fixed horizon:
    the Minkowski sum of per-step disturbance and attack ellipsoids,
    sampled exactly along `directions`."""

    horizon: int
    w_bar: float
    alpha: float
    directions: np.ndarray
    boundary: np.ndarray
    support_values: np.ndarray
    truncation_error: float
    area: float | None = None

    def __post_init__(self) -> None:
        for name in ("directions", "boundary", "support_values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_dirs(self) -> int:
        return self.directions.shape[0]

    def write_boundary_csv(self, path) -> None:
        """Export as rows ``theta, x1, x2`` (planar systems only)."""
        if self.directions.shape[1] != 2:
            raise ValueError("boundary CSV export is for planar systems")
        with open(path, "w", newline="\n") as fh:
            fh.write("theta,x1,x2\n")
            for ell, point in zip(self.directions, self.boundary):
                theta = math.atan2(ell[1], ell[0])
                fh.write(
                    ",".join(
                        format(val, ".17g") for val in (theta, point[0], point[1])
                    )
                    + "\n"
                )


def _directions(n: int, n_dirs: int) -> np.ndarray:
    if n == 2:
        angles = 2.0 * math.pi * np.arange(n_dirs) / n_dirs
        return np.column_stack([np.cos(angles), np.sin(angles)])
    rng = np.random.Generator(np.random.Philox(0))
    draws = rng.standard_normal((n_dirs, n))
    return draws / np.linalg.norm(draws, axis=1, keepdims=True)


def _shoelace(points: np.ndarray) -> float:
    x, y = points[:, 0], points[:, 1]
    return 0.5 * abs(
        float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
    )


def reach_bound(
    sys: LtiSystem,
    w_bar: float,
    alpha: float,
    t: int,
    n_dirs: int = 256,
) -> ReachBound:
    """Build the Minkowski-sum outer bound at horizon t.

    The summands, for i = 0..t-2, are E(w_bar A^i sigma_w A^i') for the
    process disturbance and E(alpha H_i L sigma_r L' H_i') for the
    attack channel, with H_i = (A + B K)^i - A^i (the i = 0 attack term
    vanishes).  Boundary points are sums of per-ellipsoid support
    maximizers, which is exact for Minkowski sums of ellipsoids.  The
    enclosed polygon area is computed for planar systems, and the
    neglected tail of the series (i >= t-1) is reported as a uniform
    bound on the support-function truncation error.
    """
    if t < 2:
        raise ValueError("horizon must be at least 2")
    if n_dirs < 16:
        raise ValueError("at least 16 directions are required")
    if w_bar < 0 or alpha < 0:
        raise ValueError("w_bar and alpha must be nonnegative")
    A = sys.A
    a_cl = sys.A + sys.B @ sys.K
    lsl = sys.L @ sys.sigma_r @ sys.L.T
    shapes: list[Ellipsoid] = []
    a_pow = np.eye(sys.n)
    acl_pow = np.eye(sys.n)
    for _ in range(t - 1):
        h = acl_pow - a_pow
        shapes.append(Ellipsoid(w_bar * a_pow @ sys.sigma_w @ a_pow.T))
        shapes.append(Ellipsoid(alpha * h @ lsl @ h.T))
        a_pow = A @ a_pow
        acl_pow = a_cl @ acl_pow
    # tail of the series, a uniform bound on the support-function error
    truncation = 0.0
    for _ in range(10_000):
        h = acl_pow - a_pow
        term = math.sqrt(
            max(0.0, w_bar * np.linalg.eigvalsh(a_pow @ sys.sigma_w @ a_pow.T)[-1])
        ) + math.sqrt(
            max(0.0, alpha * np.linalg.eigvalsh(h @ lsl @ h.T)[-1])
        )
        truncation += term
        if term < 1e-16 * max(1.0, truncation):
            break
        a_pow = A @ a_pow
        acl_pow = a_cl @ acl_pow

    dirs = _directions(sys.n, n_dirs)
    boundary = np.zeros((n_dirs, sys.n))
    support = np.zeros(n_dirs)
    for j, ell in enumerate(dirs):
        point = np.zeros(sys.n)
        total = 0.0
        for shape in shapes:
            point += shape.support_point(ell)
            total += shape.support(ell)
        boundary[j] = point
        support[j] = total
    area = _shoelace(boundary) if sys.n == 2 else None
    return ReachBound(
        horizon=t,
        w_bar=float(w_bar),
        alpha=float(alpha),
        directions=dirs,
        boundary=boundary,
        support_values=support,
        truncation_error=truncation,
        area=area,
    )


@dataclass(frozen=True)
class VolumeReport:
    """Ordering report over a family of reach bounds sharing everything
    but the detector threshold, sorted by descending threshold."""

    alphas: tuple[float, ...]
    areas: tuple[float, ...]
    area_ordered: bool
    support_ordered: bool
    max_support_violation: float


def volume_comparison(bounds: list[ReachBound]) -> VolumeReport:
    """Check that larger thresholds give pointwise larger bounds.

    Verifies, on bounds sorted by descending alpha, that the sampled
    support functions dominate direction by direction (set inclusion)
    and that planar areas are monotone.
    """
    if not bounds:
        raise ValueError("at least one bound is required")
    first = bounds[0]
    for rb in bounds[1:]:
        if rb.horizon != first.horizon or rb.w_bar != first.w_bar:
            raise ValueError("bounds must share horizon and w_bar")
        if rb.directions.shape != first.directions.shape or not np.allclose(
            rb.directions, first.directions
        ):
            raise ValueError("bounds must share the direction set")
    ordered = sorted(bounds, key=lambda rb: rb.alpha, reverse=True)
    tol = 1e-9
    support_ordered = True
    max_violation = 0.0
    for big, small in zip(ordered, ordered[1:]):
        diff = small.support_values - big.support_values
        worst = float(diff.max()) if diff.size else 0.0
        max_violation = max(max_violation, worst)
        if worst > tol:
            support_ordered = False
    areas = tuple(rb.area if rb.area is not None else math.nan for rb in ordered)
    area_ordered = all(
        not (a1 < a2 - tol)
        for a1, a2 in zip(areas, areas[1:])
        if not (math.isnan(a1) or math.isnan(a2))
    )
    return VolumeReport(
        alphas=tuple(rb.alpha for rb in ordered),
        areas=areas,
        area_ordered=area_ordered,
        support_ordered=support_ordered,
        max_support_violation=max_violation,
    )
