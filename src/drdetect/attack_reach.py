"""Zero-alarm sensor attacks and ellipsoidal reachable-set bounds.

An attacker that knows the estimation error e[t] = x[t] - xhat[t] and
the measurement noise v[t] can inject the sensor offset

    delta[t] = -C e[t] - v[t] + sigma_r^{1/2} delta_bar[t],

which pins the residual r[t] = C e[t] + v[t] + delta[t] to
sigma_r^{1/2} delta_bar[t]; the detection measure becomes
q[t] = |delta_bar[t]|^2, so any choice with |delta_bar|^2 <= alpha never
raises an alarm.  The pinned residuals do not depend on the state, so
`AttackPolicy.residuals` gives the whole sequence at once and `simulate`
feeds it to the estimator.  The states reachable under such attacks
and bounded disturbances are outer-bounded by a Minkowski sum of
ellipsoids, sampled through its support function (support functions add
under Minkowski sums), so a tighter detector threshold shrinks the bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cps_sim import LtiSystem

__all__ = [
    "ReachBound",
    "AttackPolicy",
    "noise_threshold",
    "reach_bound",
    "volume_comparison",
    "VolumeReport",
]

# steps per full turn of a rotating attack direction
_ROTATION_PERIOD = 64


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
        if not 0 <= self.alpha < math.inf:
            raise ValueError("threshold must be finite and nonnegative")
        direction = np.array(self.direction, dtype=float)
        norm = np.linalg.norm(direction)
        if direction.ndim != 1 or norm == 0 or not np.isfinite(direction).all():
            raise ValueError("direction must be a finite nonzero vector")
        direction = direction / norm
        direction.flags.writeable = False
        object.__setattr__(self, "direction", direction)

    def residuals(self, sys: LtiSystem, steps: int) -> np.ndarray:
        """The pinned residuals sigma_r^{1/2} delta_bar[t] for t < steps,
        one row per step, with |delta_bar[t]|^2 = alpha."""
        if (size := self.direction.size) != sys.p:
            raise ValueError(f"attack direction has {size} entries, not p = {sys.p}")
        d = np.tile(self.direction, (steps, 1))
        if self.rotate and d.shape[1] >= 2:
            angle = 2.0 * np.pi * np.arange(steps) / _ROTATION_PERIOD
            c, s = np.cos(angle), np.sin(angle)
            d0, d1 = self.direction[0], self.direction[1]
            d[:, 0] = c * d0 - s * d1
            d[:, 1] = s * d0 + c * d1
        return (math.sqrt(self.alpha) * d) @ sys.sigma_r_sqrt.T


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
    sampled exactly along `directions`.  For planar systems `boundary` and
    `area` are the circumscribed polygon's vertices and area, else None."""

    horizon: int
    w_bar: float
    alpha: float
    directions: np.ndarray
    boundary: np.ndarray | None
    support_values: np.ndarray
    truncation_error: float
    area: float | None = None

    def __post_init__(self) -> None:
        for name in ("directions", "boundary", "support_values"):
            if (value := getattr(self, name)) is not None:
                arr = np.asarray(value, dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)


def _directions(n: int, n_dirs: int) -> np.ndarray:
    if n == 2:
        angles = 2.0 * math.pi * np.arange(n_dirs) / n_dirs
        return np.column_stack([np.cos(angles), np.sin(angles)])
    rng = np.random.Generator(np.random.Philox(0))
    draws = rng.standard_normal((n_dirs, n))
    return draws / np.linalg.norm(draws, axis=1, keepdims=True)


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
    vanishes), where E(Q) = {Q^{1/2} u : |u| <= 1} has support function
    sqrt(l' Q l).  Support functions add under Minkowski sums, so one
    loop over i adds each summand's support value for all directions as
    its shape matrix is made, in series order, and then sums the tail of
    the series (i >= t-1), from the same matrix powers, into a uniform
    bound on the support-function truncation error; the bound is inf when
    the tail has not converged after 10000 terms.  For planar systems the
    boundary is the circumscribed polygon: vertex i solves <u_i, x> = h_i,
    <u_{i+1}, x> = h_{i+1} (i + 1 mod n_dirs), one stacked 2 x 2 solve,
    and the area is its shoelace.
    """
    if t < 2:
        raise ValueError("horizon must be at least 2")
    if n_dirs < 16:
        raise ValueError("at least 16 directions are required")
    if not (0 <= w_bar < math.inf and 0 <= alpha < math.inf):
        raise ValueError("w_bar and alpha must be finite and nonnegative")
    A = sys.A
    a_cl = sys.A + sys.B @ sys.K
    lsl = sys.L @ sys.sigma_r @ sys.L.T
    dirs = _directions(sys.n, n_dirs)
    support = np.zeros(n_dirs)
    truncation = 0.0
    a_pow = np.eye(sys.n)
    acl_pow = np.eye(sys.n)
    for i in range(t - 1 + 10_000):
        h = acl_pow - a_pow
        if i < t - 1:
            for q in (w_bar * a_pow @ sys.sigma_w @ a_pow.T, alpha * h @ lsl @ h.T):
                q = 0.5 * (q + q.T)
                # this matmul form gives the bits of d @ q @ d per row
                val = np.matmul((dirs @ q)[:, None, :], dirs[:, :, None])[:, 0, 0]
                support += np.sqrt(np.maximum(0.0, val))
        else:
            # one stacked call, each matrix's eigenvalues with its own bits
            top_w, top_h = np.linalg.eigvalsh(
                np.stack([a_pow @ sys.sigma_w @ a_pow.T, h @ lsl @ h.T])
            )[:, -1]
            term = math.sqrt(max(0.0, w_bar * top_w)) + math.sqrt(
                max(0.0, alpha * top_h)
            )
            truncation += term
            if term < 1e-16 * max(1.0, truncation):
                break
        a_pow = A @ a_pow
        acl_pow = a_cl @ acl_pow
    else:
        # a partial sum of a tail that has not converged bounds nothing
        truncation = math.inf

    boundary = area = None
    if sys.n == 2:
        lines = np.stack([dirs, np.roll(dirs, -1, axis=0)], axis=1)
        values = np.stack([support, np.roll(support, -1)], axis=1)
        boundary = np.linalg.solve(lines, values[:, :, None])[:, :, 0]
        x, y = boundary.T
        area = 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)))
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
