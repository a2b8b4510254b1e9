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
Each ellipsoid E(s P M P') is the image of the unit ball under G' with
G = sqrt(s) F' P' and F F' = M, so its support value along d is the norm
|G d|, never the quadratic form d'(s P M P')d: along a direction where
the ellipsoid is flat, the norm's rounding grows with the square root of
its condition number and the quadratic form's with the number itself.
What the norm cannot remove is the rounding of the factor F.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import _solve
from .cps_sim import LtiSystem, _psd_factor
from .moment_core import _check_count

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
# rows (A^i, H_i) per block of reach_bound's products and per fill of
# _truncation_bound's buffer; a block of reach_bound holds 2 n _BLOCK x
# n_dirs entries of the products G d, and one block for the whole horizon
# raised the attack-reach benchmark's peak RSS by a tenth
_BLOCK = 64


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
        finite = np.isfinite(direction).all()
        if direction.ndim != 1 or not finite or not direction.any():
            raise ValueError("direction must be a finite nonzero vector")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(direction)
        # the norm is the root of a sum of squares, which overflows, or
        # underflows and loses bits, far from 1; scaled by its largest
        # entry the vector has a norm in [1, sqrt(size)]
        if not 1e-150 < norm < 1e150:
            direction = direction / np.abs(direction).max()
            norm = np.linalg.norm(direction)
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
        return (math.sqrt(self.alpha) * d) @ np.ascontiguousarray(sys.sigma_r_sqrt.T)


def noise_threshold(n: int, rate: float) -> float:
    """Disturbance energy level w_bar = n/rate such that
    P(w' sigma_w^{-1} w > w_bar) <= rate, from Markov's one-moment bound
    on E[w' sigma_w^{-1} w] = n."""
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
    area: float | None = None

    def __post_init__(self) -> None:
        for name in ("directions", "boundary", "support_values"):
            if (value := getattr(self, name)) is not None:
                arr = np.asarray(value, dtype=float)
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)


@functools.lru_cache(maxsize=None)
def _tables(n: int, n_dirs: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The unit directions of `reach_bound` as the columns of an (n, n_dirs)
    array and, for planar systems, the stacked line pairs of its vertex
    solve (directions i and i + 1 mod n_dirs), read-only and built once
    per (n, n_dirs)."""
    lines = None
    if n == 2:
        angles = 2.0 * math.pi * np.arange(n_dirs) / n_dirs
        columns = np.stack([np.cos(angles), np.sin(angles)])
        lines = np.stack([columns.T, np.roll(columns.T, -1, axis=0)], axis=1)
        lines.flags.writeable = False
    else:
        rng = np.random.Generator(np.random.Philox(0))
        draws = rng.standard_normal((n_dirs, n))
        columns = np.ascontiguousarray(
            (draws / np.linalg.norm(draws, axis=1, keepdims=True)).T
        )
    columns.flags.writeable = False
    return columns, lines


def _fill(rows: np.ndarray, pair: np.ndarray, pw: np.ndarray) -> np.ndarray:
    """Fill `rows` with the rows (A^i, H_i), H_i = (A + B K)^i - A^i, for
    i = first..first + len(rows) - 1, from the powers pw = (A^first,
    (A + B K)^first) of its first row, and return the powers of the row
    after the last.  `pair` is (A, A + B K) stacked: each power takes one
    stacked product with it, with the bits of one product at a time."""
    rows[0] = pw
    for j in range(1, len(rows)):
        np.matmul(pair, rows[j - 1], out=rows[j])
    pw = pair @ rows[-1]
    rows[:, 1] -= rows[:, 0]
    return pw


def _series(sys: LtiSystem, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The reach series of `sys` that `reach_bound` reads: the unit
    factors (F_w', F_r') of sigma_w and L sigma_r L' (`cps_sim._psd_factor`)
    stacked, and the rows (A^i, H_i) of `_fill` for i < rows at least, as
    one read-only array.  Both are kept on the system with the powers of
    the row after the last, built on its first call from the identity and
    filled on from those powers only when a call asks for more rows, so
    the stored rows reach the longest horizon asked for and no further."""
    n = sys.n
    if (series := sys._reach_series) is None:
        unit = np.stack(
            [_psd_factor(sys.sigma_w).T, _psd_factor(sys.L @ sys.sigma_r @ sys.L.T).T]
        )
        series = unit, np.empty((0, 2, n, n)), np.stack([np.eye(n), np.eye(n)])
    unit, powers, pw = series
    if len(powers) < rows:
        grown = np.empty((rows, 2, n, n))
        grown[: len(powers)] = powers
        pw = _fill(grown[len(powers) :], np.stack([sys.A, sys.A + sys.B @ sys.K]), pw)
        powers = grown
        powers.flags.writeable = False
        # one assignment of a new tuple: a concurrent call on the same
        # system reads the old series or the new one, never a mix
        object.__setattr__(sys, "_reach_series", (unit, powers, pw))
    return unit, powers


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
    sqrt(l' Q l).  Support functions add under Minkowski sums, so the
    support values are the sums of the summands' values, added in series
    order.  A support value that is not finite raises ArithmeticError
    naming its step i.

    A summand's shape is s P M P' (s = w_bar or alpha, P = A^i or H_i,
    M = sigma_w or L sigma_r L').  With F F' = M (`cps_sim._psd_factor`)
    and G = sqrt(s) F' P', its support value along d is the norm |G d|,
    attained at the point G'(G d)/|G d|; no shape matrix is formed and no
    negative rounding needs a clamp.

    The unit factors F' and the rows (A^i, H_i) depend on the system
    alone: they are its series (`_series`), built once per system under
    this call's errstate and filled on from the powers it keeps when a
    call asks for a longer horizon, so a call on a system that has one does
    only its own (w_bar, alpha) work.  It scales the unit factors by
    sqrt(s); each block of at most _BLOCK rows takes one stacked product
    for the rows of its G, one product of all those rows against all
    directions, and the squares of each G's rows added in order, then
    square-rooted into a buffer whose first row is the running support;
    one max finds a support value that is not finite, and one reduction
    adds the buffer's rows in series order.  Every value has the bits of
    the same arithmetic done one summand at a time, on a fresh system or
    on one whose series is longer.
    The directions and the polygon's line pairs are read-only tables,
    built once per (n, n_dirs) (`_tables`).

    For planar systems the boundary is the circumscribed polygon: vertex i
    solves <u_i, x> = h_i, <u_{i+1}, x> = h_{i+1} (i + 1 mod n_dirs), one
    stacked 2 x 2 solve (numpy.linalg.solve's gufunc, `_lapack._solve`), and
    the area is its shoelace.
    """
    _check_count(t, "horizon t")
    _check_count(n_dirs, "n_dirs")
    if t < 2:
        raise ValueError("horizon must be at least 2")
    if n_dirs < 16:
        raise ValueError("at least 16 directions are required")
    if not (0 <= w_bar < math.inf and 0 <= alpha < math.inf):
        raise ValueError("w_bar and alpha must be finite and nonnegative")
    n = sys.n
    columns, lines = _tables(n, n_dirs)
    support = np.zeros(n_dirs)
    # a diverged system overflows its powers; the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        unit, powers = _series(sys, t - 1)
        factors = unit * np.array([math.sqrt(w_bar), math.sqrt(alpha)])[:, None, None]
        for start in range(0, t - 1, _BLOCK):
            ph = powers[start : min(start + _BLOCK, t - 1)]
            # the rows of G = sqrt(s) F' P', row a of every summand together
            rows = (factors @ ph.swapaxes(-1, -2)).transpose(2, 0, 1, 3)
            gd = (rows.reshape(-1, n) @ columns).reshape(n, -1, n_dirs)
            # row 0 carries the running support, the rows after it the norms
            block = np.empty((1 + gd.shape[1], n_dirs))
            block[0] = support
            norms = block[1:]
            # by index: a view kept in a loop variable would hold this gd
            # while the next block allocates its own, 0.25 MB more at t = 150
            np.square(gd[0], out=norms)
            for a in range(1, n):
                norms += np.square(gd[a], out=gd[a])
            np.sqrt(norms, out=norms)
            if not np.isfinite(norms.max()):
                bad = ~np.isfinite(norms).all(axis=1)
                step = start + int(bad.argmax()) // 2
                raise ArithmeticError(f"support function diverged at step {step}")
            # row by row in series order, w then h per i, as np.sum would not add
            support = np.add.reduce(block, axis=0)

    boundary = area = None
    if lines is not None:
        values = np.empty((n_dirs, 2, 1))
        values[:, 0, 0] = support
        values[:-1, 1, 0] = support[1:]
        values[-1, 1, 0] = support[0]
        boundary = _solve(lines, values)[:, :, 0]
        x, y = boundary.T
        x_next, y_next = (np.concatenate((v[1:], v[:1])) for v in (x, y))
        area = 0.5 * abs(float(np.dot(x, y_next) - np.dot(x_next, y)))
    return ReachBound(
        horizon=t,
        w_bar=float(w_bar),
        alpha=float(alpha),
        directions=columns.T,
        boundary=boundary,
        support_values=support,
        area=area,
    )


def _truncation_bound(sys: LtiSystem, w_bar: float, alpha: float, t: int) -> float:
    """A uniform bound on the support-function truncation error of
    `reach_bound` at horizon t: the tail of its series (i >= t-1), each
    term sqrt(w_bar lambda_max(A^i sigma_w A^i')) +
    sqrt(alpha lambda_max(H_i L sigma_r L' H_i')), summed until a term
    falls below 1e-16 of the sum.  It is inf when the tail has not
    converged after 10000 terms or a term is not finite (a power
    overflowed).  The powers walk to row t-1, and `_fill` streams the
    rows from there through one buffer of _BLOCK rows, which takes one
    stacked eigvalsh per fill, with the bits of one call per matrix.
    Nothing is kept on the system."""
    n = sys.n
    pair = np.stack([sys.A, sys.A + sys.B @ sys.K])
    middle = np.stack([sys.sigma_w, sys.L @ sys.sigma_r @ sys.L.T])
    scale = np.array([w_bar, alpha])
    block = np.empty((_BLOCK, 2, n, n))
    tail = 0.0
    # a partial sum of a tail that has not converged, or that holds a term
    # that is not finite, bounds nothing
    with np.errstate(over="ignore", invalid="ignore"):
        pw = np.stack([np.eye(n), np.eye(n)])
        for _ in range(t - 1):
            pw = pair @ pw
        for first in range(0, 10_000, _BLOCK):
            ph = block[: min(_BLOCK, 10_000 - first)]
            pw = _fill(ph, pair, pw)
            shapes = ph @ middle @ ph.swapaxes(-1, -2)
            # a matrix that is not finite may still give finite eigenvalues
            top = np.linalg.eigvalsh(shapes)[..., -1]
            top[~np.isfinite(shapes).all(axis=(-2, -1))] = math.nan
            roots = np.sqrt(np.maximum(0.0, scale * top))
            for term in (roots[:, 0] + roots[:, 1]).tolist():
                tail += term
                if not tail < math.inf:
                    return math.inf
                if term < 1e-16 * max(1.0, tail):
                    return tail
    return math.inf


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
    max_violation = 0.0
    for big, small in zip(ordered, ordered[1:]):
        diff = small.support_values - big.support_values
        max_violation = max(max_violation, float(diff.max()) if diff.size else 0.0)
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
        support_ordered=max_violation <= tol,
        max_support_violation=max_violation,
    )
