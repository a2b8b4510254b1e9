"""Truncated moment sequences of a scalar nonnegative random variable.

A detector that only knows the first k raw moments of its detection
measure works with the vector (M^0, M^1, ..., M^k).  This module
provides the container for such vectors, the Hankel-matrix test for
realizability by a distribution on the nonnegative axis, empirical
estimation from samples, and the analytic chi-squared family that
serves as ground truth when the residuals are Gaussian.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MomentSequence",
    "hankel_pair",
    "is_feasible",
    "estimate_moments",
    "chi_squared_moments",
]


@dataclass(frozen=True)
class MomentSequence:
    """Raw moments (M^0, M^1, ..., M^k) of a scalar random variable.

    M^0 must be exactly 1 and every entry finite.  Raw moments are
    stored; central quantities such as the variance are derived views.
    The order k is ``len(moments) - 1`` and must be at least 1.
    """

    moments: tuple[float, ...]

    def __post_init__(self) -> None:
        moments = tuple(float(m) for m in self.moments)
        object.__setattr__(self, "moments", moments)
        if len(moments) < 2:
            raise ValueError("a moment sequence needs at least M^0 and M^1")
        if moments[0] != 1.0:
            raise ValueError(f"M^0 must be exactly 1, got {moments[0]!r}")
        if not all(math.isfinite(m) for m in moments):
            raise ValueError("all moments must be finite")

    @property
    def order(self) -> int:
        return len(self.moments) - 1

    @property
    def mean(self) -> float:
        return self.moments[1]

    @property
    def variance(self) -> float:
        if self.order < 2:
            raise ValueError("variance needs moments up to order 2")
        return self.moments[2] - self.moments[1] ** 2

    @functools.cached_property
    def _feasible(self) -> bool:
        """:func:`is_feasible`, worked out once per sequence: tuning asks
        again before every bisection step."""
        for mat in hankel_pair(self):
            scale = max(1.0, float(np.abs(mat).max()))
            if np.linalg.eigvalsh(mat)[0] < -1e-9 * scale:
                return False
        return True

    def truncated(self, order: int) -> "MomentSequence":
        """Drop moments above `order`; feasibility is preserved."""
        if not 1 <= order <= self.order:
            raise ValueError(f"order must be in [1, {self.order}], got {order}")
        return MomentSequence(self.moments[: order + 1])

    def scaled(self, c: float) -> "MomentSequence":
        """Moments of c*X for c > 0: M^r picks up a factor c^r.  Raises
        ValueError when a scaled moment leaves the float range."""
        if not c > 0:
            raise ValueError("scale factor must be positive")
        try:
            return MomentSequence(tuple(m * c**r for r, m in enumerate(self.moments)))
        except (OverflowError, ValueError):  # c**r, or a moment, is not finite
            raise ValueError(f"moments of {c:.3g} X leave the float range") from None


def _hankel_matrix(moments: tuple[float, ...], index: int) -> np.ndarray:
    """Hankel matrix R_index: entry (i, j) = M_{i+j} for even index,
    M_{i+j+1} for odd, with i, j = 0..floor(index/2)."""
    m = np.asarray(moments, dtype=float)
    half, shift = divmod(index, 2)
    i = np.arange(half + 1)
    return m[i[:, None] + i + shift]


def hankel_pair(seq: MomentSequence) -> tuple[np.ndarray, np.ndarray]:
    """The Hankel matrices (R_k, R_{k-1}) of a sequence of order k, as
    the pair (r_even, r_odd) whose joint positive semidefiniteness
    characterizes feasibility on the nonnegative axis.

    `r_even` is the even-indexed matrix with entry (i, j) = M_{i+j};
    `r_odd` is the odd-indexed matrix with entry (i, j) = M_{i+j+1}.
    """
    k = seq.order
    r_k = _hankel_matrix(seq.moments, k)
    r_km1 = _hankel_matrix(seq.moments, k - 1)
    if k % 2 == 0:
        return r_k, r_km1
    return r_km1, r_k


def is_feasible(seq: MomentSequence) -> bool:
    """True when the sequence is realizable by a distribution on R+.

    Both Hankel matrices must have smallest eigenvalue >= -1e-9 * scale,
    where scale is the largest absolute entry of the matrix (at least 1).
    Eigendecomposition rather than Cholesky, so boundary sequences with
    rank-deficient Hankel matrices (e.g. point masses) pass.  The test
    runs once per sequence object; later calls return its answer.
    """
    return seq._feasible


# values per bincount pass in _exact_sum; keeps every bin sum below 2^53
_SUM_CHUNK = 1 << 26


def _exact_sum(values: np.ndarray) -> float:
    """Correctly rounded sum of nonnegative floats, the same bits as
    Shewchuk's fsum; a NaN or inf entry makes the sum NaN or inf.

    Each value is m 2^(e-53) with a 53-bit integer m (np.frexp).  m splits
    into a 27-bit high and a 26-bit low part, and np.bincount sums each
    part per exponent e, exactly in float64 for up to _SUM_CHUNK values.
    The per-exponent sums add up exactly as a Python int, and Python's
    correctly rounded int division turns that into the float.  Raises
    OverflowError when the rounded sum exceeds the float range.
    """
    if not np.isfinite(values).all():
        return float(values.sum())
    mant, exp = np.frexp(values)
    mant = (mant * 2.0**53).astype(np.int64)
    low = int(exp.min())
    shift = exp - low
    total = 0
    for start in range(0, values.size, _SUM_CHUNK):
        part = slice(start, start + _SUM_CHUNK)
        high = np.bincount(shift[part], weights=mant[part] >> 26)
        rest = np.bincount(shift[part], weights=mant[part] & ((1 << 26) - 1))
        for i in np.flatnonzero(high + rest):
            total += ((int(high[i]) << 26) + int(rest[i])) << int(i)
    scale = low - 53
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


def estimate_moments(samples, k: int) -> MomentSequence:
    """Empirical raw moments M^r = mean(x^r) for r = 0..k.

    Each sum of powers is correctly rounded (`_exact_sum`), then divided
    by the sample count: fourth moments of heavy-tailed samples lose
    digits under naive left-to-right addition.
    """
    if k < 1:
        raise ValueError("moment order must be at least 1")
    x = np.atleast_1d(np.asarray(samples, dtype=float))
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if x.size == 0:
        raise ValueError("empty sample set")
    if np.any(x < 0):
        raise ValueError("negative sample: the detection measure is nonnegative")
    moments = [1.0]
    power = np.ones_like(x)
    for _ in range(k):
        power = power * x
        moments.append(_exact_sum(power) / x.size)
    return MomentSequence(tuple(moments))


def chi_squared_moments(p: int, k: int) -> MomentSequence:
    """Analytic raw moments of a chi-squared law with p degrees of
    freedom: M^r = prod_{j=0}^{r-1} (p + 2j)."""
    if p < 1:
        raise ValueError("degrees of freedom must be at least 1")
    if k < 1:
        raise ValueError("moment order must be at least 1")
    moments = [1.0]
    for r in range(1, k + 1):
        moments.append(moments[-1] * (p + 2 * (r - 1)))
    return MomentSequence(tuple(moments))
