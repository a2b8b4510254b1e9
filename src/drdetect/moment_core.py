"""Truncated moment sequences of a scalar nonnegative random variable.

A detector that only knows the first k raw moments of its detection
measure works with the vector (M^0, M^1, ..., M^k).  This module
provides the container for such vectors, the Hankel-matrix test for
realizability by a distribution on the nonnegative axis, empirical
estimation from samples, and the analytic chi-squared family that
serves as ground truth when the residuals are Gaussian.
"""
from __future__ import annotations

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


def _hankel_matrix(moments: tuple | np.ndarray, index: int) -> np.ndarray:
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
    k, m = seq.order, seq.moments
    return _hankel_matrix(m, k - k % 2), _hankel_matrix(m, k - 1 + k % 2)


def is_feasible(seq: MomentSequence) -> bool:
    """True when the sequence is realizable by a distribution on R+.

    Both Hankel matrices must have smallest eigenvalue >= -1e-9 * scale,
    where scale is the largest absolute entry of the matrix (at least 1).
    Eigendecomposition rather than Cholesky, so boundary sequences with
    rank-deficient Hankel matrices (e.g. point masses) pass.
    """
    for mat in hankel_pair(seq):
        scale = max(1.0, float(np.abs(mat).max()))
        if np.linalg.eigvalsh(mat)[0] < -1e-9 * scale:
            return False
    return True


# samples per _PowerSums.add call in estimate_moments
_PIECE = 1 << 16


class _PowerSums:
    """Exact sums of x, x^2, ..., x^k over nonnegative samples fed in
    pieces.

    Each power is m 2^(e-53) with a 53-bit integer m (np.frexp).  m splits
    into a 27-bit high and a 26-bit low part, and np.bincount sums each
    part per exponent e, exactly in float64 for up to 2^26 values per
    piece.  The per-exponent sums add up exactly as a Python int, and each
    total carries over the pieces as an exact n 2^s.  So the sums depend
    neither on the order of the samples nor on how they are split
    (Shewchuk, DCG 1997), and `sums` rounds each once, to the bits of
    Shewchuk's fsum.
    """

    def __init__(self, k: int) -> None:
        self.count = 0
        self._totals = [(0, 0)] * k  # (n, s): the sum of x^(r+1) is n 2^s

    def add(self, x: np.ndarray) -> None:
        """Add the powers of the samples in x, at most 2^26 of them.
        Raises ValueError on a negative sample or a power that is not
        finite."""
        if np.any(x < 0):
            raise ValueError("negative sample: the detection measure is nonnegative")
        power = np.ones_like(x)
        for r, (total, scale) in enumerate(self._totals):
            power = power * x
            if not np.isfinite(power).all():
                raise ValueError("all moments must be finite")
            mant, exp = np.frexp(power)
            mant = (mant * 2.0**53).astype(np.int64)
            low = int(exp.min())
            shift = exp - low
            high = np.bincount(shift, weights=mant >> 26)
            rest = np.bincount(shift, weights=mant & ((1 << 26) - 1))
            piece = 0
            for i in np.flatnonzero(high + rest):
                piece += ((int(high[i]) << 26) + int(rest[i])) << int(i)
            low -= 53
            common = min(scale, low)
            total = (total << (scale - common)) + (piece << (low - common))
            self._totals[r] = (total, common)
        self.count += x.size

    def sums(self) -> list[float]:
        """The correctly rounded sums of x, ..., x^k.  Raises
        OverflowError when one exceeds the float range."""
        return [float(n << s) if s >= 0 else n / (1 << -s) for n, s in self._totals]

    def moments(self) -> MomentSequence:
        """Raw moments M^r = (sum of x^r) / count for r = 0..k."""
        return MomentSequence((1.0, *(total / self.count for total in self.sums())))


def estimate_moments(samples, k: int) -> MomentSequence:
    """Empirical raw moments M^r = mean(x^r) for r = 0..k.

    Each sum of powers is exact and rounded once (`_PowerSums`), then
    divided by the sample count: fourth moments of heavy-tailed samples
    lose digits under naive left-to-right addition.  The samples go
    through in bounded pieces of 65 536, so the powers take little memory
    beside the samples themselves.
    """
    if k < 1:
        raise ValueError("moment order must be at least 1")
    x = np.atleast_1d(np.asarray(samples, dtype=float))
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if x.size == 0:
        raise ValueError("empty sample set")
    sums = _PowerSums(k)
    for start in range(0, x.size, _PIECE):
        sums.add(x[start : start + _PIECE])
    return sums.moments()


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
