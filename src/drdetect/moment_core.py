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


def _check_count(value, name: str) -> None:
    """The rule of every count argument: an int or a numpy integer, and
    not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")


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
        _check_count(order, "order")
        if not 1 <= order <= self.order:
            raise ValueError(f"order must be in [1, {self.order}], got {order}")
        return MomentSequence(self.moments[: order + 1])

    def scaled(self, c: float) -> "MomentSequence":
        """Moments of c*X for c > 0: M^r picks up a factor c^r.  Raises
        ValueError when a scaled moment leaves the float range."""
        if not c > 0:
            raise ValueError("scale factor must be positive")
        return MomentSequence(tuple(_scaled_moments(self.moments, c)))


def _scaled_moments(moments: tuple, c: float) -> list[float]:
    """The moments m_r c^r of c X as a list of floats.  Raises ValueError
    when one leaves the float range."""
    try:
        scaled = [m * c**r for r, m in enumerate(moments)]
        if all(map(math.isfinite, scaled)):
            return scaled
    except OverflowError:  # c**r is not finite
        pass
    raise ValueError(f"moments of {c:.3g} X leave the float range")


def _hankel_matrix(moments: tuple | np.ndarray, index: int) -> np.ndarray:
    """Hankel matrix R_index: entry (i, j) = M_{i+j} for even index,
    M_{i+j+1} for odd, with i, j = 0..floor(index/2)."""
    return np.asarray(moments, dtype=float)[_hankel_index(index)]


@functools.lru_cache(maxsize=None)
def _hankel_index(index: int) -> np.ndarray:
    """The index array i + j (+ 1 for odd index) of :func:`_hankel_matrix`."""
    i = np.arange(index // 2 + 1)
    table = np.add.outer(i, i + index % 2)
    table.flags.writeable = False
    return table


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

    Each power splits into hi, its low 26 mantissa bits cleared, and
    lo = power - hi; both are exact.  np.bincount sums each half per
    exponent field (the float's bits >> 52).  On its field's unit hi has
    at most 27 significant bits and lo 26, so each bin's sum is exact in
    float64 for up to 2^26 values per piece.  Every bin sum goes into an
    exact Python int in units of 2^-1074, the least subnormal.  So the
    sums depend neither on the order of the samples nor on how they are
    split (Shewchuk, DCG 1997), and `sums` rounds each once, to the bits
    of Shewchuk's fsum.  The samples are added to 0.0 first, so no power
    of -0.0 carries a sign bit, and an inf or NaN power shows as field
    2047.
    """

    def __init__(self, k: int) -> None:
        self.count = 0
        self._totals = [0] * k  # the sum of x^(r+1) in units of 2^-1074

    def add(self, x: np.ndarray) -> None:
        """Add the powers of the samples in x, at most 2^26 of them.
        Raises ValueError on a negative sample or a power that is not
        finite."""
        if np.any(x < 0):
            raise ValueError("negative sample: the detection measure is nonnegative")
        x = np.add(x, 0.0, dtype=float)  # -0.0 becomes 0.0: no power has a sign bit
        power = np.ones_like(x)
        for r in range(len(self._totals)):
            power = power * x
            field = power.view(np.int64) >> 52
            if field.max() == 2047:  # inf or NaN
                raise ValueError("all moments must be finite")
            hi = (power.view(np.int64) & -(1 << 26)).view(np.float64)
            bins = np.concatenate([np.bincount(field, h) for h in (hi, power - hi)])
            for value in bins[bins != 0.0].tolist():
                # a bin that overflowed holds at least 2^1024, past the float
                # range as the exact sum is, so `sums` raises
                n, d = value.as_integer_ratio() if value < math.inf else (1 << 1024, 1)
                self._totals[r] += n << (1075 - d.bit_length())
        self.count += x.size

    def sums(self) -> list[float]:
        """The correctly rounded sums of x, ..., x^k.  Raises
        OverflowError when one exceeds the float range."""
        return [total / (1 << 1074) for total in self._totals]

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
    _check_count(k, "moment order k")
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
    _check_count(k, "moment order k")
    if p < 1:
        raise ValueError("degrees of freedom must be at least 1")
    if k < 1:
        raise ValueError("moment order must be at least 1")
    moments = [1.0]
    for r in range(1, k + 1):
        moments.append(moments[-1] * (p + 2 * (r - 1)))
    return MomentSequence(tuple(moments))
