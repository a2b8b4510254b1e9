"""Threshold selection for a quadratic residual detector.

Three knowledge models are supported: exact chi-squared statistics
(Gaussian noise), closed-form thresholds from one or two moments, and
bisection against the tight k-moment SDP bound.  All methods take a
target false-alarm rate and return the smallest defensible threshold
whose worst-case alarm probability does not exceed it.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .bound_engine import solve_sdp
from .moment_core import MomentSequence, is_feasible

__all__ = [
    "Method",
    "ThresholdResult",
    "chi_squared_threshold",
    "closed_form_threshold",
    "tune_threshold_sdp",
]


class Method(enum.Enum):
    CHI_SQUARED = "chi_squared"
    CLOSED_FORM_K1 = "closed_form_k1"
    CLOSED_FORM_K2 = "closed_form_k2"
    SDP_BISECTION = "sdp_bisection"


@dataclass(frozen=True)
class ThresholdResult:
    """A tuned detector threshold with its worst-case guarantee."""

    alpha: float
    method: Method
    k: int
    target_rate: float
    achieved_worst_case: float
    epsilon: float = 0.0
    bracket_degenerate: bool = False

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("threshold must be positive")
        if not 0 < self.target_rate < 1:
            raise ValueError("target rate must be in (0, 1)")
        if self.epsilon < 0:
            raise ValueError("bisection tolerance must be nonnegative")

    def to_csv_row(self) -> str:
        """Serialize as ``method, k, target_rate, alpha, achieved, epsilon``."""
        fields = [
            self.method.value,
            str(self.k),
            format(self.target_rate, ".17g"),
            format(self.alpha, ".17g"),
            format(self.achieved_worst_case, ".17g"),
            format(self.epsilon, ".17g"),
        ]
        return ",".join(fields)


class TuningError(RuntimeError):
    """Bisection failure, carrying the surviving bracket.

    Nothing raises it: a stalled solve still gives a certified bound,
    and tuning goes on with it.  Only the benchmark harness
    (`perfbench/workloads.py`) names it; it goes together with the
    tuning memo once tuning walks the orders in one chain."""

    def __init__(self, message: str, alpha_lower: float, alpha_upper: float):
        super().__init__(
            f"{message} (surviving bracket [{alpha_lower:.6g}, {alpha_upper:.6g}])"
        )
        self.alpha_lower = alpha_lower
        self.alpha_upper = alpha_upper


def chi_squared_threshold(p: int, rate: float) -> float:
    """(1 - rate) quantile of the chi-squared law with p degrees of
    freedom, via the inverse regularized lower incomplete gamma function."""
    if p < 1:
        raise ValueError("degrees of freedom must be at least 1")
    if not 0 < rate < 1:
        raise ValueError("rate must be in (0, 1)")
    import scipy.special  # costs about 0.06 s of import, for this call only

    return float(2.0 * scipy.special.gammaincinv(0.5 * p, 1.0 - rate))


def closed_form_threshold(
    moments: MomentSequence, rate: float, k: int
) -> ThresholdResult:
    """Closed-form thresholds for one or two moments.

    k=1: M1/rate (Markov inversion).  k=2: (1 + sqrt((1-rate)/rate) C) M1
    with C^2 = (M2 - M1^2)/M1^2.  For k >= 3 use
    :func:`tune_threshold_sdp`.
    """
    if k not in (1, 2):
        raise ValueError("closed forms exist for k in {1, 2} only")
    if not 0 < rate < 1:
        raise ValueError("rate must be in (0, 1)")
    if moments.order < k:
        raise ValueError(f"moment sequence of order >= {k} required")
    if not is_feasible(moments):
        raise ValueError("infeasible moment sequence")
    m1 = moments.moments[1]
    if not m1 > 0:
        raise ValueError("the mean must be positive to place a threshold")
    if k == 1:
        return ThresholdResult(
            alpha=m1 / rate,
            method=Method.CLOSED_FORM_K1,
            k=1,
            target_rate=rate,
            achieved_worst_case=rate,
        )
    c2 = max(0.0, (moments.moments[2] - m1 * m1) / (m1 * m1))
    c = math.sqrt(c2)
    alpha = (1.0 + math.sqrt((1.0 - rate) / rate) * c) * m1
    achieved = rate if c > 0 else 0.0
    return ThresholdResult(
        alpha=alpha,
        method=Method.CLOSED_FORM_K2,
        k=2,
        target_rate=rate,
        achieved_worst_case=achieved,
    )


_AUTO_CACHE: dict[tuple, "ThresholdResult"] = {}


def tune_threshold_sdp(
    moments: MomentSequence, rate: float, epsilon: float = 1e-4
) -> ThresholdResult:
    """Bisection on the tight k-moment SDP bound.

    Halves a bracket until it is narrower than epsilon: a midpoint whose
    worst-case probability exceeds the target raises the lower end,
    otherwise the upper end comes down.  The returned threshold is the
    certified upper end of the final bracket.  Each step acts on the
    objective of :func:`solve_sdp`, which is a certified bound whatever
    the solver status: a stalled solve (`NUMERICAL_TROUBLE`) may report a
    loose bound, which only raises the lower end, so the result stays
    certified but may sit above the tight threshold.

    The lower end starts at the mean (no threshold below the mean meets a
    target rate <= 1/2).  The upper end starts at the lower-order
    threshold: the Markov one, or the (k-1)-moment one where it is lower,
    computed recursively down to the closed forms; it brackets from above
    because the bound shrinks as moments are added.  Should the k-moment
    bound there come out above the target, the lower-order guarantee
    stands in for it, since every certificate for fewer moments is one
    for k moments too.  Results are memoized per moment sequence.  If the
    bound at the lower end already meets the target, that end is returned
    with `bracket_degenerate` set.
    """
    k = moments.order
    if k < 2:
        raise ValueError("bisection needs a sequence of order >= 2")
    if not 0 < rate <= 0.5:
        raise ValueError("target rate must be in (0, 0.5]")
    if epsilon <= 0:
        raise ValueError("bisection tolerance must be positive")
    if not is_feasible(moments):
        raise ValueError("infeasible moment sequence")
    m1 = moments.moments[1]
    if not m1 > 0:
        raise ValueError("the mean must be positive to place a threshold")

    cache_key = (moments, rate, epsilon)
    if cache_key in _AUTO_CACHE:
        return _AUTO_CACHE[cache_key]

    # the Markov threshold is always a valid upper end; the two-moment
    # closed form can sit above it for very dispersed sequences
    upper = closed_form_threshold(moments.truncated(1), rate, 1)
    if k > 2:
        if k == 3:
            lower_order = closed_form_threshold(moments.truncated(2), rate, 2)
        else:
            lower_order = tune_threshold_sdp(moments.truncated(k - 1), rate, epsilon)
        if lower_order.alpha <= upper.alpha:
            upper = lower_order
    a_l, a_u = m1, upper.alpha

    p_low = solve_sdp(moments, a_l).objective
    if p_low <= rate:
        result = ThresholdResult(
            alpha=a_l,
            method=Method.SDP_BISECTION,
            k=k,
            target_rate=rate,
            achieved_worst_case=p_low,
            epsilon=epsilon,
            bracket_degenerate=True,
        )
        _AUTO_CACHE[cache_key] = result
        return result

    achieved = solve_sdp(moments, a_u).objective
    if achieved > rate + 1e-7:
        # every certificate for a lower order is one for order k as well
        achieved = upper.achieved_worst_case
    while a_u - a_l > epsilon:
        mid = 0.5 * (a_l + a_u)
        p_mid = solve_sdp(moments, mid).objective
        if p_mid > rate:
            a_l = mid
        else:
            a_u = mid
            achieved = p_mid
    result = ThresholdResult(
        alpha=a_u,
        method=Method.SDP_BISECTION,
        k=k,
        target_rate=rate,
        achieved_worst_case=achieved,
        epsilon=epsilon,
    )
    _AUTO_CACHE[cache_key] = result
    return result
