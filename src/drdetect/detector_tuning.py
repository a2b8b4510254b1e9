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

from .bound_engine import solve_sdp, tail_lower_bound
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
        if not 0 < self.alpha < math.inf:
            raise ValueError("threshold must be positive and finite")
        if not 0 < self.target_rate < 1:
            raise ValueError("target rate must be in (0, 1)")
        if not self.epsilon >= 0:
            raise ValueError("bisection tolerance must be nonnegative")
        if not 0 <= self.achieved_worst_case <= 1:
            raise ValueError("worst-case probability must be in [0, 1]")


class TuningError(RuntimeError):
    """Never raised; kept because the benchmark harness names it."""


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
# a bound counts as above the rate only beyond this margin where it is
# not a midpoint's SDP objective: a certificate lands a few 1e-10 above
# an exact bound, and a law matches its moments to relative 1e-10
_SLACK = 1e-7


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
    because the bound shrinks as moments are added.  The k-moment bound
    there is solved only when no midpoint meets the target, since the
    first midpoint that does replaces it.  Should it come out above the
    target, the lower-order guarantee stands in for it, since every
    certificate for fewer moments is one for k moments too.  Results are
    memoized per moment sequence.  If the bound at the lower end already
    meets the target, that end is returned with `bracket_degenerate` set.

    At the lower end and at each midpoint the SDP is solved only when it
    can change the branch: if an explicit law with the given moments puts
    more than the rate plus `_SLACK` above the threshold
    (:func:`tail_lower_bound`), every bound lies above the rate too, and
    the lower end rises without a solve.  Every value that is returned
    comes from :func:`solve_sdp`.
    """
    k = moments.order
    if k < 2:
        raise ValueError("bisection needs a sequence of order >= 2")
    if not 0 < rate <= 0.5:
        raise ValueError("target rate must be in (0, 0.5]")
    if not epsilon > 0:
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

    if tail_lower_bound(moments, a_l) <= rate + _SLACK:
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

    achieved = None
    while a_u - a_l > epsilon:
        mid = 0.5 * (a_l + a_u)
        if tail_lower_bound(moments, mid) > rate + _SLACK:
            # an explicit law puts more than the rate above mid
            a_l = mid
            continue
        p_mid = solve_sdp(moments, mid).objective
        if p_mid > rate:
            a_l = mid
        else:
            a_u = mid
            achieved = p_mid
    if achieved is None:
        # no midpoint came down, so the bound at the initial upper end is
        # the one returned; no midpoint reads it, so it is solved only now
        achieved = solve_sdp(moments, a_u).objective
        if achieved > rate + _SLACK:
            # every certificate for a lower order is one for order k as well
            achieved = upper.achieved_worst_case
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

