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

# scipy.special's own ufunc, loaded by _scipy_ext without scipy.special
from ._scipy_ext import gammaincinv as _gammaincinv
from .bound_engine import _law_ends, solve_sdp
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
    return float(2.0 * _gammaincinv(0.5 * p, 1.0 - rate))


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
# a bound that is not a midpoint's SDP objective settles a branch only
# beyond this margin from the rate: a law's tail above it, a certificate's
# mean below it, and a solve at the returned upper end counts as stalled
# only above it; a certificate lands a few 1e-10 above an exact bound, and
# a law matches its moments to relative 1e-10
_SLACK = 1e-7


def tune_threshold_sdp(
    moments: MomentSequence, rate: float, epsilon: float = 1e-4
) -> ThresholdResult:
    """Bisection on the tight k-moment SDP bound.

    Halves a bracket until it is narrower than epsilon: a midpoint whose
    worst-case probability exceeds the target raises the lower end,
    otherwise the upper end comes down.  The returned threshold is the
    certified upper end of the final bracket.  A step that is solved acts
    on the objective of :func:`solve_sdp`, which is a certified bound
    whatever the solver status: a stalled solve (`NUMERICAL_TROUBLE`) may
    report a loose bound, which only raises the lower end, so the result
    stays certified but may sit above the tight threshold.

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
    meets the target, that end is returned.

    At the lower end and at each midpoint the SDP is solved only where the
    Gauss-Radau law through the point cannot settle the branch.  If an
    explicit law with the given moments puts more than the rate plus
    `_SLACK` above the threshold (:func:`tail_lower_bound`), every bound
    lies above the rate too, and the lower end rises without a solve.  If
    the polynomial that interpolates the indicator at the law's nodes,
    checked on the whole half-line, has a mean at most the rate minus
    `_SLACK`, every law lies below the rate, and the upper end comes down
    without a solve.  The returned threshold is then solved once, so the
    value returned is the objective of :func:`solve_sdp` there; where that
    solve stalls above the rate plus `_SLACK`, the certificate that took
    the upper end down stands in for it.
    """
    if moments.order < 2:
        raise ValueError("bisection needs a sequence of order >= 2")
    if not 0 < rate <= 0.5:
        raise ValueError("target rate must be in (0, 0.5]")
    if not 0 < epsilon < math.inf:
        raise ValueError("bisection tolerance must be positive and finite")
    if not is_feasible(moments):
        raise ValueError("infeasible moment sequence")
    if not moments.moments[1] > 0:
        raise ValueError("the mean must be positive to place a threshold")
    cache_key = (moments, rate, epsilon)
    if cache_key not in _AUTO_CACHE:
        _AUTO_CACHE[cache_key] = _bisect(moments, rate, epsilon)
    return _AUTO_CACHE[cache_key]


def _settle(moments: MomentSequence, alpha: float, rate: float):
    """Whether the tight bound at alpha lies above the rate, with the SDP
    bound at alpha where it was solved and the certificate's E[p] where
    that settled the point below the rate; (True, None, None) where a law
    settled it above."""
    lower, upper = _law_ends(moments, alpha, certify_up_to=rate + _SLACK)
    if lower > rate + _SLACK:
        # an explicit law puts more than the rate above alpha
        return True, None, None
    if upper <= rate - _SLACK:
        # a checked certificate bounds every law by less than the rate
        return False, None, upper
    bound = solve_sdp(moments, alpha).objective
    return bound > rate, bound, None


def _bisect(moments: MomentSequence, rate: float, epsilon: float) -> ThresholdResult:
    """The row of :func:`tune_threshold_sdp` for validated inputs."""
    k = moments.order
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
    a_l, a_u = moments.moments[1], upper.alpha

    above, achieved, certified = _settle(moments, a_l, rate)
    if not above:  # the bound at the lower end already meets the target
        a_u = a_l
    else:
        achieved = certified = None
        while a_u - a_l > epsilon:
            mid = 0.5 * (a_l + a_u)
            mid_above, p_mid, c_mid = _settle(moments, mid, rate)
            if mid_above:
                a_l = mid
            else:
                a_u, achieved, certified = mid, p_mid, c_mid
    if achieved is None:
        # no solve at the upper end: solve it now, so that the row keeps
        # the objective of the program that settles it
        achieved = solve_sdp(moments, a_u).objective
        if achieved > rate + _SLACK:
            # a stalled solve: the certificate that took the upper end
            # down stands in, else the initial upper end's guarantee, since
            # every certificate for a lower order is one for order k as well
            achieved = upper.achieved_worst_case if certified is None else certified
    return ThresholdResult(
        alpha=a_u,
        method=Method.SDP_BISECTION,
        k=k,
        target_rate=rate,
        achieved_worst_case=achieved,
        epsilon=epsilon,
    )
