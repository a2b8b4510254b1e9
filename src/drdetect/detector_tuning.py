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

from ._lapack import gammaincinv as _gammaincinv
from .bound_engine import _law_ends, _threshold_root, solve_sdp
from .moment_core import MomentSequence, _check_count, is_feasible

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

    k=1: M1/rate (Markov inversion).  k=2: the lesser of Markov's M1/rate
    and Cantelli's (1 + sqrt((1-rate)/rate) C) M1 with
    C^2 = (M2 - M1^2)/M1^2; Markov's is the lesser where C exceeds
    sqrt((1-rate)/rate), and its row reports the rate.  Where C = 0 the
    only law with the moments is the point mass at M1, which a threshold
    at M1 meets: the threshold is then the first float above M1, with a
    worst-case probability of 0.  :func:`tune_threshold_sdp` returns these
    rows at k <= 2, and bisects from k = 3.
    """
    _check_count(k, "moment order k")
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
    alpha, achieved, method = m1 / rate, rate, Method.CLOSED_FORM_K1
    if k == 2:
        method = Method.CLOSED_FORM_K2
        c = math.sqrt(max(0.0, (moments.moments[2] - m1 * m1) / (m1 * m1)))
        cantelli = (1.0 + math.sqrt((1.0 - rate) / rate) * c) * m1
        if c == 0:
            # Cantelli's certificate (q - M1)^2 / lambda^2 has mean 0 for
            # every lambda > 0, but the point mass meets a threshold at M1
            cantelli = math.nextafter(m1, math.inf)
        if cantelli <= alpha:
            alpha, achieved = cantelli, (rate if c > 0 else 0.0)
    return ThresholdResult(
        alpha=alpha, method=method, k=k, target_rate=rate, achieved_worst_case=achieved
    )


_AUTO_CACHE: dict[tuple, "ThresholdResult"] = {}
# half-width of the bisection window around the root, relative (see _bisect)
_WINDOW = 2.0**-20


def tune_threshold_sdp(
    moments: MomentSequence, rate: float, epsilon: float = 1e-4
) -> ThresholdResult:
    """A threshold for all k moments of the sequence at which no law on R+
    with these moments puts more than the rate at or above it.

    At k <= 2 it is the tight closed form, and the row is that of
    :func:`closed_form_threshold`.  From k = 3 the orders are tuned in one
    ascending walk from the k = 2 row: each order's row bisects to epsilon
    from the mean, never below it (ROADMAP item 12a), up to the row one
    order down, which brackets it from above since the bound shrinks as
    moments are added (:func:`_bisect`, whose points :func:`_settle`
    settles).  Each bisected row is memoized per truncated sequence, rate
    and epsilon.

    A bisected row returns the certified upper end of its final bracket,
    and reports the bound that settled it: the objective of
    :func:`solve_sdp` where a solve did, which is certified whatever the
    solver status, and the polished mean of a law's certificate where
    that did.  A row that keeps the threshold of the row below reports the
    lesser of that bound and the row below's guarantee, since every
    certificate for fewer moments is one for k moments too.
    """
    if not 0 < rate <= 0.5:
        raise ValueError("target rate must be in (0, 0.5]")
    if not 0 < epsilon < math.inf:
        raise ValueError("bisection tolerance must be positive and finite")
    closed = min(moments.order, 2)
    row = closed_form_threshold(moments.truncated(closed), rate, closed)
    for k in range(3, moments.order + 1):
        part = moments.truncated(k)
        cache_key = (part, rate, epsilon)
        if cache_key not in _AUTO_CACHE:
            _AUTO_CACHE[cache_key] = _bisect(part, rate, epsilon, row)
        row = _AUTO_CACHE[cache_key]
    return row


def _settle(moments: MomentSequence, alpha: float, rate: float):
    """Whether the tight bound at alpha lies above the rate, with the SDP
    bound at alpha where it was solved and the certificate's E[p] where
    that settled the point below the rate; (True, None, None) where a law
    settled it above.

    Both ends of :func:`_law_ends` meet the rate itself: a law whose tail
    exceeds the rate raises the lower end, a certificate whose polished
    mean is at most the rate brings the upper end down, and `solve_sdp`
    runs only where the rate lies strictly between the two.  No branch
    depends on the bits of an IPM run where the pair decides, and a row
    reports the certificate that settled its threshold.

    Soundness rests on the test below the rate alone.  A point settled
    above only raises the lower end, so every threshold returned carries a
    certificate whose mean is at most the rate: the same float test that
    the SDP objective meets.  Neither test yet allows for the rounding of
    the sum E[p] = sum y_r s_r (ROADMAP item 10)."""
    lower, upper = _law_ends(moments, alpha, below=rate, above=rate)
    if lower > rate:
        # an explicit law puts more than the rate above alpha
        return True, None, None
    if upper <= rate:
        # a checked certificate bounds every law by at most the rate
        return False, None, upper
    bound = solve_sdp(moments, alpha).objective
    return bound > rate, bound, None


def _window(moments: MomentSequence, rate: float, lo: float, hi: float):
    """(b, a) = (tau (1 - 2^-20), tau (1 + 2^-20)) around the root tau of
    :func:`drdetect.bound_engine._threshold_root`, clipped to [lo, hi]: b
    takes one law pair and is -inf where its tail does not exceed the
    rate; a takes none, as :func:`_bisect` settles it.  Where either Hankel
    matrix has less than full numerical rank, as on few-atom sequences whose
    law layer decides near its tolerances, the window is (-inf, inf)."""
    root = _threshold_root(moments, rate, hi)
    if root is None:
        return -math.inf, math.inf
    b, a = (min(max(root * s, lo), hi) for s in (1.0 - _WINDOW, 1.0 + _WINDOW))
    if not _law_ends(moments, b, below=rate, above=rate)[0] > rate:
        b = -math.inf
    return b, a


def _bisect(
    moments: MomentSequence, rate: float, epsilon: float, upper: ThresholdResult
) -> ThresholdResult:
    """The row of :func:`tune_threshold_sdp` for one order, its scalar
    arguments checked, bracketed from above by `upper`, the row one order
    down.  The mean is the first point settled, the midpoints follow.

    The tight bound does not increase in the threshold, so the window of
    :func:`_window` settles the points outside it without :func:`_settle`:
    a law whose tail at b exceeds the rate puts its mass above every point
    at or below b, and every point at or above a is taken below the rate.
    The final upper end, settled again where the window settled it for the
    row's bound, proves each point taken below, as a certificate there is
    one at every higher threshold.  So the visited midpoints stay those of
    a bisection that settles every point.  Where that settle refuses its
    end, the row is bisected again with b kept and no upper end."""
    if not is_feasible(moments):
        raise ValueError("infeasible moment sequence")
    lo, hi = moments.moments[1], upper.alpha
    above_to, below_from = _window(moments, rate, lo, hi)
    while True:
        a_l, a_u, achieved, windowed = lo, hi, None, False
        point = a_l
        while point is not None:
            if point <= above_to:
                a_l = point
            elif point >= below_from:
                a_u, windowed = point, True
            else:
                above, bound, certified = _settle(moments, point, rate)
                if above:
                    a_l = point
                else:
                    a_u, achieved = point, certified if bound is None else bound
                    windowed = False
            mid = 0.5 * (a_l + a_u)  # equals an end once no float lies between the ends
            point = mid if a_u - a_l > epsilon and a_l < mid < a_u else None
        if not windowed:
            break
        above, bound, certified = _settle(moments, a_u, rate)
        if not above:
            achieved = certified if bound is None else bound
            break
        below_from = math.inf
    if a_u == upper.alpha:
        # the row keeps the lower-order threshold, whose guarantee is a
        # certified bound for k moments too, since every certificate for
        # fewer moments is one for order k; the lesser stands.  Where no
        # point took that end down, nothing is solved there: the polished
        # mean of the order-k certificate stands in, and a NaN mean never
        # wins
        if achieved is None:
            achieved = _law_ends(moments, a_u)[1]
        guarantee = upper.achieved_worst_case
        achieved = achieved if achieved <= guarantee else guarantee
    return ThresholdResult(
        alpha=a_u,
        method=Method.SDP_BISECTION,
        k=moments.order,
        target_rate=rate,
        achieved_worst_case=achieved,
        epsilon=epsilon,
    )
