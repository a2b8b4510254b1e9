import math

import numpy as np
import pytest

from drdetect import (
    Method,
    MomentSequence,
    Status,
    chi_squared_moments,
    chi_squared_threshold,
    closed_form_threshold,
    noise_threshold,
    solve_sdp,
    tune_threshold_sdp,
)
from drdetect import detector_tuning

from conftest import random_moments

CHI2 = chi_squared_moments(2, 4)


def test_chi_squared_threshold_values():
    assert chi_squared_threshold(2, 0.05) == pytest.approx(5.9915, abs=1e-3)
    # exceedance e^{-1} at threshold 2: the 2-dof law has P(q > x) = e^{-x/2}
    assert chi_squared_threshold(2, math.exp(-1.0)) == pytest.approx(2.0, abs=1e-6)
    assert chi_squared_threshold(4, 0.05) == pytest.approx(9.4877, abs=1e-3)
    # 2 dof has the closed form -2 ln(rate)
    assert chi_squared_threshold(2, 0.05) == pytest.approx(-2.0 * math.log(0.05), rel=1e-12)
    with pytest.raises(ValueError):
        chi_squared_threshold(2, 0.0)
    with pytest.raises(ValueError):
        chi_squared_threshold(0, 0.05)


def test_dr_dominates_chi_squared():
    # the two-moment level never undercuts the chi-squared quantile
    for p in (1, 2, 3, 5, 10):
        for rate in (0.01, 0.05, 0.2, 0.5):
            assert noise_threshold(p, rate) >= chi_squared_threshold(p, rate)


def test_closed_form_k1():
    res = closed_form_threshold(CHI2.truncated(1), 0.05, 1)
    assert res.alpha == 40.0
    assert res.method == Method.CLOSED_FORM_K1
    assert res.achieved_worst_case == pytest.approx(0.05)


def test_closed_form_k2():
    res = closed_form_threshold(CHI2.truncated(2), 0.05, 2)
    assert res.alpha == pytest.approx((1.0 + math.sqrt(19.0)) * 2.0, rel=1e-12)
    assert res.alpha == pytest.approx(10.7178, abs=1e-3)
    assert res.method == Method.CLOSED_FORM_K2


def test_closed_form_point_mass():
    c = 3.0
    m = MomentSequence((1.0, c, c * c))
    res = closed_form_threshold(m, 0.2, 2)
    assert res.alpha == pytest.approx(c, rel=1e-12)


def test_closed_form_rejects_other_orders():
    with pytest.raises(ValueError):
        closed_form_threshold(CHI2, 0.05, 3)
    with pytest.raises(ValueError):
        closed_form_threshold(CHI2.truncated(2), 1.5, 2)


def test_tune_matches_closed_form_k2():
    res = tune_threshold_sdp(CHI2.truncated(2), 0.05, epsilon=1e-4)
    ref = closed_form_threshold(CHI2.truncated(2), 0.05, 2)
    assert abs(res.alpha - ref.alpha) <= 2e-4
    assert res.method == Method.SDP_BISECTION
    assert res.epsilon == 1e-4


def test_tune_k4_reference():
    res = tune_threshold_sdp(CHI2, 0.05, epsilon=1e-4)
    assert res.alpha == pytest.approx(9.1315, abs=0.06)
    assert res.achieved_worst_case <= 0.05 + 1e-6
    assert not res.bracket_degenerate


def test_tune_guarantee_direction():
    # at the returned threshold the worst case meets the target; a hair
    # below the bracket it must exceed the target
    res = tune_threshold_sdp(CHI2, 0.05, epsilon=1e-4)
    at = solve_sdp(CHI2, res.alpha).objective
    below = solve_sdp(CHI2, res.alpha - 2e-4).objective
    assert at <= 0.05 + 1e-6
    assert below > 0.05 - 1e-6


def test_threshold_ordering_in_moment_order_on_chi_squared():
    alphas = []
    alphas.append(closed_form_threshold(CHI2.truncated(1), 0.05, 1).alpha)
    for k in (2, 3, 4):
        alphas.append(tune_threshold_sdp(CHI2.truncated(k), 0.05, epsilon=1e-4).alpha)
    for hi, lo in zip(alphas[:-1], alphas[1:]):
        assert lo <= hi + 1e-4


def test_tune_markov_regime_high_dispersion():
    # when the coefficient of variation is large the two-moment optimum
    # sits at the Markov threshold M1/rate, below the k=2 closed form
    m = MomentSequence((1.0, 1.0, 26.0))  # C^2 = 25 > (1-A)/A at A = 0.05
    res = tune_threshold_sdp(m, 0.05, epsilon=1e-4)
    assert res.alpha == pytest.approx(1.0 / 0.05, abs=0.05)
    assert res.alpha < closed_form_threshold(m, 0.05, 2).alpha
    assert res.achieved_worst_case <= 0.05 + 1e-6


def test_tune_random_sequences_match_closed_form(rng):
    for _ in range(6):
        m = random_moments(rng, 2, lo=0.5, hi=4.0)
        c2 = m.variance / m.mean**2
        if c2 > 10.0:
            continue
        res = tune_threshold_sdp(m, 0.05, epsilon=1e-4)
        ref = closed_form_threshold(m, 0.05, 2)
        expected = min(ref.alpha, m.mean / 0.05)
        assert abs(res.alpha - expected) <= 3e-4


# random sequence #15 of acceptance criterion 2
SEQ15 = MomentSequence(
    (1.0, 3.487611887071376, 12.299231159213063, 43.845740550478375, 157.93227600190306)
)
# the law with weights (0.52100516, 0.47899484) on the atoms
# (2.78569025, 4.44869396), to six moments
TWO_ATOM = MomentSequence(
    (
        1.0,
        3.5822604519964583,
        13.522765056656262,
        53.43505838543608,
        218.98639668102658,
        922.0279696057548,
        3956.4755026157186,
    )
)


def test_tune_through_stall_above_the_rate():
    # the solve at the lower end alpha = M1 stalls, with a certified bound
    # far above the rate; tuning raises the lower end and goes on
    sol = solve_sdp(SEQ15, SEQ15.mean)
    assert sol.y.is_valid()
    assert sol.objective > 0.5
    k3 = tune_threshold_sdp(SEQ15.truncated(3), 0.05, epsilon=1e-4)
    res = tune_threshold_sdp(SEQ15, 0.05, epsilon=1e-4)
    assert res.achieved_worst_case <= 0.05
    assert res.alpha <= k3.alpha + 1e-4


def test_tune_through_stall_below_the_rate():
    # chi-squared(2) at rate 0.2 with five moments: a bisection midpoint
    # stalls with a certified bound just under the rate, which lowers the
    # upper end
    m = chi_squared_moments(2, 5)
    sol = solve_sdp(m, 5.36199951171875)
    assert sol.y.is_valid()
    assert sol.objective <= 0.2
    k4 = tune_threshold_sdp(m.truncated(4), 0.2, epsilon=1e-4)
    res = tune_threshold_sdp(m, 0.2, epsilon=1e-4)
    assert res.achieved_worst_case <= 0.2
    assert res.alpha <= k4.alpha + 1e-4


def test_default_upper_bracket_certified_by_lower_order():
    # beyond four moments the solves at the k = 4 threshold stall with
    # loose bounds above the rate; the k = 4 guarantee holds there anyway
    k4 = tune_threshold_sdp(TWO_ATOM.truncated(4), 0.2, epsilon=1e-4)
    # the upper atom carries weight 0.479 > 0.2, so any certified
    # threshold lies above it
    assert 4.44869396 < k4.alpha < 4.46
    for k in (5, 6):
        res = tune_threshold_sdp(TWO_ATOM.truncated(k), 0.2, epsilon=1e-4)
        assert res.achieved_worst_case <= 0.2 + 1e-7
        assert 4.44869396 < res.alpha <= k4.alpha + 1e-4


def test_bracket_degenerate_flag():
    # 0.9 w.p. 0.98 and 3.0 w.p. 0.02: the worst case at the mean is the
    # mass of the upper atom, already below the rate, so the lower end of
    # the default bracket is returned
    atoms, weights = np.array([0.9, 3.0]), np.array([0.98, 0.02])
    m = MomentSequence(tuple(float(np.sum(weights * atoms**r)) for r in range(5)))
    res = tune_threshold_sdp(m, 0.05, epsilon=1e-4)
    assert res.bracket_degenerate
    assert res.alpha == m.mean == pytest.approx(0.942)
    assert res.achieved_worst_case == pytest.approx(0.02, abs=1e-6)
    assert solve_sdp(m, m.mean).status is Status.OPTIMAL


def test_rate_domain():
    with pytest.raises(ValueError):
        tune_threshold_sdp(CHI2, 0.7, epsilon=1e-4)
    with pytest.raises(ValueError):
        tune_threshold_sdp(CHI2, 0.05, epsilon=0.0)
    with pytest.raises(ValueError):
        tune_threshold_sdp(CHI2.truncated(1), 0.05, epsilon=1e-4)


def test_threshold_result_csv_round_trip():
    # every float field is written with 17 digits, so it parses back exactly
    res = tune_threshold_sdp(CHI2.truncated(2), 0.05, epsilon=1e-4)
    method, k, rate, alpha, achieved, epsilon = res.to_csv_row().split(",")
    assert method == res.method.value
    assert int(k) == res.k
    assert float(rate) == res.target_rate
    assert float(alpha) == res.alpha
    assert float(achieved) == res.achieved_worst_case
    assert float(epsilon) == res.epsilon


def test_memoized_recursion_is_stable(monkeypatch):
    # each call tunes from an empty memo, so the second one cannot hand
    # back the first one's object and a nondeterministic step shows
    results = []
    for _ in range(2):
        monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
        results.append(tune_threshold_sdp(CHI2, 0.05, epsilon=1e-4))
    a, b = results
    assert a is not b
    assert a == b
