import math

import numpy as np
import pytest

from drdetect import (
    Method,
    MomentSequence,
    Status,
    ThresholdResult,
    chi_squared_moments,
    chi_squared_threshold,
    closed_form_threshold,
    noise_threshold,
    solve_sdp,
    tune_threshold_sdp,
)
from drdetect import detector_tuning
from drdetect.cli_runner import _write_thresholds

from conftest import SEQ15, TWO_ATOM, random_moments

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
    # the bound at the mean lies above the rate, so bisection left it
    assert res.alpha > CHI2.mean


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
    # chi-squared(2) at rate 0.2 with five moments: the solve at a
    # bisection midpoint stalls with a certified bound just under the rate;
    # the law's certificate settles that midpoint below the rate too, and
    # the upper end comes down there
    m = chi_squared_moments(2, 5)
    sol = solve_sdp(m, 5.36199951171875)
    assert sol.y.is_valid()
    assert sol.objective <= 0.2
    k4 = tune_threshold_sdp(m.truncated(4), 0.2, epsilon=1e-4)
    res = tune_threshold_sdp(m, 0.2, epsilon=1e-4)
    assert res.achieved_worst_case <= 0.2
    assert res.alpha <= k4.alpha + 1e-4


def test_default_upper_bracket_certified_by_lower_order():
    # beyond four moments the solves near the upper atom stall with loose
    # bounds above the rate; the rows hold their guarantees anyway
    k4 = tune_threshold_sdp(TWO_ATOM.truncated(4), 0.2, epsilon=1e-4)
    # the upper atom carries weight 0.479 > 0.2, so any certified
    # threshold lies above it
    assert 4.44869396 < k4.alpha < 4.46
    for k in (5, 6):
        res = tune_threshold_sdp(TWO_ATOM.truncated(k), 0.2, epsilon=1e-4)
        assert res.achieved_worst_case <= 0.2 + 1e-7
        assert 4.44869396 < res.alpha <= k4.alpha + 1e-4


def test_two_atom_law_tunes_below_the_stalled_rows():
    # the k = 4 row sat at 4.45434863055387 when only solves took the upper
    # end down, and k = 5 and 6 kept it, since each of their solves above
    # the upper atom stalled; the law's certificate brings all three down
    for k in (4, 5, 6):
        res = tune_threshold_sdp(TWO_ATOM.truncated(k), 0.2, epsilon=1e-4)
        assert 4.44869396 < res.alpha < 4.45434863055387
        assert res.achieved_worst_case <= 0.2


def _solve_log(monkeypatch):
    """(order, threshold) of every `solve_sdp` call tuning makes from here
    on, starting from an empty memo."""
    monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
    log = []
    original = detector_tuning.solve_sdp

    def logged(moments, alpha):
        log.append((moments.order, alpha))
        return original(moments, alpha)

    monkeypatch.setattr(detector_tuning, "solve_sdp", logged)
    return log


def test_upper_end_is_solved_only_when_no_midpoint_meets_the_rate(monkeypatch):
    log = _solve_log(monkeypatch)
    m = chi_squared_moments(2, 3)
    res = tune_threshold_sdp(m, 0.05, epsilon=1e-4)
    upper = min(
        closed_form_threshold(m.truncated(k), 0.05, k).alpha for k in (1, 2)
    )
    # of the lower end and 17 midpoints, 10 lie where an explicit law puts
    # more than the rate above them and 8 where its certificate bounds
    # every law under the rate; the one solve is at the returned upper end,
    # whose row keeps that program's objective
    assert log == [(3, res.alpha)]
    assert res.achieved_worst_case == solve_sdp(m, res.alpha).objective <= 0.05
    assert res.alpha < upper
    # at k = 5 the last midpoint to come down is settled by the certificate,
    # and the solve there stalls above the rate: the certificate's bound
    # stands in for it
    del log[:]
    k5 = tune_threshold_sdp(TWO_ATOM.truncated(5), 0.2, epsilon=1e-4)
    assert log[-1] == (5, k5.alpha)
    assert (5, k5.alpha) not in log[:-1]
    assert solve_sdp(TWO_ATOM.truncated(5), k5.alpha).objective > 0.2 + 1e-7
    _, certified = detector_tuning._law_ends(TWO_ATOM.truncated(5), k5.alpha)
    assert k5.achieved_worst_case == certified <= 0.2 - 1e-7
    # at k = 6 no midpoint meets the rate: the bound at the k = 5 threshold
    # is solved last, comes out above the rate, and the k = 5 guarantee
    # stands in for it
    del log[:]
    res = tune_threshold_sdp(TWO_ATOM.truncated(6), 0.2, epsilon=1e-4)
    assert log[-1] == (6, k5.alpha)
    assert (6, k5.alpha) not in log[:-1]
    assert solve_sdp(TWO_ATOM.truncated(6), k5.alpha).objective > 0.2 + 1e-7
    assert res.alpha == k5.alpha
    assert res.achieved_worst_case == k5.achieved_worst_case


def test_points_settled_by_a_law_take_the_sdp_branch(settled_points):
    # every point the tuner settles without a solve must be one where the
    # SDP takes the same branch, or the bisection would change: above the
    # rate where a law puts more than the rate above the point, and below
    # it where the law's checked certificate bounds every law under it
    above, below = set(), {}
    for seq, alpha, rate, (is_above, bound, certified) in settled_points:
        if bound is not None:
            continue
        if is_above:
            above.add((seq, alpha, rate))
        else:
            below[seq, alpha, rate] = certified
    # about 500 points are settled above the rate here, some by a law one
    # order down with a far atom, and about 180 below it
    assert len(above) >= 450
    assert len(below) >= 170
    for seq, alpha, rate in above:
        assert solve_sdp(seq, alpha).objective > rate, (seq, alpha, rate)
    optimal = 0
    for (seq, alpha, rate), certified in below.items():
        sol = solve_sdp(seq, alpha)
        if sol.status is Status.OPTIMAL:
            optimal += 1
            assert sol.objective <= rate, (seq, alpha, rate)
        else:
            # a stalled solve's bound is certified too, so it cannot sit
            # below the tight bound that the certificate meets
            assert sol.objective >= certified - 1e-9, (seq, alpha, rate)
    assert optimal >= 150


def test_lower_end_returned_when_its_bound_meets_the_rate():
    # 0.9 w.p. 0.98 and 3.0 w.p. 0.02: the worst case at the mean is the
    # mass of the upper atom, already below the rate, so the lower end of
    # the default bracket is returned
    atoms, weights = np.array([0.9, 3.0]), np.array([0.98, 0.02])
    m = MomentSequence(tuple(float(np.sum(weights * atoms**r)) for r in range(5)))
    res = tune_threshold_sdp(m, 0.05, epsilon=1e-4)
    assert res.alpha == m.mean == pytest.approx(0.942)
    assert res.achieved_worst_case == pytest.approx(0.02, abs=1e-6)
    assert solve_sdp(m, m.mean).status is Status.OPTIMAL


def test_rate_domain():
    with pytest.raises(ValueError):
        tune_threshold_sdp(CHI2, 0.7, epsilon=1e-4)
    # an infinite tolerance would skip every bisection step
    for epsilon in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            tune_threshold_sdp(CHI2, 0.05, epsilon=epsilon)
    with pytest.raises(ValueError):
        tune_threshold_sdp(CHI2.truncated(1), 0.05, epsilon=1e-4)
    valid = dict(
        alpha=9.0,
        method=Method.SDP_BISECTION,
        k=4,
        target_rate=0.05,
        achieved_worst_case=0.05,
    )
    ThresholdResult(**valid)
    for field, bad in (
        ("epsilon", math.nan),
        ("alpha", math.inf),
        ("achieved_worst_case", math.nan),
        ("achieved_worst_case", -1.0),
        ("achieved_worst_case", 2.0),
    ):
        with pytest.raises(ValueError):
            ThresholdResult(**{**valid, field: bad})


def test_threshold_result_csv_round_trip(tmp_path):
    # every float field is written with 17 digits, so it parses back exactly
    res = tune_threshold_sdp(CHI2.truncated(2), 0.05, epsilon=1e-4)
    line = _write_thresholds(tmp_path, [res]).read_text().splitlines()[1]
    method, k, rate, alpha, achieved, epsilon = line.split(",")
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
