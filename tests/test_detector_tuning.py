import math
from dataclasses import replace
from pathlib import Path

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
    tail_lower_bound,
    tune_threshold_sdp,
)
from drdetect import ExperimentConfig, bound_engine, detector_tuning, run_tune
from drdetect.cli_runner import _write_thresholds

from conftest import SEQ15, THREE_ATOM, TWO_ATOM, random_moments

CHI2 = chi_squared_moments(2, 4)
# the unpatched row function, which each row log wraps afresh
_BISECT = detector_tuning._bisect
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def test_chi_squared_threshold_values():
    assert chi_squared_threshold(2, 0.05) == pytest.approx(5.9915, abs=1e-3)
    # exceedance e^{-1} at threshold 2: the 2-dof law has P(q > x) = e^{-x/2}
    assert chi_squared_threshold(2, math.exp(-1.0)) == pytest.approx(2.0, abs=1e-6)
    assert chi_squared_threshold(4, 0.05) == pytest.approx(9.4877, abs=1e-3)
    # 2 dof has the closed form -2 ln(rate)
    assert chi_squared_threshold(2, 0.05) == pytest.approx(-2.0 * math.log(0.05), rel=1e-12)
    for rate in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"^rate must be in \(0, 1\)$"):
            chi_squared_threshold(2, rate)
    with pytest.raises(ValueError, match="degrees of freedom must be at least 1"):
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


def test_zero_variance_rows_lie_above_the_mean():
    # M2 = M1^2: every law with these moments is the point mass at M1,
    # which puts all its mass at a threshold there.  The k = 2 row and the
    # k = 3 row that keeps it take the first float above M1, where the
    # point mass puts nothing (the SDP cannot be the oracle: one ulp above
    # M1 its certificate needs coefficients near 1 / lambda^2)
    seq = MomentSequence((1.0, 2.0, 4.0, 8.0))
    rows = [
        closed_form_threshold(seq.truncated(2), 0.05, 2),
        tune_threshold_sdp(seq, 0.05, epsilon=1e-4),
    ]
    for row in rows:
        assert row.alpha == math.nextafter(2.0, math.inf), row.k
        assert row.achieved_worst_case == 0.0, row.k
        assert tail_lower_bound(seq.truncated(row.k), row.alpha) == 0.0, row.k
    # a variance that rounds slightly negative is clamped to the same case
    m1 = 0.1
    seq = MomentSequence((1.0, m1, m1 * m1 * (1 - 1e-16)))
    assert seq.moments[2] < m1 * m1
    row = closed_form_threshold(seq, 0.05, 2)
    assert row.alpha == math.nextafter(m1, math.inf)
    assert row.achieved_worst_case == 0.0
    assert tail_lower_bound(seq, row.alpha) == 0.0


def test_closed_form_rejects_other_orders():
    with pytest.raises(ValueError, match=r"closed forms exist for k in \{1, 2\} only"):
        closed_form_threshold(CHI2, 0.05, 3)
    # the rate check's own message: math.sqrt's domain error is a
    # ValueError too, and the row's own check names the target rate
    for k in (1, 2):
        with pytest.raises(ValueError, match=r"^rate must be in \(0, 1\)$"):
            closed_form_threshold(CHI2.truncated(k), 1.5, k)


def test_closed_form_rejects_sequences_it_cannot_place():
    with pytest.raises(ValueError, match="moment sequence of order >= 2 required"):
        closed_form_threshold(MomentSequence((1.0, 1.0)), 0.05, 2)
    with pytest.raises(ValueError, match="infeasible moment sequence"):
        closed_form_threshold(MomentSequence((1.0, 1.0, 0.5)), 0.05, 2)
    with pytest.raises(ValueError, match="the mean must be positive"):
        closed_form_threshold(MomentSequence((1.0, 0.0)), 0.05, 1)


def test_bisection_rejects_an_infeasible_order():
    # the k = 2 row that brackets k = 3 is feasible, so the order-3
    # sequence reaches the row function, whose own check turns it down
    with pytest.raises(ValueError, match="infeasible moment sequence") as error:
        tune_threshold_sdp(MomentSequence((1.0, 1.0, 2.0, -5.0)), 0.05)
    assert error.traceback[-1].name == "_bisect"


def _k2_rows(m, rate, monkeypatch):
    """The k = 2 rows that bisection tunes from the Markov row: with the
    window around the Christoffel root, which at k = 2 is the closed form
    itself, and with the root taken away, so that every point goes
    through `_settle`."""
    markov = closed_form_threshold(m.truncated(1), rate, 1)
    rows = [detector_tuning._bisect(m, rate, 1e-4, markov)]
    with monkeypatch.context() as mp:
        mp.setattr(detector_tuning, "_threshold_root", lambda *args: None)
        rows.append(detector_tuning._bisect(m, rate, 1e-4, markov))
    return rows


def test_tune_matches_closed_form_k2(monkeypatch):
    # the SDP bisection at k = 2 lands within epsilon above the closed
    # form, which is the tight threshold
    m = CHI2.truncated(2)
    ref = closed_form_threshold(m, 0.05, 2)
    for res in _k2_rows(m, 0.05, monkeypatch):
        assert ref.alpha <= res.alpha <= ref.alpha + 1e-4
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


def test_tune_markov_regime_high_dispersion(monkeypatch):
    # when the coefficient of variation is large the two-moment optimum
    # sits at the Markov threshold M1/rate, below Cantelli's; the k = 2
    # closed form takes it there, with the rate as its guarantee
    m = MomentSequence((1.0, 1.0, 26.0))  # C^2 = 25 > (1-A)/A at A = 0.05
    closed = closed_form_threshold(m, 0.05, 2)
    assert (closed.alpha, closed.achieved_worst_case) == (20.0, 0.05)
    assert closed.method is Method.CLOSED_FORM_K2
    for res in _k2_rows(m, 0.05, monkeypatch):
        assert res.alpha == pytest.approx(1.0 / 0.05, abs=0.05)
        assert res.alpha <= closed.alpha < 1.0 + math.sqrt(19.0) * 5.0
        assert res.achieved_worst_case <= 0.05 + 1e-6


def test_closed_form_k2_takes_markov_where_it_is_lower():
    # C^2 = 499 at rate 0.05: Cantelli's threshold is 0.984, where the
    # tight bound is 0.0102, and Markov's 0.2 already meets the rate
    m = MomentSequence((1.0, 0.01, 0.05))
    res = closed_form_threshold(m, 0.05, 2)
    assert res.alpha == 0.01 / 0.05 == pytest.approx(0.2)
    assert res.achieved_worst_case == 0.05
    assert solve_sdp(m, res.alpha).objective <= 0.05 + 1e-9
    # below the crossover C^2 = (1 - rate) / rate Cantelli's stays
    m = MomentSequence((1.0, 1.0, 1.0 + 18.0))
    res = closed_form_threshold(m, 0.05, 2)
    assert res.alpha == pytest.approx(1.0 + math.sqrt(19.0 * 18.0), rel=1e-14)
    assert res.alpha < 1.0 / 0.05


def test_tune_random_sequences_match_closed_form(rng, monkeypatch):
    # atoms on [0.5, 4] keep C^2 under 1.6, so Cantelli's threshold is the
    # closed form at rate 0.05, and the k = 2 bisection lands within
    # epsilon above it
    for _ in range(6):
        m = random_moments(rng, 2, lo=0.5, hi=4.0)
        ref = closed_form_threshold(m, 0.05, 2)
        assert ref.alpha < m.mean / 0.05
        for res in _k2_rows(m, 0.05, monkeypatch):
            assert ref.alpha <= res.alpha <= ref.alpha + 1e-4


def test_orders_1_and_2_return_the_closed_form_rows(monkeypatch):
    # at k <= 2 the tight threshold is the closed form: the tuner returns
    # closed_form_threshold's row field for field, and bisects from k = 3
    orders = []

    def logged(moments, *args):
        orders.append(moments.order)
        return _BISECT(moments, *args)

    monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
    monkeypatch.setattr(detector_tuning, "_bisect", logged)
    rng = np.random.default_rng(51)
    sequences = [chi_squared_moments(p, 3) for p in (1, 2, 4)]
    sequences += [
        random_moments(rng, 3, n_atoms=(2, 3, 5, 8)[i % 4]) for i in range(20)
    ]
    for seq in sequences:
        for rate in (0.01, 0.05, 0.2):
            for k in (1, 2):
                part = seq.truncated(k)
                row = tune_threshold_sdp(part, rate)
                assert row == closed_form_threshold(part, rate, k), (seq, rate, k)
            assert orders == [], (seq, rate)
            tune_threshold_sdp(seq, rate)
            assert orders.pop() == 3 and orders == [], (seq, rate)


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


def test_upper_end_that_no_point_took_down_is_not_solved(monkeypatch):
    log = _solve_log(monkeypatch)
    m = chi_squared_moments(2, 3)
    res = tune_threshold_sdp(m, 0.05, epsilon=1e-4)
    upper = min(
        closed_form_threshold(m.truncated(k), 0.05, k).alpha for k in (1, 2)
    )
    # of the lower end and 17 midpoints, 10 lie where an explicit law puts
    # more than the rate above them and 8 where its certificate bounds
    # every law under the rate; the last of those is the returned upper
    # end, and its row reports that certificate's mean with no solve
    assert log == []
    above, bound, certified = detector_tuning._settle(m, res.alpha, 0.05)
    assert not above and bound is None
    assert res.achieved_worst_case == certified <= 0.05
    # the mean is the tight bound up to rounding, which the solve there meets
    sol = solve_sdp(m, res.alpha)
    assert sol.status is Status.OPTIMAL
    assert abs(sol.objective - certified) <= 1e-9
    assert res.alpha < upper
    # at k = 4 the last midpoint to come down is settled by the certificate
    # of the two-atom law on the boundary, where a solve stalls above the
    # rate; the row reports the certificate's bound, again with no solve
    del log[:]
    k4 = tune_threshold_sdp(TWO_ATOM.truncated(4), 0.2, epsilon=1e-4)
    assert log == []
    assert solve_sdp(TWO_ATOM.truncated(4), k4.alpha).objective > 0.2 + 1e-7
    above, bound, certified = detector_tuning._settle(
        TWO_ATOM.truncated(4), k4.alpha, 0.2
    )
    assert not above and bound is None
    assert k4.achieved_worst_case == certified <= 0.2 - 1e-7
    # at k = 5 and 6 no midpoint meets the rate and nothing is solved: the
    # row keeps the k = 4 threshold and reports the lesser of its own
    # certificate's mean there and the guarantee of the row below.  At
    # k = 5 that is the k = 4 guarantee 2.59e-4, under the k = 5 mean
    # 4.49e-4, though the unique law's tail there is 0
    means = {}
    for k in (5, 6):
        del log[:]
        seq = TWO_ATOM.truncated(k)
        res = tune_threshold_sdp(seq, 0.2, epsilon=1e-4)
        assert log == []
        assert res.alpha == k4.alpha
        assert res.achieved_worst_case == k4.achieved_worst_case
        tail, means[k] = bound_engine._law_ends(seq, k4.alpha)
        assert tail == 0.0 and res.achieved_worst_case <= means[k]
    assert k4.achieved_worst_case == pytest.approx(2.59e-4, abs=1e-6)
    assert means[5] == pytest.approx(4.49e-4, abs=1e-6)


def test_epsilon_below_the_float_spacing_stops_at_adjacent_ends(monkeypatch):
    # one ulp of the threshold is 1.78e-15: at epsilon 1e-15 the bracket
    # ends become adjacent floats, whose midpoint rounds onto an end, and
    # bisection stops there where it used to settle that end forever
    monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
    original, calls = detector_tuning._settle, []

    def counted(*args):
        calls.append(args)
        if len(calls) > 200:
            raise RuntimeError("bisection settles the same point again")
        return original(*args)

    monkeypatch.setattr(detector_tuning, "_settle", counted)
    fine = tune_threshold_sdp(CHI2, 0.05, epsilon=1e-15)
    assert fine.alpha <= tune_threshold_sdp(CHI2, 0.05, epsilon=1e-4).alpha
    assert fine.achieved_worst_case <= 0.05


def test_law_pair_settles_points_within_1e_7_of_the_rate(monkeypatch):
    # chi-squared(1) at k = 4 and rate 0.01: both law ends at the returned
    # threshold lie 8.5e-8 under the rate and agree to 5e-18; the
    # certificate settles the point, and the row reports its mean with no
    # solve
    log = _solve_log(monkeypatch)
    res = tune_threshold_sdp(chi_squared_moments(1, 4), 0.01)
    assert log == []
    assert res.achieved_worst_case == 0.009999914662797057
    assert 0.01 - 1e-7 < res.achieved_worst_case
    # the laplacian config at seed 20: the k = 4 point that settles the
    # returned threshold has both ends 1.3e-8 under the rate
    log = _solve_log(monkeypatch)
    config = ExperimentConfig.from_json(CONFIG_DIR / "benchmark2d_laplacian.json")
    rows = run_tune(replace(config, seed=20))
    assert log == []
    assert rows[-1].k == 4
    assert rows[-1].achieved_worst_case == 0.049999986873783056


def test_far_atom_on_the_highest_fitting_rule_settles_without_a_solve(monkeypatch):
    # chi-squared(4) at k = 5 and alpha = M1 = 4, a point of every tuning
    # run at this order: the order-5 rule misses s_5 and no order-4 rule
    # exists.  The order-3 rule {0: 1/6, 1: 3/4, 3: 1/12} matches s_4 too,
    # and a far atom that carries the rest of s_5 makes it a law with all
    # six moments, whose tail 5/6 settles the point above every rate
    seq = chi_squared_moments(4, 5)
    assert abs(tail_lower_bound(seq, 4.0) - 5 / 6) <= 1e-12
    for rate in (0.01, 0.05, 0.2):
        log = _solve_log(monkeypatch)
        tune_threshold_sdp(seq, rate)
        assert log == [], rate


# two-atom sequences of the tune-sweep benchmark (seeds 1 and 12) whose
# rows from k = 4 on keep the mean M1, where the bound already meets the
# rate
KEPT_AT_THE_MEAN = [
    (
        MomentSequence(
            (
                1.0,
                1.9300119408307115,
                4.030636565393069,
                9.221681693677851,
                23.05298402124052,
                61.96689448302229,
                175.376941452544,
            )
        ),
        0.2,
    ),
    (
        MomentSequence(
            (
                1.0,
                2.0340523944242155,
                4.146580131735799,
                8.481981143209662,
                17.440316940186033,
                36.14068922494002,
                75.76170869774629,
            )
        ),
        0.05,
    ),
]


@pytest.mark.parametrize("seq, rate", KEPT_AT_THE_MEAN)
def test_achieved_does_not_rise_with_k_at_a_kept_threshold(seq, rate, monkeypatch):
    # a row returned at the lower end M1 that the row one order down also
    # returned reports the lesser of its own settling bound and that row's
    # guarantee, which certifies k moments too
    monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
    rows = [tune_threshold_sdp(seq.truncated(k), rate) for k in range(3, 7)]
    kept = 0
    for lower, row in zip(rows, rows[1:]):
        if row.alpha == lower.alpha:
            kept += 1
            assert row.alpha == seq.mean
            assert row.achieved_worst_case <= lower.achieved_worst_case, row.k
    assert kept == 2


def _row_log(monkeypatch):
    """{(moments, rate): row} of every row that bisection tunes from here
    on, starting from an empty memo."""
    monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
    rows = {}

    def logged(moments, rate, epsilon, upper):
        row = _BISECT(moments, rate, epsilon, upper)
        rows[moments, rate] = row
        return row

    monkeypatch.setattr(detector_tuning, "_bisect", logged)
    return rows


def _initial_upper_end(seq, rate, rows):
    """The row whose threshold bisection takes as its initial upper end:
    the row one order down, which is never above the Markov row."""
    if seq.order == 3:
        lower = closed_form_threshold(seq.truncated(2), rate, 2)
    else:
        lower = rows[seq.truncated(seq.order - 1), rate]
    assert lower.alpha <= closed_form_threshold(seq.truncated(1), rate, 1).alpha
    return lower


def test_row_reports_the_bound_that_settled_its_threshold(settled_points, monkeypatch):
    # each row tuned for settled_points reports the bound that settled the
    # threshold it returns: the certificate's mean where a law did, which
    # is at most the rate, and the objective where a solve did.  A fresh
    # solve there that is optimal is the tight bound, which the
    # certificate meets up to rounding
    rows = _row_log(monkeypatch)
    cases = {(seq, rate) for seq, _, rate, _ in settled_points}
    for seq, rate in cases:
        tune_threshold_sdp(seq, rate, epsilon=1e-4)
    assert set(rows) == cases
    settled = {(seq, alpha, rate): result for seq, alpha, rate, result in settled_points}
    by_certificate = by_solve = by_upper_end = 0
    for (seq, rate), row in rows.items():
        result = settled.get((seq, row.alpha, rate))
        if result is None:
            # no point took the initial upper end down: nothing is solved
            # there, and the row reports the lesser of two certified bounds,
            # its own certificate's mean and the lower-order guarantee
            by_upper_end += 1
            upper = _initial_upper_end(seq, rate, rows)
            assert row.alpha == upper.alpha, (seq, rate)
            tail, mean = bound_engine._law_ends(seq, row.alpha)
            assert row.achieved_worst_case == min(
                mean, upper.achieved_worst_case
            ), (seq, rate)
            # neither lies under the tight bound, which a law's tail meets
            # up to rounding and an optimal solve to its tolerance
            assert row.achieved_worst_case >= tail - 1e-15, (seq, rate)
            sol = solve_sdp(seq, row.alpha)
            if sol.status is Status.OPTIMAL:
                assert row.achieved_worst_case >= sol.objective - 1e-9, (seq, rate)
            continue
        above, bound, certified = result
        assert not above, (seq, rate)
        if bound is None:
            by_certificate += 1
            assert row.achieved_worst_case == certified, (seq, rate)
            assert certified <= rate, (seq, rate)
            sol = solve_sdp(seq, row.alpha)
            if sol.status is Status.OPTIMAL:
                assert row.achieved_worst_case <= sol.objective + 1e-9, (seq, rate)
        else:
            by_solve += 1
            assert row.achieved_worst_case == bound, (seq, rate)
    # 30, 0 and 12 of the 42 rows: with both law ends meeting the rate
    # itself, no row here is settled by a solve
    assert by_certificate >= 28 and by_solve == 0 and by_upper_end >= 10


def test_every_row_meets_its_rate_and_a_kept_threshold_keeps_its_bound(
    settled_points, monkeypatch
):
    # an SDP row's guarantee meets its target rate with no slack, and a row
    # that keeps the lower-order threshold reports at most the lower-order
    # guarantee, which certifies k moments too.  The rows are those tuned
    # for settled_points and those that run_tune tunes on the two
    # checked-in configs, the memoized rows under them included.  The
    # laplacian k = 3 row under the k = 4 one keeps the k = 2 threshold,
    # where a solve reads 0.05000000047164323, above the rate 0.05
    runs = [_row_log(monkeypatch)]
    for seq, rate in {(seq, rate) for seq, _, rate, _ in settled_points}:
        tune_threshold_sdp(seq, rate, epsilon=1e-4)
    for name in ("benchmark2d_gaussian", "benchmark2d_laplacian"):
        runs.append(_row_log(monkeypatch))
        run_tune(ExperimentConfig.from_json(CONFIG_DIR / f"{name}.json"))
    kept = 0
    for rows in runs:
        for (seq, rate), row in rows.items():
            assert row.achieved_worst_case <= row.target_rate == rate, (seq, rate)
            upper = _initial_upper_end(seq, rate, rows)
            if row.alpha == upper.alpha:
                kept += 1
                assert row.achieved_worst_case <= upper.achieved_worst_case, (seq, rate)
    assert [len(rows) for rows in runs] == [42, 2, 2]
    # 12 rows for settled_points, and one on each config
    assert kept == 14


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


def test_boundary_law_leaves_no_solve_in_few_atom_rows(monkeypatch):
    # two and three atoms lie on the boundary of the moment cone from four
    # and six moments on: no Gauss-Radau rule of order k exists near the
    # atoms, and the unique law settles those points.  No row is solved:
    # two atoms at k = 5 and 6 keep the k = 4 threshold, where no point
    # took that end down, and report the lesser of their own certificate's
    # mean and the guarantee of the row below.  Without that law the points
    # near the atoms are solved, and take the same branches but one
    cases = [(seq, k) for seq in (TWO_ATOM, THREE_ATOM) for k in range(3, 7)]

    def tune_all():
        log = _solve_log(monkeypatch)
        rows = [tune_threshold_sdp(seq.truncated(k), 0.05) for seq, k in cases]
        return rows, log

    rows, log = tune_all()
    assert log == []
    k4, k5, k6 = rows[1:4]
    assert k4.alpha == k5.alpha == k6.alpha
    # at k = 5 the mean 5.19e-5 is under the k = 4 guarantee 2.01e-4; at
    # k = 6 the k = 5 guarantee is under the mean 3.17e-4
    means = [
        bound_engine._law_ends(TWO_ATOM.truncated(k), k4.alpha)[1] for k in (5, 6)
    ]
    assert k5.achieved_worst_case == means[0] < k4.achieved_worst_case
    assert k6.achieved_worst_case == k5.achieved_worst_case < means[1]
    assert k5.achieved_worst_case == pytest.approx(5.19e-5, abs=1e-7)
    assert k4.achieved_worst_case == pytest.approx(2.01e-4, abs=1e-6)
    monkeypatch.setattr(bound_engine, "_boundary_law", lambda scaled, k: None)
    plain, plain_log = tune_all()
    assert len(plain_log) == 35
    assert plain[:2] + plain[4:-1] == rows[:2] + rows[4:-1]
    # without the law no k = 5 or 6 certificate exists at the k = 4
    # threshold, and the k = 4 guarantee stands for both rows
    for row in plain[2:4]:
        assert (row.alpha, row.achieved_worst_case) == (
            k4.alpha,
            k4.achieved_worst_case,
        )
    # three atoms at k = 6: a solve that stalls just above the top atom 3.4
    # takes the lower end up, where the law settles the point below
    assert 3.4 < rows[-1].alpha < 3.4 + 1e-4 < plain[-1].alpha
    assert rows[-1].achieved_worst_case <= 0.05


def test_boundary_law_finds_nothing_at_interior_bisection_points(
    settled_points, monkeypatch
):
    # the sequences the command line tunes lie inside the moment cone, so
    # the boundary law can move none of their bytes: chi-squared(1, 2, 4)
    # at k = 3..6, and the laplacian config's empirical moments at k = 3, 4
    chi2 = {
        chi_squared_moments(p, 6).truncated(k) for p in (1, 2, 4) for k in range(3, 7)
    }
    points = [(seq, alpha) for seq, alpha, _, _ in settled_points if seq in chi2]
    config = ExperimentConfig.from_json(CONFIG_DIR / "benchmark2d_laplacian.json")
    original = detector_tuning._settle

    def logged(moments, alpha, rate):
        points.append((moments, alpha))
        return original(moments, alpha, rate)

    monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
    monkeypatch.setattr(detector_tuning, "_settle", logged)
    run_tune(config)
    assert len(points) >= 600
    for seq, alpha in points:
        scaled = np.array(seq.scaled(1.0 / alpha).moments)
        assert bound_engine._boundary_law(scaled, seq.order) is None, (seq, alpha)


def test_settle_compares_both_law_ends_with_the_rate():
    # the law {0.5 w.p. 3/4, 2 w.p. 1/4} at alpha = 1 with four moments:
    # no Gauss-Radau rule exists, and the boundary law's ends are 0.25 and
    # 0.25 less 4 ulps.  Each end meets the rate itself, with no margin
    m = MomentSequence(tuple(0.75 * 0.5**r + 0.25 * 2.0**r for r in range(5)))
    tail, mean = bound_engine._law_ends(m, 1.0)
    assert (tail, mean) == (0.25, 0.2499999999999996)
    # a tail one ulp above the rate settles the point above, with no solve
    rate = math.nextafter(tail, 0.0)
    assert detector_tuning._settle(m, 1.0, rate) == (True, None, None)
    # the ends cross by rounding: at a rate between them, or equal to the
    # mean, the tail still exceeds it and the point goes up, which only
    # raises the lower end
    for rate in (mean, 0.2499999999999998):
        assert detector_tuning._settle(m, 1.0, rate) == (True, None, None)
    # at the tail itself the certificate settles the point below, and its
    # mean is the bound reported
    assert detector_tuning._settle(m, 1.0, tail) == (False, None, mean)
    # the boundary certificate of the two-atom law at its k = 4 threshold
    # for rate 0.2 is loose: its mean 2.59e-4 lies above the law's tail 0.
    # At a rate strictly between the two ends, the point is solved
    seq = TWO_ATOM.truncated(4)
    alpha = tune_threshold_sdp(seq, 0.2, epsilon=1e-4).alpha
    tail, mean = bound_engine._law_ends(seq, alpha)
    assert tail == 0.0 and mean == pytest.approx(2.59e-4, abs=1e-6)
    above, bound, certified = detector_tuning._settle(seq, alpha, 1e-4)
    assert bound is not None and certified is None
    assert above == (bound > 1e-4)


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
    with pytest.raises(ValueError, match=r"target rate must be in \(0, 0\.5\]"):
        tune_threshold_sdp(CHI2, 0.7, epsilon=1e-4)
    # an infinite tolerance would skip every bisection step
    for epsilon in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            tune_threshold_sdp(CHI2, 0.05, epsilon=epsilon)
    # order 1 is Markov's row, with no bisection
    res = tune_threshold_sdp(CHI2.truncated(1), 0.05, epsilon=1e-4)
    assert res == closed_form_threshold(CHI2.truncated(1), 0.05, 1)
    assert (res.alpha, res.method, res.epsilon) == (40.0, Method.CLOSED_FORM_K1, 0.0)
    valid = dict(
        alpha=9.0,
        method=Method.SDP_BISECTION,
        k=4,
        target_rate=0.05,
        achieved_worst_case=0.05,
    )
    ThresholdResult(**valid)
    # each bound of each interval: a zero tolerance and a certain alarm are
    # valid rows
    ThresholdResult(**{**valid, "epsilon": 0.0})
    ThresholdResult(**{**valid, "achieved_worst_case": 1.0})
    for field, bad, message in (
        ("target_rate", 1.5, r"target rate must be in \(0, 1\)"),
        ("target_rate", 1.0, r"target rate must be in \(0, 1\)"),
        ("target_rate", 0.0, r"target rate must be in \(0, 1\)"),
        ("epsilon", math.nan, "bisection tolerance must be nonnegative"),
        ("epsilon", -1e-4, "bisection tolerance must be nonnegative"),
        ("alpha", math.inf, "threshold must be positive and finite"),
        ("alpha", 0.0, "threshold must be positive and finite"),
        ("achieved_worst_case", math.nan, r"worst-case probability must be in \[0, 1\]"),
        ("achieved_worst_case", -1.0, r"worst-case probability must be in \[0, 1\]"),
        ("achieved_worst_case", 2.0, r"worst-case probability must be in \[0, 1\]"),
    ):
        with pytest.raises(ValueError, match=message):
            ThresholdResult(**{**valid, field: bad})


def test_threshold_result_csv_round_trip(tmp_path):
    # every float field is written with 17 digits, so it parses back exactly
    res = tune_threshold_sdp(CHI2, 0.05, epsilon=1e-4)
    line = _write_thresholds(tmp_path, [res]).read_text().splitlines()[1]
    method, k, rate, alpha, achieved, epsilon = line.split(",")
    assert method == res.method.value
    assert int(k) == res.k
    assert float(rate) == res.target_rate
    assert float(alpha) == res.alpha
    assert float(achieved) == res.achieved_worst_case
    assert float(epsilon) == res.epsilon


def test_orders_are_tuned_in_one_ascending_walk(monkeypatch):
    # from an empty memo, one public call tunes k = 6 through one row per
    # order 3..6, each bracketed by the row one order down; no call goes
    # back through the public function for a lower order
    monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
    public, rows = [], []
    tune = detector_tuning.tune_threshold_sdp

    def counted(*args, **kwargs):
        public.append(args)
        return tune(*args, **kwargs)

    def logged(*args):
        row = _BISECT(*args)
        rows.append((args, row))
        return row

    monkeypatch.setattr(detector_tuning, "tune_threshold_sdp", counted)
    monkeypatch.setattr(detector_tuning, "_bisect", logged)
    seq = chi_squared_moments(2, 6)
    top = detector_tuning.tune_threshold_sdp(seq, 0.05, epsilon=1e-4)
    assert len(public) == 1
    assert [args[0].order for args, _ in rows] == [3, 4, 5, 6]
    below = closed_form_threshold(seq.truncated(2), 0.05, 2)
    for (moments, rate, epsilon, upper), row in rows:
        assert moments == seq.truncated(row.k) and (rate, epsilon) == (0.05, 1e-4)
        assert upper == below, row.k
        below = row
    assert top is below


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


def _window_cases():
    """(moments, rate) chains for the window tests: chi-squared(1, 2, 4)
    at three rates, the few-atom sequences and sequence #15 at each rate,
    and 40 random atomic laws of 2 to 7 atoms to six moments."""
    rates = (0.01, 0.05, 0.2)
    cases = [(chi_squared_moments(p, 6), rate) for p in (1, 2, 4) for rate in rates]
    cases += [(seq, rate) for seq in (TWO_ATOM, THREE_ATOM, SEQ15) for rate in rates]
    rng = np.random.default_rng(49)
    cases += [
        (random_moments(rng, 6, n_atoms=(2, 3, 5, 7)[i % 4]), rates[i % 3])
        for i in range(40)
    ]
    return cases


def _tuned_rows(monkeypatch, cases, root=True):
    """The rows k = 3 and up of every case, each case from an empty memo,
    as (alpha hex, achieved hex); every point `_settle` settles, as
    (moments, alpha, rate, above); and the window of each bisected order,
    keyed by (moments, rate).  With `root` False the window's root is
    taken away, so every point goes through `_settle`."""
    points, windows = [], {}
    settle, window = detector_tuning._settle, detector_tuning._window

    def logged_settle(moments, alpha, rate):
        result = settle(moments, alpha, rate)
        points.append((moments, alpha, rate, result[0]))
        return result

    def logged_window(moments, rate, lo, hi):
        windows[moments, rate] = window(moments, rate, lo, hi)
        return windows[moments, rate]

    rows = []
    with monkeypatch.context() as mp:
        mp.setattr(detector_tuning, "_settle", logged_settle)
        mp.setattr(detector_tuning, "_window", logged_window)
        if not root:
            mp.setattr(detector_tuning, "_threshold_root", lambda *args: None)
        for seq, rate in cases:
            mp.setattr(detector_tuning, "_AUTO_CACHE", {})
            tune_threshold_sdp(seq, rate, epsilon=1e-4)
            for row in sorted(detector_tuning._AUTO_CACHE.values(), key=lambda r: r.k):
                rows.append((row.alpha.hex(), row.achieved_worst_case.hex()))
    return rows, points, windows


def _certified(windows):
    """Each window with its upper end a certified by the law pair, the
    check the row's final settle makes there, and inf where the pair does
    not certify it."""
    certified = {}
    for (moments, rate), (b, a) in windows.items():
        if a < math.inf:
            tail, mean = bound_engine._law_ends(moments, a, below=rate, above=rate)
            if not (tail <= rate and mean <= rate):
                a = math.inf
        certified[moments, rate] = b, a
    return certified


def test_window_keeps_every_row_and_halves_the_settled_points(monkeypatch):
    # the window around the Christoffel root settles every point outside
    # it by monotonicity: each row keeps the bits of the bisection that
    # settles every point, at least half of the points go, and every
    # point of that bisection outside a window, its upper end certified
    # by the law pair, takes the window's branch
    cases = _window_cases()
    rows, points, windows = _tuned_rows(monkeypatch, cases)
    windows = _certified(windows)
    plain_rows, plain_points, _ = _tuned_rows(monkeypatch, cases, root=False)
    assert len(rows) == 4 * 9 + 4 * 6 + 2 * 3 + 4 * 40
    assert rows == plain_rows
    assert 2 * len(points) <= len(plain_points), (len(points), len(plain_points))
    covered = 0
    for moments, alpha, rate, above in plain_points:
        b, a = windows[moments, rate]
        if alpha <= b or alpha >= a:
            covered += 1
            assert above == (alpha <= b), (moments, alpha, rate, b, a)
    assert 2 * covered >= len(plain_points), (covered, len(plain_points))


def test_window_drops_a_lower_end_that_no_law_certifies(monkeypatch):
    # a root at the upper bracket end puts the window's lower end one
    # relative 2^-20 below the row one order down, above the tight
    # threshold, where no law puts more than the rate: that end is dropped
    # and settles nothing, and every row keeps the bits of the bisection
    # that settles every point.  No input reaches this: where a root
    # exists, its window's lower end lies below the tight threshold
    windows = {}
    window = detector_tuning._window

    def logged(moments, rate, lo, hi):
        windows[moments.order, rate] = window(moments, rate, lo, hi)
        return windows[moments.order, rate]

    monkeypatch.setattr(detector_tuning, "_window", logged)
    rows = []
    for root in (lambda moments, rate, start: start, lambda *args: None):
        monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
        monkeypatch.setattr(detector_tuning, "_threshold_root", root)
        for rate in (0.01, 0.05):
            tune_threshold_sdp(CHI2, rate, epsilon=1e-4)
        rows.append(
            {
                (row.k, row.target_rate): (
                    row.alpha.hex(),
                    row.achieved_worst_case.hex(),
                )
                for row in detector_tuning._AUTO_CACHE.values()
            }
        )
        if len(rows) == 1:
            assert len(windows) == 4
            assert all(b == -math.inf for b, _ in windows.values()), windows
    at_the_upper_end, plain = rows
    assert len(plain) == 4
    assert at_the_upper_end == plain


@pytest.mark.parametrize("rate", [0.01, 0.05, 0.2])
def test_upper_end_that_settle_refuses_is_bisected_again(monkeypatch, rate):
    # a window that claims every point from the first midpoint up below the
    # rate, where the bisection that settles every point finds that
    # midpoint above it: no later point is settled below, so the claimed
    # point stays the upper end, is settled again, lies above the rate, and
    # the row is bisected again with no upper end, to the plain bits
    brackets = {}

    def wrong_window(moments, rate, lo, hi):
        brackets[moments.order] = lo, hi
        return -math.inf, 0.5 * (lo + hi)

    rows = []
    for patch in ("_threshold_root", "_window"):
        monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
        if patch == "_threshold_root":
            monkeypatch.setattr(detector_tuning, "_threshold_root", lambda *args: None)
        else:
            monkeypatch.setattr(detector_tuning, "_window", wrong_window)
        tune_threshold_sdp(CHI2, rate, epsilon=1e-4)
        rows.append({row.k: row for row in detector_tuning._AUTO_CACHE.values()})
    plain, windowed = rows
    assert sorted(brackets) == sorted(plain) == [3, 4]
    for k, (lo, hi) in brackets.items():
        assert plain[k].alpha > 0.5 * (lo + hi)
        assert windowed[k].alpha.hex() == plain[k].alpha.hex()
        assert windowed[k].achieved_worst_case.hex() == plain[k].achieved_worst_case.hex()


@pytest.mark.parametrize("rate", [0.01, 0.05, 0.2])
def test_refused_upper_end_is_bisected_again_from_the_lower_end(monkeypatch, rate):
    # a window with its certified lower end b and an upper end at the first
    # float above b, below the tight threshold: every point takes a window
    # branch, the final upper end's settle refuses it, and the row is
    # bisected again with b kept and no upper end.  The row keeps the bits
    # of the bisection that settles every point, and no point at or below
    # b is settled, where an empty window would settle the mean again
    window, settle = detector_tuning._window, detector_tuning._settle
    windows, settled = {}, {}

    def upper_end_below(moments, rate, lo, hi):
        b, _ = window(moments, rate, lo, hi)
        windows[moments.order] = b, math.nextafter(b, math.inf)
        return windows[moments.order]

    def logged_settle(moments, alpha, rate):
        result = settle(moments, alpha, rate)
        settled.setdefault(moments.order, []).append((alpha, result[0]))
        return result

    def tuned():
        monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
        settled.clear()
        tune_threshold_sdp(CHI2, rate, epsilon=1e-9)
        return {row.k: row for row in detector_tuning._AUTO_CACHE.values()}

    monkeypatch.setattr(detector_tuning, "_settle", logged_settle)
    with monkeypatch.context() as mp:
        mp.setattr(detector_tuning, "_window", upper_end_below)
        windowed, windowed_settled = tuned(), dict(settled)
    monkeypatch.setattr(detector_tuning, "_threshold_root", lambda *args: None)
    plain = tuned()
    # the plain bisection settles the mean, which lies at or below b
    assert all(points[0] == (CHI2.moments[1], True) for points in settled.values())
    assert sorted(windows) == sorted(plain) == [3, 4]
    for k, (b, a) in windows.items():
        assert -math.inf < b
        # the first point settled is the windowed final upper end, refused
        (first, above), *rest = windowed_settled[k]
        assert first >= a and above
        assert all(alpha > b for alpha, _ in rest), (k, b)
        assert windowed[k].alpha.hex() == plain[k].alpha.hex()
        assert windowed[k].achieved_worst_case.hex() == plain[k].achieved_worst_case.hex()


def test_window_takes_one_law_pair_per_rooted_order(monkeypatch):
    # the window evaluates the law pair at its lower end alone: one call
    # per order with a root, at b where b is certified, and none where
    # there is no root, as on the two-atom sequence from k = 4
    window, law_ends = detector_tuning._window, detector_tuning._law_ends
    calls, windows = [], []

    def counted_law_ends(moments, alpha, **kwargs):
        calls.append(alpha)
        return law_ends(moments, alpha, **kwargs)

    def logged_window(moments, rate, lo, hi):
        before = len(calls)
        b, a = window(moments, rate, lo, hi)
        windows.append((b, a, calls[before:]))
        return b, a

    monkeypatch.setattr(detector_tuning, "_law_ends", counted_law_ends)
    monkeypatch.setattr(detector_tuning, "_window", logged_window)
    monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
    for seq in (chi_squared_moments(1, 6), chi_squared_moments(2, 6), TWO_ATOM):
        tune_threshold_sdp(seq, 0.05, epsilon=1e-4)
    rooted = [(b, evaluated) for b, a, evaluated in windows if a < math.inf]
    assert len(rooted) == 9 and len(windows) == 12
    for b, evaluated in rooted:
        assert len(evaluated) == 1
        assert b == -math.inf or evaluated == [b]
    assert all(evaluated == [] for _, a, evaluated in windows if a == math.inf)
