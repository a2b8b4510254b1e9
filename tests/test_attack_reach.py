import math
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drdetect import (
    AttackPolicy,
    LtiSystem,
    Method,
    NoiseFamily,
    NoiseModel,
    ThresholdResult,
    benchmark_system,
    noise_threshold,
    reach_bound,
    simulate,
    volume_comparison,
)
from drdetect import attack_reach
from drdetect.attack_reach import _BLOCK, _truncation_bound
from drdetect.cli_runner import _write_reach
from drdetect.cps_sim import _psd_factor


def _identity_system(sigma_w=((1.0, 0.0), (0.0, 1.0))):
    return LtiSystem.from_matrices(
        A=[[0.5, 0.0], [0.0, 0.5]],
        B=[[1.0, 0.0], [0.0, 1.0]],
        C=[[1.0, 0.0], [0.0, 1.0]],
        K=[[-0.25, 0.0], [0.0, -0.25]],
        sigma_w=sigma_w,
        sigma_v=[[1.0, 0.0], [0.0, 1.0]],
    )


def _flat_system():
    # sigma_w = diag(1, 0) and a diagonal A: every summand is flat along x2
    return _identity_system(sigma_w=[[1.0, 0.0], [0.0, 0.0]])


def _diagonal_plant(a):
    """A = diag(a, 0.5) under the gain K = diag(-0.5, 0): A + B K and
    A - L C are stable for any a in (0, 1.5), A itself for a < 1."""
    return LtiSystem.from_matrices(
        A=[[a, 0.0], [0.0, 0.5]],
        B=[[1.0, 0.0], [0.0, 1.0]],
        C=[[1.0, 0.0], [0.0, 1.0]],
        K=[[-0.5, 0.0], [0.0, 0.0]],
        sigma_w=[[0.01, 0.0], [0.0, 0.01]],
        sigma_v=[[1.0, 0.0], [0.0, 1.0]],
    )


def _three_state_system():
    # three states: reach_bound samples random directions, with no polygon
    return LtiSystem.from_matrices(
        A=[[0.9, 0.2, 0.0], [0.0, 0.7, 0.1], [0.05, 0.0, 0.8]],
        B=[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
        C=[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        K=[[-0.3, 0.0, 0.0], [0.0, -0.2, -0.1]],
        sigma_w=(0.1 * np.eye(3)).tolist(),
        sigma_v=np.eye(2).tolist(),
    )


def _one_state_system():
    # one state: the directions are +-1, and each G has a single row
    return LtiSystem.from_matrices(
        A=[[0.5]], B=[[1.0]], C=[[1.0]], K=[[-0.2]], sigma_w=[[1.0]], sigma_v=[[1.0]]
    )


def _four_state_system():
    return LtiSystem.from_matrices(
        A=[[0.6, 0.1, 0.0, 0.0], [0.0, 0.5, 0.1, 0.0], [0.0, 0.0, 0.4, 0.1], [0.1, 0.0, 0.0, 0.3]],
        B=[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
        C=[[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
        K=[[-0.2, 0.0, 0.0, 0.0], [0.0, 0.0, -0.1, 0.0]],
        sigma_w=(0.1 * np.eye(4)).tolist(),
        sigma_v=np.eye(2).tolist(),
    )


_SYSTEMS = {
    "benchmark": benchmark_system,
    "identity": _identity_system,
    "flat": _flat_system,
    # its tail runs over 600 terms, across ten blocks of powers
    "slow": lambda: _diagonal_plant(0.95),
    "one": _one_state_system,
    "three": _three_state_system,
    "four": _four_state_system,
}
# the gaussian thresholds.csv: chi-squared, k = 4, k = 2, k = 1
_ALPHAS = (5.991464547107979, 9.1818473667080447, 10.717797887081346, 40.0)


def _bits(rb):
    """Every support value, vertex and area of a bound, bit for bit."""
    return (
        rb.support_values.tobytes(),
        None if rb.boundary is None else rb.boundary.tobytes(),
        None if rb.area is None else rb.area.hex(),
    )


def _per_matrix_truncation(sys_, w_bar, alpha, t):
    """_truncation_bound's tail sum (i >= t-1), with one eigvalsh call per
    matrix."""
    a_cl = sys_.A + sys_.B @ sys_.K
    lsl = sys_.L @ sys_.sigma_r @ sys_.L.T
    a_pow = np.eye(sys_.n)
    acl_pow = np.eye(sys_.n)
    for _ in range(t - 1):
        a_pow = sys_.A @ a_pow
        acl_pow = a_cl @ acl_pow
    truncation = 0.0
    for _ in range(10_000):
        h = acl_pow - a_pow
        term = math.sqrt(
            max(0.0, w_bar * np.linalg.eigvalsh(a_pow @ sys_.sigma_w @ a_pow.T)[-1])
        ) + math.sqrt(max(0.0, alpha * np.linalg.eigvalsh(h @ lsl @ h.T)[-1]))
        truncation += term
        if term < 1e-16 * max(1.0, truncation):
            return truncation
        a_pow = sys_.A @ a_pow
        acl_pow = a_cl @ acl_pow
    return math.inf


def _summands(sys_, w_bar, alpha, t, directions):
    """reach_bound's summands one at a time, in series order (w then h per
    step i): (i, G, G d, |G d|) with G = (sqrt(s) F') P' from
    (f @ P.T) @ dirs.T, F F' = M, and the squares of G d summed over its
    rows in order."""
    a_cl = sys_.A + sys_.B @ sys_.K
    factors = (
        math.sqrt(w_bar) * _psd_factor(sys_.sigma_w).T,
        math.sqrt(alpha) * _psd_factor(sys_.L @ sys_.sigma_r @ sys_.L.T).T,
    )
    a_pow = np.eye(sys_.n)
    acl_pow = np.eye(sys_.n)
    for i in range(t - 1):
        for f, p in zip(factors, (a_pow, acl_pow - a_pow)):
            g = f @ p.T
            gd = g @ directions.T
            squares = gd[0] * gd[0]
            for row in gd[1:]:
                squares = squares + row * row
            yield i, g, gd, np.sqrt(squares)
        a_pow = sys_.A @ a_pow
        acl_pow = a_cl @ acl_pow


def _reference_reach(sys_, w_bar, alpha, t, directions):
    """reach_bound one summand at a time: the support values |G d| of
    _summands added in series order, with the sum of the summands'
    maximizers G'(G d)/|G d| as an exact point of the set, and the tail of
    _per_matrix_truncation."""
    points = np.zeros((len(directions), sys_.n))
    support = np.zeros(len(directions))
    for _, g, gd, norm in _summands(sys_, w_bar, alpha, t, directions):
        support = support + norm
        on = norm >= 1e-7
        points[on] += (gd[:, on] / norm[on]).T @ g
    return points, support, _per_matrix_truncation(sys_, w_bar, alpha, t)


def _max_vertex_miss(rb):
    """How far the vertices lie off their two support lines: vertex i is
    on those of directions i and i + 1."""
    u, h = rb.directions, rb.support_values
    first = np.sum(rb.boundary * u, axis=1) - h
    second = np.sum(rb.boundary * np.roll(u, -1, axis=0), axis=1) - np.roll(h, -1)
    return float(max(np.abs(first).max(), np.abs(second).max()))


def _assert_inside_polygon(rb, points):
    """Every point is on the inner (left) side of every edge v_i -> v_{i+1}
    of the counterclockwise polygon, to 1e-12 of the largest support.  The
    cross products are scaled by the longest edge, not each edge's own
    length: an edge of a flat polygon can be as short as its rounding, and
    then its direction is noise."""
    v = rb.boundary
    edge = np.roll(v, -1, axis=0) - v
    rel = points[:, None, :] - v[None, :, :]
    cross = edge[:, 0] * rel[:, :, 1] - edge[:, 1] * rel[:, :, 0]
    longest = np.linalg.norm(edge, axis=1).max()
    assert np.all(cross >= -1e-12 * rb.support_values.max() * longest)


@pytest.mark.parametrize(
    "system, w_bar, alpha, t, n_dirs",
    [
        ("benchmark", 40.0, 9.1315, 50, 256),
        ("benchmark", 40.0, 40.0, 50, 64),
        ("benchmark", 40.0, 0.0, 10, 16),
        ("benchmark", 0.0, 5.9915, 2, 64),
        ("benchmark", 80.0, 40.0, 150, 128),
        ("identity", 1.0, 0.0, 3, 256),
        ("identity", 40.0, 9.1818, 50, 16),
        ("identity", 0.0, 0.0, 5, 32),
        ("flat", 1.0, 0.0, 10, 64),
        # t - 1 summands at a block edge: B - 1, B, B + 1 and 2 B + 1
        ("benchmark", 40.0, 9.1315, _BLOCK, 64),
        ("benchmark", 80.0, 40.0, _BLOCK + 1, 32),
        ("benchmark", 40.0, 0.0, _BLOCK + 2, 64),
        ("benchmark", 40.0, 40.0, 2 * _BLOCK + 2, 32),
        ("slow", 40.0, 9.0, _BLOCK + 2, 32),
        ("three", 40.0, 9.1818, _BLOCK + 1, 64),
        ("three", 80.0, 40.0, 2 * _BLOCK + 2, 32),
        ("one", 40.0, 9.0, _BLOCK + 1, 16),
        ("four", 80.0, 40.0, 2 * _BLOCK + 2, 32),
    ],
)
def test_reach_bound_matches_per_direction_reference(system, w_bar, alpha, t, n_dirs):
    sys_ = _SYSTEMS[system]()
    rb = reach_bound(sys_, w_bar, alpha, t, n_dirs)
    points, support, truncation = _reference_reach(sys_, w_bar, alpha, t, rb.directions)
    np.testing.assert_array_equal(rb.support_values, support)
    assert _truncation_bound(sys_, w_bar, alpha, t) == truncation
    if sys_.n != 2:
        assert rb.boundary is None and rb.area is None
        return
    # the exact points along the sampled directions and halfway between
    # them all lie in the circumscribed polygon; where the set is curved the
    # halfway points lie outside the polygon through the sampled points
    angles = 2.0 * math.pi * (np.arange(n_dirs) + 0.5) / n_dirs
    halfway = np.column_stack([np.cos(angles), np.sin(angles)])
    between = _reference_reach(sys_, w_bar, alpha, t, halfway)[0]
    _assert_inside_polygon(rb, np.vstack([points, between]))


def test_reach_bound_support_values_are_within_8_ulps_of_an_exact_oracle():
    # sigma_w of correlation 1 - 1e-10 makes the first summand flat along
    # directions 24 and 56 (3 pi / 4 and 7 pi / 4).  The oracle is
    # d'(s P M P')d in exact rationals from the float P = A^i, M, s and d,
    # with its roots and their sum to 50 digits.  The norm form is at most
    # 3.1 ulps off here; the quadratic form d'(s P M P')d in floats is 2657
    # ulps off along both flat directions, where its rounding is of the
    # order of the value.
    base = benchmark_system()
    c = 1.0 - 1e-10
    sys_ = LtiSystem.from_matrices(
        A=base.A,
        B=base.B,
        C=base.C,
        K=base.K,
        sigma_w=[[1.0, c], [c, 1.0]],
        sigma_v=base.sigma_v,
    )
    w_bar, t = 40.0, 20
    rb = reach_bound(sys_, w_bar, 0.0, t, 64)
    m = [[Fraction(x) for x in row] for row in sys_.sigma_w.tolist()]
    dirs = [[Fraction(x) for x in d] for d in rb.directions.tolist()]
    totals = [Decimal(0)] * len(dirs)
    a_pow = np.eye(2)
    with localcontext() as ctx:
        ctx.prec = 50
        for _ in range(t - 1):
            p = [[Fraction(x) for x in row] for row in a_pow.tolist()]
            for j, d in enumerate(dirs):
                v = [p[0][k] * d[0] + p[1][k] * d[1] for k in range(2)]
                q = Fraction(w_bar) * sum(
                    v[a] * m[a][b] * v[b] for a in range(2) for b in range(2)
                )
                totals[j] += (Decimal(q.numerator) / q.denominator).sqrt()
            a_pow = sys_.A @ a_pow
        for value, total in zip(rb.support_values.tolist(), totals):
            assert abs(Decimal(value) - total) <= 8 * Decimal(math.ulp(float(total)))


def test_reach_bound_flat_directions():
    rb = reach_bound(_flat_system(), w_bar=1.0, alpha=0.0, t=10, n_dirs=16)
    # the summands span x1 only: the support along x2 (direction 4 of 16)
    # vanishes, every vertex sits on both of its support lines, and so no
    # vertex leaves the x1 axis
    assert rb.support_values[4] <= 1e-15
    assert _max_vertex_miss(rb) <= 1e-12 * rb.support_values.max()
    assert np.abs(rb.boundary[:, 1]).max() <= 1e-12 * rb.support_values.max()


def test_reach_bound_rejects_invalid_input():
    sys_ = _identity_system()
    for w_bar, alpha, t, n_dirs in (
        (1.0, 1.0, 1, 16),
        (1.0, 1.0, 2, 8),
        (-1.0, 1.0, 2, 16),
        (1.0, -1.0, 2, 16),
        (math.inf, 1.0, 2, 16),
        (1.0, math.inf, 2, 16),
        (math.nan, 1.0, 2, 16),
        (1.0, math.nan, 2, 16),
    ):
        with pytest.raises(ValueError):
            reach_bound(sys_, w_bar, alpha, t, n_dirs)
    for t, n_dirs, name in ((50.0, 256, "horizon"), (50, 256.5, "n_dirs"), (50, 256.0, "n_dirs")):
        with pytest.raises(ValueError, match=name):
            reach_bound(sys_, 1.0, 1.0, t, n_dirs)
    rb = reach_bound(sys_, 1.0, 1.0, np.int64(3), np.int32(16))
    assert rb.horizon == 3 and rb.support_values.shape == (16,)


def test_reach_bound_tail_without_a_finite_bound_is_inf():
    # A has an eigenvalue 0.9999: after 10000 tail terms the partial sum
    # (5863.6) is still far below the tail itself (over 9275 at 200000
    # terms), so there is no finite truncation bound to report
    sys_ = _diagonal_plant(0.9999)
    rb = reach_bound(sys_, w_bar=40.0, alpha=9.0, t=50)
    assert _truncation_bound(sys_, 40.0, 9.0, 50) == math.inf
    assert np.all(np.isfinite(rb.support_values))


def test_reach_bound_tail_that_overflows_is_inf():
    # A = diag(1.2, 0.5) is unstable while A + B K and A - L C are stable:
    # the series to t = 50 is finite, and the tail's shape matrices
    # overflow near i = 1945, with no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sys_ = _diagonal_plant(1.2)
        rb = reach_bound(sys_, w_bar=40.0, alpha=9.0, t=50, n_dirs=16)
        truncation = _truncation_bound(sys_, 40.0, 9.0, 50)
    assert truncation == math.inf
    assert np.all(np.isfinite(rb.support_values))


@pytest.mark.parametrize("t", [3000, 5000])
def test_reach_bound_support_that_overflows_raises(t):
    # the support values along A^i = diag(1.2, 0.5)^i grow as 1.2^i, and
    # their squares leave the float range near i = 1945, inside the series
    # at both horizons; the error names the first step at which a summand's
    # support value is not finite
    sys_ = _diagonal_plant(1.2)
    directions = reach_bound(sys_, w_bar=40.0, alpha=9.0, t=2, n_dirs=16).directions
    with np.errstate(over="ignore", invalid="ignore"):
        summands = _summands(sys_, 40.0, 9.0, t, directions)
        step = next(i for i, _, _, norm in summands if not np.isfinite(norm).all())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ArithmeticError, match=f"at step {step}$"):
            reach_bound(sys_, w_bar=40.0, alpha=9.0, t=t, n_dirs=16)


@pytest.mark.parametrize(
    "system, expected",
    [
        ("one", [13.313964781466769] * 16),
        (
            "three",
            [
                35.3773090335277, 31.86521006092806, 14.510906992306765, 40.00698759176692,
                32.92193469118714, 20.928953260032024, 33.47252400418264, 27.172372253548737,
                40.45398516371572, 31.420950814023133, 36.85889826961656, 24.46256271125303,
                12.686119291296157, 16.859154826794455, 13.022543752066479, 22.805348648602,
            ],
        ),
        (
            "four",
            [
                3.812987346470364, 4.7732937946920035, 4.906674274889315, 4.795578712832494,
                4.253938059892945, 3.8798137172389415, 4.725942646425523, 3.321051457702912,
                3.785255732822586, 3.964450521554322, 3.776043343654985, 4.756996616785388,
                4.741491767317701, 3.9578117657189034, 5.409028518139241, 3.550054174985169,
            ],
        ),
    ],
)
def test_reach_bound_support_values_off_the_plane(system, expected):
    # the support values at t = 50 along 16 random directions, as reach_bound
    # gave them when it summed each G's squares with one reduction; the sum
    # is now taken row by row, which a one-state G (a single row) must pass
    rb = reach_bound(_SYSTEMS[system](), 40.0, 9.0, 50, 16)
    assert rb.boundary is None and rb.area is None
    np.testing.assert_allclose(rb.support_values, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("system", ["benchmark", "one", "three"])
def test_reach_series_is_kept_across_thresholds_and_horizons(system):
    # one system keeps its series: a longer horizon extends it, a shorter
    # one reads its head, and each call has the bits of the same call on a
    # system built afresh
    sys_ = _SYSTEMS[system]()
    for t in (150, 10, 50, 300, 50):
        for alpha in _ALPHAS:
            fresh = reach_bound(_SYSTEMS[system](), 40.0, alpha, t, 64)
            assert _bits(reach_bound(sys_, 40.0, alpha, t, 64)) == _bits(fresh), (t, alpha)
    # the stored rows reach the longest horizon asked for, and no further
    assert len(sys_._reach_series[1]) == 299


def test_reach_series_belongs_to_its_system():
    # calls alternate between two plants, and a copy of the first with
    # another A (dataclasses.replace keeps no series); each call has the
    # bits of a fresh system's
    makers = (
        benchmark_system,
        lambda: _diagonal_plant(0.95),
        lambda: replace(benchmark_system(), A=_diagonal_plant(0.95).A),
    )
    systems = [make() for make in makers]
    for t in (50, 10, 150):
        for make, sys_ in zip(makers, systems):
            assert _bits(reach_bound(sys_, 40.0, 9.0, t, 64)) == _bits(
                reach_bound(make(), 40.0, 9.0, t, 64)
            ), t


def test_reach_round_forms_the_powers_of_its_longest_horizon_once(monkeypatch):
    # the benchmark's round: 4 thresholds at horizons 10, 50 and 150 on one
    # system.  The first fill starts from the identity, and each longer
    # horizon fills on from the powers the series keeps, those of the row
    # after its last; so the round forms the 149 rows of t = 150 once, and
    # a second round forms none.  Every filled row and every returned pair
    # of powers has the bits of one product at a time
    sys_ = benchmark_system()
    a_cl = sys_.A + sys_.B @ sys_.K
    powers = [np.stack([np.eye(2), np.eye(2)])]
    for _ in range(149):
        powers.append(np.stack([sys_.A @ powers[-1][0], a_cl @ powers[-1][1]]))
    reference = np.stack([(p, q - p) for p, q in powers])
    fill, calls = attack_reach._fill, []

    def checked(rows, pair, pw):
        series = sys_._reach_series
        first = 0 if series is None else len(series[1])
        if series is not None and pw is series[2]:
            start = "stored"
        else:
            start = "identity" if pw.tobytes() == powers[0].tobytes() else "other"
        calls.append((first, len(rows), start))
        after = fill(rows, pair, pw)
        assert rows.tobytes() == reference[first : first + len(rows)].tobytes(), first
        assert after.tobytes() == powers[first + len(rows)].tobytes(), first
        return after

    monkeypatch.setattr(attack_reach, "_fill", checked)
    for _ in range(2):
        for t in (10, 50, 150):
            for alpha in _ALPHAS:
                reach_bound(sys_, 30.0, alpha, t)
    assert calls == [(0, 9, "identity"), (9, 40, "stored"), (49, 100, "stored")]
    assert sum(rows for _, rows, _ in calls) == len(sys_._reach_series[1]) == 149


def test_truncation_bound_keeps_nothing_on_the_system():
    # the tail streams its rows through a buffer of its own: a fresh system
    # keeps no series, and one that has a series keeps the same object
    fresh = benchmark_system()
    _truncation_bound(fresh, 40.0, 9.0, 50)
    assert fresh._reach_series is None
    sys_ = benchmark_system()
    reach_bound(sys_, 40.0, 9.0, 50)
    series = sys_._reach_series
    for t in (10, 50, 150):
        _truncation_bound(sys_, 40.0, 9.0, t)
        assert sys_._reach_series is series, t


def test_reach_series_of_a_diverged_system_raises_at_the_same_step_again():
    # A = diag(1.2, 0.5): the series to t = 5000 overflows near i = 1945.  The
    # call that builds it warns nothing; a repeat call, and one at a shorter
    # horizon that still reaches that step, raise at the step of a fresh
    # system, and one that stops before it has a fresh system's bits
    sys_ = _diagonal_plant(1.2)
    with pytest.raises(ArithmeticError, match="diverged at step") as info:
        reach_bound(_diagonal_plant(1.2), 40.0, 9.0, 5000, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (5000, 5000, 3000):
            with pytest.raises(ArithmeticError) as again:
                reach_bound(sys_, 40.0, 9.0, t, 16)
            assert str(again.value) == str(info.value), t
        got = reach_bound(sys_, 40.0, 9.0, 50, 16)
    assert _bits(got) == _bits(reach_bound(_diagonal_plant(1.2), 40.0, 9.0, 50, 16))


def test_support_additivity_of_minkowski_sum():
    # identity system, alpha = 0, t = 3: the summands are E(I) and
    # E(I / 4), so the sum is the disc of radius 1 + 1/2
    rb = reach_bound(_identity_system(), w_bar=1.0, alpha=0.0, t=3, n_dirs=64)
    np.testing.assert_allclose(rb.support_values, 1.5, rtol=1e-12)
    np.testing.assert_allclose(
        np.linalg.norm(rb.boundary, axis=1), 1.5 / math.cos(math.pi / 64), rtol=1e-12
    )


def test_zero_alarm_attack_construction():
    sys_ = benchmark_system()
    alpha = 9.0
    for rotate in (False, True):
        policy = AttackPolicy(alpha=alpha, direction=[1.0, 2.0], rotate=rotate)
        r = policy.residuals(sys_, 200)
        assert r.shape == (200, sys_.p)
        # each residual is sigma_r^{1/2} delta_bar with |delta_bar|^2 = alpha
        d_bar = np.linalg.solve(sys_.sigma_r_sqrt, r.T).T
        np.testing.assert_allclose(np.sum(d_bar**2, axis=1), alpha, rtol=1e-12)
        q = np.einsum("ij,jk,ik->i", r, sys_.sigma_r_inv, r)
        np.testing.assert_allclose(q, alpha, rtol=1e-10)
    # the residual-nulling attack pins the residual at zero
    zero = AttackPolicy(alpha=0.0, direction=[1.0, 0.0], rotate=True)
    assert not np.any(zero.residuals(sys_, 50))


def test_attack_policy_budget():
    sys_ = benchmark_system()
    alpha = 5.0
    fixed = AttackPolicy(alpha=alpha, direction=np.array([0.0, 1.0])).residuals(
        sys_, 101
    )
    np.testing.assert_array_equal(fixed, np.tile(fixed[0], (101, 1)))
    d = np.linalg.solve(sys_.sigma_r_sqrt, fixed[0])
    np.testing.assert_allclose(d, [0.0, math.sqrt(alpha)], atol=1e-12)
    rotating = AttackPolicy(
        alpha=alpha, direction=np.array([1.0, 0.0]), rotate=True
    ).residuals(sys_, 65)
    d = np.linalg.solve(sys_.sigma_r_sqrt, rotating.T).T
    np.testing.assert_allclose(np.sum(d**2, axis=1), alpha, rtol=1e-12)
    assert not np.allclose(d[0], d[1])
    # one turn per 64 steps, counterclockwise
    angle = 2.0 * math.pi / 64
    np.testing.assert_allclose(
        d[1], math.sqrt(alpha) * np.array([math.cos(angle), math.sin(angle)]),
        rtol=1e-12,
    )
    np.testing.assert_allclose(d[64], d[0], atol=1e-12)


def test_attack_policy_validation():
    for alpha, direction in (
        (-1.0, [1.0, 0.0]),
        (math.nan, [1.0, 0.0]),
        (math.inf, [1.0, 0.0]),
        (1.0, [0.0, 0.0]),
        (1.0, [math.nan, 1.0]),
        (1.0, [math.inf, 1.0]),
    ):
        with pytest.raises(ValueError):
            AttackPolicy(alpha=alpha, direction=np.array(direction))


def test_attack_direction_far_from_unit_length():
    # the squares of 1e200 overflow and those of 1e-200 underflow: the first
    # direction became [0, 0] with an overflow warning, the second was
    # rejected.  Each is rescaled by its largest entry before it is
    # normalized, and a direction of ordinary length keeps its bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diagonal = AttackPolicy(1.0, [1.0, 1.0]).direction
        for direction, unit in (
            ([1e200, 1e200], diagonal),
            ([1e-200, 1e-200], diagonal),
            ([-1e308, -1e308], -diagonal),
            ([5e-324, 0.0], [1.0, 0.0]),
            ([0.0, -1e-160], [0.0, -1.0]),
        ):
            np.testing.assert_array_equal(AttackPolicy(1.0, direction).direction, unit)
        assert AttackPolicy(1.0, [3.0, 4.0]).direction.tolist() == [0.6, 0.8]
        d = np.array([0.3, -1.7, 2.9])
        np.testing.assert_array_equal(AttackPolicy(1.0, d).direction, d / np.linalg.norm(d))
        for direction in ([math.inf, 0.0], [0.0, 0.0], [], [[1.0, 0.0]]):
            with pytest.raises(ValueError, match="finite nonzero vector"):
                AttackPolicy(1.0, direction)


@pytest.mark.parametrize("direction", [[1.0], [1.0, 0.0, 0.0]])
def test_attack_direction_of_the_wrong_length(direction):
    sys_ = benchmark_system()
    policy = AttackPolicy(alpha=1.0, direction=np.array(direction))
    message = f"has {len(direction)} entries, not p = 2"
    with pytest.raises(ValueError, match=message):
        policy.residuals(sys_, 10)
    w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 1)
    v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 2)
    with pytest.raises(ValueError, match=message):
        simulate(sys_, w, v, 10, attack=policy)


def test_simulated_attack_never_alarms():
    sys_ = benchmark_system()
    w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 61)
    v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 62)
    alpha = 9.1315
    policy = AttackPolicy(alpha=alpha, direction=np.array([1.0, 0.0]))
    trace = simulate(sys_, w, v, 10_000, attack=policy)
    assert np.all(trace.q_values <= alpha + 1e-9)
    # the construction saturates the detector exactly
    assert trace.q_values.max() == pytest.approx(alpha, rel=1e-9)


@pytest.mark.parametrize("family", list(NoiseFamily))
@pytest.mark.parametrize("rotate", [False, True])
def test_simulated_zero_alarm_states_lie_inside_the_reach_bound(family, rotate):
    sys_ = benchmark_system()
    steps = 400
    w = NoiseModel(family, sys_.sigma_w, 71)
    v = NoiseModel(family, sys_.sigma_v, 72)
    # the smallest w_bar whose disturbance ellipsoid holds every draw the
    # simulation makes (it samples the same stream)
    draws = w.sample(steps)
    w_bar = float(np.max(np.sum(draws * np.linalg.solve(sys_.sigma_w, draws.T).T, axis=1)))
    # at the k = 1 threshold along x2 the attack moves the state so far
    # that a bound without the attack summands misses states in every case
    alpha = 40.0
    policy = AttackPolicy(alpha=alpha, direction=np.array([0.0, 1.0]), rotate=rotate)
    trace = simulate(sys_, w, v, steps, attack=policy, burn_in=0, keep_states=True)
    assert np.all(trace.q_values <= alpha + 1e-9)
    for t in (10, 50):
        rb = reach_bound(sys_, w_bar, alpha, t)
        projections = trace.states @ rb.directions.T
        truncation = _truncation_bound(sys_, w_bar, alpha, t)
        assert np.all(projections <= rb.support_values + truncation)


def test_noise_threshold():
    assert noise_threshold(2, 0.05) == pytest.approx(40.0)
    assert noise_threshold(2, 0.5) == pytest.approx(4.0)
    assert noise_threshold(5, 0.1) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        noise_threshold(0, 0.1)
    with pytest.raises(ValueError):
        noise_threshold(2, 0.0)


def test_reach_bound_single_term_is_unit_circle():
    sys_ = _identity_system()
    for n in (16, 64, 256):
        rb = reach_bound(sys_, w_bar=1.0, alpha=0.0, t=2, n_dirs=n)
        # the regular n-gon circumscribed about the unit circle
        radii = np.linalg.norm(rb.boundary, axis=1)
        np.testing.assert_allclose(radii, 1.0 / math.cos(math.pi / n), rtol=1e-12)
        assert rb.area == pytest.approx(n * math.tan(math.pi / n), rel=1e-12)


def test_reach_bound_degenerate_origin():
    sys_ = _identity_system()
    rb = reach_bound(sys_, w_bar=0.0, alpha=0.0, t=5, n_dirs=32)
    np.testing.assert_allclose(rb.boundary, 0.0, atol=1e-15)
    assert rb.area == 0.0


def test_reach_bound_direction_refinement_converges():
    sys_ = benchmark_system()
    coarse = reach_bound(sys_, 40.0, 9.1315, 50, 256)
    fine = reach_bound(sys_, 40.0, 9.1315, 50, 512)
    assert abs(fine.area - coarse.area) / coarse.area <= 0.005


def test_reach_bound_horizon_truncation_decays():
    sys_ = benchmark_system()
    short = reach_bound(sys_, 40.0, 9.1315, 30, 128)
    long = reach_bound(sys_, 40.0, 9.1315, 80, 128)
    short_tail = _truncation_bound(sys_, 40.0, 9.1315, 30)
    long_tail = _truncation_bound(sys_, 40.0, 9.1315, 80)
    assert short_tail > long_tail
    assert long_tail <= 1e-8
    assert abs(long.area - short.area) / long.area <= 1e-3


@pytest.mark.parametrize("w_bar, alpha", [(40.0, 9.1315), (80.0, 40.0), (0.0, 5.9915), (1.0, 0.0)])
def test_truncation_error_keeps_the_per_matrix_bits(w_bar, alpha):
    # _truncation_bound takes both tail matrices of a term through one
    # stacked eigvalsh; the sum keeps the bits of one call per matrix
    sys_ = benchmark_system()
    for t in (2, 3, 10, 50, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 2, 150, 399):
        got = _truncation_bound(sys_, w_bar, alpha, t)
        assert got.hex() == _per_matrix_truncation(sys_, w_bar, alpha, t).hex(), t


def test_boundary_is_convex_polygon():
    sys_ = benchmark_system()
    rb = reach_bound(sys_, 40.0, 10.7178, 50, 128)
    pts = rb.boundary
    n = len(pts)
    cross = []
    for i in range(n):
        a = pts[(i + 1) % n] - pts[i]
        b = pts[(i + 2) % n] - pts[(i + 1) % n]
        cross.append(a[0] * b[1] - a[1] * b[0])
    cross = np.array(cross)
    assert np.all(cross >= -1e-9 * np.abs(cross).max())


def test_support_monotone_in_alpha_and_w_bar():
    sys_ = benchmark_system()
    lo = reach_bound(sys_, 40.0, 5.9915, 40, 64)
    hi = reach_bound(sys_, 40.0, 40.0, 40, 64)
    assert np.all(hi.support_values >= lo.support_values - 1e-12)
    wide = reach_bound(sys_, 80.0, 5.9915, 40, 64)
    assert np.all(wide.support_values >= lo.support_values - 1e-12)


def test_volume_comparison_ordering():
    sys_ = benchmark_system()
    bounds = [reach_bound(sys_, 40.0, a, 50, 128) for a in (40.0, 10.7178, 9.1315, 5.9915)]
    report = volume_comparison(bounds)
    assert report.area_ordered
    assert report.support_ordered
    assert report.alphas == tuple(sorted(report.alphas, reverse=True))
    assert all(a > b for a, b in zip(report.areas[:-1], report.areas[1:]))


def test_volume_comparison_identical_thresholds():
    sys_ = benchmark_system()
    a = reach_bound(sys_, 40.0, 9.0, 50, 64)
    b = reach_bound(sys_, 40.0, 9.0, 50, 64)
    report = volume_comparison([a, b])
    assert abs(report.areas[0] - report.areas[1]) <= 1e-12


def test_volume_comparison_flags_supports_out_of_order():
    # the bound at the larger threshold dips 1e-6 below the other's support
    # in one direction: the areas stay ordered, the supports do not
    sys_ = benchmark_system()
    small = reach_bound(sys_, 40.0, 9.0, 50, 64)
    dipped = small.support_values.copy()
    dipped[5] -= 1e-6
    big = replace(small, alpha=18.0, support_values=dipped)
    report = volume_comparison([small, big])
    assert report.alphas == (18.0, 9.0)
    assert report.area_ordered
    assert not report.support_ordered
    assert report.max_support_violation == pytest.approx(1e-6, rel=1e-6)


def test_volume_comparison_rejects_mismatch():
    sys_ = benchmark_system()
    a = reach_bound(sys_, 40.0, 9.0, 50, 64)
    b = reach_bound(sys_, 40.0, 9.0, 50, 128)
    with pytest.raises(ValueError):
        volume_comparison([a, b])
    c = reach_bound(sys_, 40.0, 9.0, 40, 64)
    with pytest.raises(ValueError):
        volume_comparison([a, c])
    with pytest.raises(ValueError):
        volume_comparison([])


def test_boundary_csv(tmp_path):
    sys_ = benchmark_system()
    rb = reach_bound(sys_, 40.0, 9.0, 30, 32)
    row = ThresholdResult(
        alpha=9.0,
        method=Method.SDP_BISECTION,
        k=4,
        target_rate=0.05,
        achieved_worst_case=0.05,
    )

    def write(out, rb):
        out.mkdir()
        return _write_reach(out, [row], [rb], volume_comparison([rb]))[0]

    path = write(tmp_path / "a", rb)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,x1,x2"
    assert len(lines) == 33
    assert write(tmp_path / "b", rb).read_bytes() == path.read_bytes()
    eye = np.eye(3).tolist()
    spatial = LtiSystem.from_matrices(
        A=(0.5 * np.eye(3)).tolist(), B=eye, C=eye,
        K=(-0.25 * np.eye(3)).tolist(), sigma_w=eye, sigma_v=eye,
    )
    spatial_rb = reach_bound(spatial, 40.0, 9.0, 30, 32)
    assert spatial_rb.boundary is None and spatial_rb.area is None
    with pytest.raises(ValueError, match="planar"):
        write(tmp_path / "c", spatial_rb)


@given(
    w_bar=st.floats(0.0, 80.0),
    alpha=st.floats(0.0, 40.0),
)
@settings(max_examples=30, deadline=None)
@example(w_bar=0.0, alpha=1.19e-7)
def test_support_function_symmetry_property(w_bar, alpha):
    rb = reach_bound(benchmark_system(), w_bar, alpha, 10, 64)
    assert np.all(rb.support_values >= 0.0)
    # direction j + 32 is opposite to direction j: the summands are
    # centred, so their support is symmetric
    np.testing.assert_allclose(
        rb.support_values[32:], rb.support_values[:32], rtol=1e-12, atol=1e-12
    )
    # each vertex sits on the support lines of its two directions
    assert _max_vertex_miss(rb) <= 1e-12 * rb.support_values.max()
