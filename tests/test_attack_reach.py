import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drdetect import (
    AttackPolicy,
    LtiSystem,
    NoiseFamily,
    NoiseModel,
    benchmark_system,
    noise_threshold,
    reach_bound,
    simulate,
    volume_comparison,
)


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


def _reference_reach(sys_, w_bar, alpha, t, directions):
    """reach_bound one direction and one summand at a time: the shape
    matrices, the tail and the per-direction sums in series order."""
    a_cl = sys_.A + sys_.B @ sys_.K
    lsl = sys_.L @ sys_.sigma_r @ sys_.L.T
    shapes = []
    a_pow = np.eye(sys_.n)
    acl_pow = np.eye(sys_.n)
    for _ in range(t - 1):
        h = acl_pow - a_pow
        for q in (w_bar * a_pow @ sys_.sigma_w @ a_pow.T, alpha * h @ lsl @ h.T):
            shapes.append(0.5 * (q + q.T))
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
            break
        a_pow = sys_.A @ a_pow
        acl_pow = a_cl @ acl_pow
    else:
        truncation = math.inf
    boundary = np.zeros((len(directions), sys_.n))
    support = np.zeros(len(directions))
    for j, d in enumerate(directions):
        point = np.zeros(sys_.n)
        total = 0.0
        for q in shapes:
            val = float(d @ q @ d)
            total += math.sqrt(max(0.0, val))
            if val >= 1e-14:
                point += (q @ d) / math.sqrt(val)
        boundary[j] = point
        support[j] = total
    return boundary, support, truncation


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
    ],
)
def test_reach_bound_matches_per_direction_reference(system, w_bar, alpha, t, n_dirs):
    sys_ = {
        "benchmark": benchmark_system,
        "identity": _identity_system,
        "flat": _flat_system,
    }[system]()
    rb = reach_bound(sys_, w_bar, alpha, t, n_dirs)
    boundary, support, truncation = _reference_reach(sys_, w_bar, alpha, t, rb.directions)
    np.testing.assert_array_equal(rb.boundary, boundary)
    np.testing.assert_array_equal(rb.support_values, support)
    assert rb.truncation_error == truncation


def test_reach_bound_flat_directions():
    rb = reach_bound(_flat_system(), w_bar=1.0, alpha=0.0, t=10, n_dirs=16)
    # the summands span x1 only: no boundary point leaves the x1 axis, and
    # the support along x2 (direction 4 of 16) vanishes
    np.testing.assert_array_equal(rb.boundary[:, 1], 0.0)
    assert rb.support_values[4] <= 1e-15
    np.testing.assert_allclose(
        np.sum(rb.boundary * rb.directions, axis=1), rb.support_values, atol=1e-15
    )


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


def test_reach_bound_tail_without_a_finite_bound_is_inf():
    # A has an eigenvalue 0.9999: after 10000 tail terms the partial sum
    # (5863.6) is still far below the tail itself (over 9275 at 200000
    # terms), so there is no finite truncation bound to report
    sys_ = LtiSystem.from_matrices(
        A=[[0.9999, 0.0], [0.0, 0.5]],
        B=[[1.0, 0.0], [0.0, 1.0]],
        C=[[1.0, 0.0], [0.0, 1.0]],
        K=[[-0.5, 0.0], [0.0, 0.0]],
        sigma_w=[[0.01, 0.0], [0.0, 0.01]],
        sigma_v=[[1.0, 0.0], [0.0, 1.0]],
    )
    rb = reach_bound(sys_, w_bar=40.0, alpha=9.0, t=50)
    assert rb.truncation_error == math.inf
    assert np.all(np.isfinite(rb.support_values))


def test_support_additivity_of_minkowski_sum():
    # identity system, alpha = 0, t = 3: the summands are E(I) and
    # E(I / 4), so the sum is the disc of radius 1 + 1/2
    rb = reach_bound(_identity_system(), w_bar=1.0, alpha=0.0, t=3, n_dirs=64)
    np.testing.assert_allclose(rb.support_values, 1.5, rtol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(rb.boundary, axis=1), 1.5, rtol=1e-12)


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
    with pytest.raises(ValueError):
        AttackPolicy(alpha=-1.0, direction=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        AttackPolicy(alpha=1.0, direction=np.zeros(2))


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
        assert np.all(projections <= rb.support_values + rb.truncation_error)


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
    rb = reach_bound(sys_, w_bar=1.0, alpha=0.0, t=2, n_dirs=256)
    radii = np.linalg.norm(rb.boundary, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-12)
    # inscribed 256-gon, area short of pi by ~2 pi^2 / (3 n^2)
    assert rb.area == pytest.approx(np.pi, rel=2e-4)


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
    assert short.truncation_error > long.truncation_error
    assert long.truncation_error <= 1e-8
    assert abs(long.area - short.area) / long.area <= 1e-3


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
    path = tmp_path / "reach.csv"
    rb.write_boundary_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,x1,x2"
    assert len(lines) == 33
    rb.write_boundary_csv(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


@given(
    w_bar=st.floats(0.0, 80.0),
    alpha=st.floats(0.0, 40.0),
)
@settings(max_examples=30, deadline=None)
def test_support_function_symmetry_property(w_bar, alpha):
    rb = reach_bound(benchmark_system(), w_bar, alpha, 10, 64)
    assert np.all(rb.support_values >= 0.0)
    # direction j + 32 is opposite to direction j: the summands are
    # centred, so their support is symmetric
    np.testing.assert_allclose(
        rb.support_values[32:], rb.support_values[:32], rtol=1e-12, atol=1e-12
    )
    # each boundary point attains its direction's support value, except
    # that a summand with l'Ql < 1e-14 adds its support (below 1e-7) and
    # no point: 18 summands at t = 10
    np.testing.assert_allclose(
        np.sum(rb.boundary * rb.directions, axis=1),
        rb.support_values,
        rtol=1e-12,
        atol=18e-7,
    )
