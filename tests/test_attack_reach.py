import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drdetect import (
    AttackPolicy,
    Ellipsoid,
    LtiSystem,
    NoiseFamily,
    NoiseModel,
    benchmark_system,
    noise_threshold,
    reach_bound,
    simulate,
    volume_comparison,
    zero_alarm_attack,
)


def _identity_system():
    return LtiSystem.from_matrices(
        A=[[0.5, 0.0], [0.0, 0.5]],
        B=[[1.0, 0.0], [0.0, 1.0]],
        C=[[1.0, 0.0], [0.0, 1.0]],
        K=[[-0.25, 0.0], [0.0, -0.25]],
        sigma_w=[[1.0, 0.0], [0.0, 1.0]],
        sigma_v=[[1.0, 0.0], [0.0, 1.0]],
    )


def test_ellipsoid_support_function():
    e = Ellipsoid(np.diag([4.0, 1.0]))
    assert e.support(np.array([1.0, 0.0])) == pytest.approx(2.0)
    assert e.support(np.array([0.0, 1.0])) == pytest.approx(1.0)
    ell = np.array([0.6, 0.8])
    assert e.support(ell) == e.support(-ell)
    point = e.support_point(ell)
    assert ell @ point == pytest.approx(e.support(ell), rel=1e-12)


def test_ellipsoid_flat_directions():
    e = Ellipsoid(np.diag([1.0, 0.0]))
    assert e.support(np.array([0.0, 1.0])) == 0.0
    np.testing.assert_allclose(e.support_point(np.array([0.0, 1.0])), 0.0)


def test_ellipsoid_validation():
    with pytest.raises(ValueError):
        Ellipsoid(np.array([[1.0, 0.5]]))
    with pytest.raises(ValueError):
        Ellipsoid(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


def test_support_additivity_of_minkowski_sum():
    # concentric balls of radius 1 and 2: the sum has radius 3
    a = Ellipsoid(np.eye(2))
    b = Ellipsoid(4.0 * np.eye(2))
    for theta in np.linspace(0.0, 2 * np.pi, 17):
        ell = np.array([np.cos(theta), np.sin(theta)])
        assert a.support(ell) + b.support(ell) == pytest.approx(3.0)


def test_zero_alarm_attack_construction():
    sys_ = benchmark_system()
    rng = np.random.default_rng(0)
    e = rng.standard_normal(2)
    v = rng.standard_normal(2)
    alpha = 9.0
    d_bar = np.sqrt(alpha) * np.array([1.0, 0.0])
    delta = zero_alarm_attack(sys_, alpha, e, v, d_bar)
    # the induced residual collapses to sigma_r^{1/2} d_bar
    r = sys_.C @ e + v + delta
    q = r @ sys_.sigma_r_inv @ r
    assert q == pytest.approx(alpha, rel=1e-10)
    # the residual-nulling attack gives q = 0
    delta0 = zero_alarm_attack(sys_, alpha, e, v, np.zeros(2))
    r0 = sys_.C @ e + v + delta0
    assert np.abs(r0).max() <= 1e-12
    with pytest.raises(ValueError):
        zero_alarm_attack(sys_, alpha, e, v, np.array([10.0, 0.0]))


def test_attack_policy_budget():
    alpha = 5.0
    policy = AttackPolicy(alpha=alpha, direction=np.array([0.0, 1.0]))
    for t in (0, 3, 100):
        d = policy.delta_bar(t)
        assert d @ d == pytest.approx(alpha, rel=1e-12)
    rotating = AttackPolicy(alpha=alpha, direction=np.array([1.0, 0.0]), rotate=True)
    d0, d1 = rotating.delta_bar(0), rotating.delta_bar(1)
    assert d0 @ d0 == pytest.approx(alpha, rel=1e-12)
    assert not np.allclose(d0, d1)


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
    scale=st.floats(0.1, 50.0),
    theta=st.floats(0.0, 2 * np.pi),
)
@settings(max_examples=60, deadline=None)
def test_support_function_symmetry_property(scale, theta):
    q = scale * np.array([[2.0, 0.3], [0.3, 1.0]])
    e = Ellipsoid(q)
    ell = np.array([np.cos(theta), np.sin(theta)])
    assert e.support(ell) >= 0.0
    assert e.support(-ell) == pytest.approx(e.support(ell), rel=1e-12)
