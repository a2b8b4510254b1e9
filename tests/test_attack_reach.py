import math

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
from drdetect.cli_runner import _write_reach


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


def _per_matrix_truncation(sys_, w_bar, alpha, t):
    """reach_bound's truncation tail (i >= t-1), with one eigvalsh call per
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


def _reference_reach(sys_, w_bar, alpha, t, directions):
    """reach_bound one direction and one summand at a time: the shape
    matrices, the tail and the per-direction sums in series order, with
    the sum of the summands' maximizers as an exact point of the set."""
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
    points = np.zeros((len(directions), sys_.n))
    support = np.zeros(len(directions))
    for j, d in enumerate(directions):
        point = np.zeros(sys_.n)
        total = 0.0
        for q in shapes:
            val = float(d @ q @ d)
            total += math.sqrt(max(0.0, val))
            if val >= 1e-14:
                point += (q @ d) / math.sqrt(val)
        points[j] = point
        support[j] = total
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
    ],
)
def test_reach_bound_matches_per_direction_reference(system, w_bar, alpha, t, n_dirs):
    sys_ = {
        "benchmark": benchmark_system,
        "identity": _identity_system,
        "flat": _flat_system,
    }[system]()
    rb = reach_bound(sys_, w_bar, alpha, t, n_dirs)
    points, support, truncation = _reference_reach(sys_, w_bar, alpha, t, rb.directions)
    np.testing.assert_array_equal(rb.support_values, support)
    assert rb.truncation_error == truncation
    # the exact points along the sampled directions and halfway between
    # them all lie in the circumscribed polygon; where the set is curved the
    # halfway points lie outside the polygon through the sampled points
    angles = 2.0 * math.pi * (np.arange(n_dirs) + 0.5) / n_dirs
    halfway = np.column_stack([np.cos(angles), np.sin(angles)])
    between = _reference_reach(sys_, w_bar, alpha, t, halfway)[0]
    _assert_inside_polygon(rb, np.vstack([points, between]))


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
    assert short.truncation_error > long.truncation_error
    assert long.truncation_error <= 1e-8
    assert abs(long.area - short.area) / long.area <= 1e-3


@pytest.mark.parametrize("w_bar, alpha", [(40.0, 9.1315), (80.0, 40.0), (0.0, 5.9915), (1.0, 0.0)])
def test_truncation_error_keeps_the_per_matrix_bits(w_bar, alpha):
    # reach_bound takes both tail matrices of a term through one stacked
    # eigvalsh; the sum keeps the bits of one call per matrix
    sys_ = benchmark_system()
    for t in (2, 3, 10, 50, 150, 399):
        got = reach_bound(sys_, w_bar, alpha, t, 16).truncation_error
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
