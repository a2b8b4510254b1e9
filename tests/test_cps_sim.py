import numpy as np
import pytest
import scipy.linalg

from drdetect import (
    AttackPolicy,
    LtiSystem,
    NoiseFamily,
    NoiseModel,
    benchmark_system,
    empirical_false_alarm_rate,
    simulate,
    solve_dare,
)


def _simple_system(**overrides):
    kw = dict(
        A=[[0.5, 0.1], [0.0, 0.4]],
        B=[[1.0, 0.0], [0.0, 1.0]],
        C=[[1.0, 0.0], [0.0, 1.0]],
        K=[[-0.2, 0.0], [0.0, -0.2]],
        sigma_w=[[0.1, 0.0], [0.0, 0.1]],
        sigma_v=[[1.0, 0.0], [0.0, 1.0]],
    )
    kw.update(overrides)
    return LtiSystem.from_matrices(**kw)


def _three_state_system():
    # 3 states, 2 outputs, 2 inputs; A is stable, so a sustained
    # zero-alarm attack keeps the state bounded
    return LtiSystem.from_matrices(
        A=[[0.8, 0.2, 0.0], [0.0, 0.7, 0.3], [0.1, 0.0, 0.6]],
        B=[[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
        C=[[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
        K=[[-0.3, 0.0, 0.0], [0.0, -0.1, -0.4]],
        sigma_w=0.05 * np.eye(3),
        sigma_v=[[1.0, 0.2], [0.2, 0.5]],
    )


def _reference_loop(sys_, noise_w, noise_v, T, policy=None, burn_in=1000, dtype=float):
    """The per-step joint (x, xhat) recursion in `dtype`, with the zero-alarm
    sensor offset -C e - v + sigma_r^{1/2} delta_bar injected into the
    measurement.  Returns (states, residuals, q) for the last T steps."""
    total = burn_in + T
    w = noise_w.sample(total).astype(dtype)
    v = noise_v.sample(total).astype(dtype)
    x = np.zeros(sys_.n, dtype)
    xhat = np.zeros(sys_.n, dtype)
    residuals = np.empty((total, sys_.p), dtype)
    states = np.empty((total, sys_.n), dtype)
    for t in range(total):
        e = x - xhat
        delta = 0.0
        if policy is not None:
            d = policy.direction.copy()
            if policy.rotate:
                angle = 2.0 * np.pi * t / 64
                c, s = np.cos(angle), np.sin(angle)
                d[0], d[1] = c * d[0] - s * d[1], s * d[0] + c * d[1]
            d_bar = np.sqrt(policy.alpha) * d
            delta = -sys_.C @ e - v[t] + sys_.sigma_r_sqrt @ d_bar
        r = sys_.C @ e + v[t] + delta
        residuals[t] = r
        states[t] = x
        u = sys_.K @ xhat
        x = sys_.A @ x + sys_.B @ u + w[t]
        xhat = sys_.A @ xhat + sys_.B @ u + sys_.L @ r
    q = np.einsum("ij,jk,ik->i", residuals, sys_.sigma_r_inv, residuals)
    return states[burn_in:], residuals[burn_in:], q[burn_in:]


def _assert_close_to(got, want):
    """Entries agree to 1e-14 relative to the largest entry of `want`."""
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_dare_riccati_fixed_point():
    sys_ = benchmark_system()
    A, C = sys_.A, sys_.C
    P = sys_.P
    S = C @ P @ C.T + sys_.sigma_v
    update = A @ (P - P @ C.T @ np.linalg.solve(S, C @ P)) @ A.T + sys_.sigma_w
    assert np.linalg.norm(update - P) <= 1e-9 * np.linalg.norm(P)


def test_dare_matches_scipy_reference():
    sys_ = benchmark_system()
    ref = scipy.linalg.solve_discrete_are(
        sys_.A.T, sys_.C.T, np.array(sys_.sigma_w), np.array(sys_.sigma_v)
    )
    np.testing.assert_allclose(sys_.P, ref, rtol=1e-9)


def test_dare_static_plant():
    # A = 0 collapses the recursion in one step: P = sigma_w and the
    # update gain A P C' S^-1 vanishes with the dynamics
    P, L = solve_dare(np.zeros((2, 2)), np.eye(2), 0.3 * np.eye(2), np.eye(2))
    np.testing.assert_allclose(P, 0.3 * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(L, 0.0, atol=1e-12)


def test_dare_noiseless_limit():
    A = np.array([[0.5, 0.0], [0.1, 0.3]])
    P, L = solve_dare(A, np.eye(2), 1e-14 * np.eye(2), np.eye(2))
    assert np.abs(P).max() <= 1e-12
    assert np.abs(L).max() <= 1e-12


def test_benchmark_gain_reproduction():
    sys_ = benchmark_system()
    expected = np.array([[0.0276, 0.0448], [-0.01998, -0.0290]])
    assert np.abs(sys_.L - expected).max() <= 2e-3


def test_closed_loop_spectral_radii():
    sys_ = benchmark_system()
    assert max(abs(np.linalg.eigvals(sys_.A + sys_.B @ sys_.K))) < 1.0
    assert max(abs(np.linalg.eigvals(sys_.A - sys_.L @ sys_.C))) < 1.0


def test_unstable_feedback_rejected():
    with pytest.raises(ValueError, match="spectral radius"):
        _simple_system(A=[[2.0, 0.0], [0.0, 0.4]], K=[[0.0, 0.0], [0.0, 0.0]])


def test_undetectable_pair_rejected():
    # unstable mode invisible to the sensor
    with pytest.raises(ValueError, match="detectable"):
        LtiSystem.from_matrices(
            A=[[2.0, 0.0], [0.0, 0.5]],
            B=[[1.0], [1.0]],
            C=[[0.0, 1.0]],
            K=[[-1.9, 0.0]],
            sigma_w=[[0.1, 0.0], [0.0, 0.1]],
            sigma_v=[[1.0]],
        )


def test_dimension_validation():
    with pytest.raises(ValueError):
        _simple_system(C=[[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        _simple_system(sigma_v=[[1.0, 0.0], [0.0, -1.0]])


def test_noise_model_covariance():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = NoiseModel(NoiseFamily.GAUSSIAN, cov, 42)
    draws = model.sample(200_000)
    emp = draws.T @ draws / draws.shape[0]
    assert np.abs(emp - cov).max() <= 0.03
    assert np.abs(draws.mean(axis=0)).max() <= 0.02


def test_noise_model_determinism():
    cov = np.eye(2)
    a = NoiseModel(NoiseFamily.GAUSSIAN, cov, 7).sample(100)
    b = NoiseModel(NoiseFamily.GAUSSIAN, cov, 7).sample(100)
    np.testing.assert_array_equal(a, b)
    c = NoiseModel(NoiseFamily.GAUSSIAN, cov, 8).sample(100)
    assert not np.array_equal(a, c)


def test_noise_model_rejects_a_bad_seed():
    # numpy's Philox would fail only at the first draw
    for seed in (-1, 1.5, "3", None):
        with pytest.raises(ValueError, match="seed"):
            NoiseModel(NoiseFamily.GAUSSIAN, np.eye(2), seed)
    assert NoiseModel(NoiseFamily.GAUSSIAN, np.eye(2), np.int64(3)).seed == 3


def test_laplacian_matches_covariance_with_heavy_tails():
    cov = np.array([[1.0, 0.3], [0.3, 2.0]])
    model = NoiseModel(NoiseFamily.MULTIVARIATE_LAPLACIAN, cov, 5)
    draws = model.sample(400_000)
    emp = draws.T @ draws / draws.shape[0]
    assert np.abs(emp - cov).max() <= 0.05
    z = draws / np.sqrt(np.diag(cov))
    kurt = (z**4).mean(axis=0)
    # the scale mixture has coordinate kurtosis 6 (Gaussian: 3)
    assert np.all(kurt > 4.5)
    assert np.abs(kurt - 6.0).max() <= 1.0


def test_simulate_zero_noise_is_silent():
    sys_ = _simple_system()
    w = NoiseModel(NoiseFamily.GAUSSIAN, np.zeros((2, 2)), 0)
    v = NoiseModel(NoiseFamily.GAUSSIAN, np.zeros((2, 2)), 1)
    trace = simulate(sys_, w, v, 100, burn_in=10)
    np.testing.assert_allclose(trace.residuals, 0.0, atol=1e-12)
    np.testing.assert_allclose(trace.q_values, 0.0, atol=1e-12)


def test_simulate_statistics_match_steady_state():
    sys_ = benchmark_system()
    w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 100)
    v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 101)
    trace = simulate(sys_, w, v, 1_000_000)
    assert trace.q_values.mean() == pytest.approx(2.0, abs=0.01)
    emp = trace.residuals.T @ trace.residuals / trace.length
    rel = np.linalg.norm(emp - sys_.sigma_r) / np.linalg.norm(sys_.sigma_r)
    assert rel <= 0.02


def test_residual_whiteness():
    sys_ = benchmark_system()
    w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 55)
    v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 56)
    trace = simulate(sys_, w, v, 100_000)
    r = trace.residuals - trace.residuals.mean(axis=0)
    T = trace.length
    for lag in (1, 2, 5):
        num = np.sum(r[lag:] * r[:-lag], axis=0) / (T - lag)
        den = np.sum(r * r, axis=0) / T
        assert np.abs(num / den).max() <= 3.0 / np.sqrt(T)


def test_q_recomputable_from_residuals():
    sys_ = benchmark_system()
    w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 9)
    v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 10)
    trace = simulate(sys_, w, v, 1000)
    q = np.einsum("ij,jk,ik->i", trace.residuals, sys_.sigma_r_inv, trace.residuals)
    np.testing.assert_allclose(q, trace.q_values, atol=1e-12)


def test_fast_path_equals_step_path():
    # keeping the states only adds the plant path: the residuals come from
    # the same error path, bit for bit
    sys_ = benchmark_system()
    w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 21)
    v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 22)
    fast = simulate(sys_, w, v, 2000)
    slow = simulate(sys_, w, v, 2000, keep_states=True)
    assert fast.states is None and slow.states is not None
    np.testing.assert_array_equal(fast.residuals, slow.residuals)
    np.testing.assert_array_equal(fast.q_values, slow.q_values)


_POLICIES = {
    "attack-free": None,
    "fixed": dict(alpha=9.1315, direction=[1.0, 0.0]),
    "rotating": dict(alpha=40.0, direction=[0.3, -1.0], rotate=True),
}


@pytest.mark.parametrize("family", list(NoiseFamily))
@pytest.mark.parametrize("policy", list(_POLICIES))
@pytest.mark.parametrize("system", ["benchmark", "three-state"])
def test_simulate_matches_reference_loop(system, policy, family):
    # 3000 steps cross two chunk boundaries of the banded solve
    sys_ = benchmark_system() if system == "benchmark" else _three_state_system()
    w = NoiseModel(family, sys_.sigma_w, 81)
    v = NoiseModel(family, sys_.sigma_v, 82)
    kwargs = _POLICIES[policy]
    attack = None if kwargs is None else AttackPolicy(**kwargs)
    trace = simulate(sys_, w, v, 2500, attack=attack, burn_in=500, keep_states=True)
    states, residuals, q = _reference_loop(sys_, w, v, 2500, attack, burn_in=500)
    _assert_close_to(trace.states, states)
    _assert_close_to(trace.residuals, residuals)
    _assert_close_to(trace.q_values, q)


def test_simulate_single_step():
    sys_ = benchmark_system()
    w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 5)
    v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 6)
    trace = simulate(sys_, w, v, 1, burn_in=0)
    np.testing.assert_array_equal(trace.residuals, v.sample(1))


@pytest.mark.parametrize(
    "F",
    [
        # a Jordan block: A - L C has no eigenbasis
        [[0.5, 1.0], [0.0, 0.5]],
        # eigenvalues 0.6 and 0.6 + 1e-7, with eigenvectors (1, 0) and
        # (1, 1e-7): the eigenbasis has condition number 2e7
        [[0.6, 1.0], [0.0, 0.6 + 1e-7]],
    ],
    ids=["jordan", "near-defective"],
)
def test_simulate_holds_nearly_defective_error_paths(F):
    # the banded route is backward stable whatever the eigenbasis of
    # A - L C, so the residuals stay within 1e-15 of a step loop in
    # extended precision
    sys_ = _simple_system()
    object.__setattr__(sys_, "L", (sys_.A - np.array(F)) @ np.linalg.inv(sys_.C))
    w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 91)
    v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 92)
    trace = simulate(sys_, w, v, 20_000, burn_in=100)
    assert trace.states is None
    _, want, _ = _reference_loop(sys_, w, v, 20_000, burn_in=100, dtype=np.longdouble)
    err = np.abs(trace.residuals - want).max() / np.abs(want).max()
    assert err <= 1e-15, f"relative error {float(err):.3g}"


def test_empirical_false_alarm_rate_counts_strictly():
    sys_ = benchmark_system()
    w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 31)
    v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 32)
    trace = simulate(sys_, w, v, 10_000)
    assert empirical_false_alarm_rate(trace, 0.0) == 1.0
    q_sorted = np.sort(trace.q_values)
    mid = q_sorted[5000]
    manual = float(np.mean(trace.q_values > mid))
    assert empirical_false_alarm_rate(trace, mid) == manual
    for alpha in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            empirical_false_alarm_rate(trace, alpha)


def test_simulate_divergence_guard():
    # bypass construction checks to force an unstable plant
    sys_ = _simple_system()
    object.__setattr__(sys_, "A", np.array([[3.0, 0.0], [0.0, 3.0]]))
    w = NoiseModel(NoiseFamily.GAUSSIAN, 0.1 * np.eye(2), 0)
    v = NoiseModel(NoiseFamily.GAUSSIAN, np.eye(2), 1)
    attack = AttackPolicy(alpha=1.0, direction=[1.0, 0.0])
    for kwargs in (dict(keep_states=True), dict(attack=attack)):
        with pytest.raises(ArithmeticError, match=r"diverged at step \d+$"):
            simulate(sys_, w, v, 200, burn_in=0, **kwargs)
    # a non-finite state counts as diverged, from the first step it appears
    object.__setattr__(sys_, "A", np.full((2, 2), np.nan))
    with pytest.raises(ArithmeticError, match="diverged at step 1$"):
        simulate(sys_, w, v, 200, burn_in=0, attack=attack)
