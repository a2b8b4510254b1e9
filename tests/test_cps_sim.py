import numpy as np
import pytest
import scipy.linalg

from drdetect import (
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
    # a do-nothing attack forces the explicit state loop; results must
    # agree with the modal fast path to solver precision
    class NullAttack:
        def delta(self, t, e, v, sys):
            return np.zeros(sys.p)

    sys_ = benchmark_system()
    w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 21)
    v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 22)
    fast = simulate(sys_, w, v, 2000)
    slow = simulate(sys_, w, v, 2000, attack=NullAttack())
    np.testing.assert_allclose(fast.residuals, slow.residuals, atol=1e-8)


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


def test_simulate_divergence_guard():
    # bypass construction checks to force an unstable step loop
    sys_ = _simple_system()
    object.__setattr__(sys_, "A", np.array([[3.0, 0.0], [0.0, 3.0]]))

    class NullAttack:
        def delta(self, t, e, v, sys):
            return np.zeros(sys.p)

    w = NoiseModel(NoiseFamily.GAUSSIAN, 0.1 * np.eye(2), 0)
    v = NoiseModel(NoiseFamily.GAUSSIAN, np.eye(2), 1)
    with pytest.raises(ArithmeticError):
        simulate(sys_, w, v, 200, attack=NullAttack(), burn_in=0)
