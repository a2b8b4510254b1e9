import re
import sys
import threading
import types

import numpy as np
import pytest
import scipy.linalg

from drdetect import (
    AttackPolicy,
    LtiSystem,
    NoiseFamily,
    NoiseModel,
    ResidualTrace,
    benchmark_system,
    empirical_false_alarm_rate,
    estimate_moments,
    simulate,
    solve_dare,
)
from drdetect import cps_sim
from drdetect.cps_sim import _alarm_count, _attack_free_stream
from drdetect.moment_core import _PowerSums


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


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: NoiseModel(NoiseFamily.GAUSSIAN, np.ones((2, 3)), 0),
            "covariance must be square",
        ),
        (
            lambda: NoiseModel("gaussian", np.eye(2), 0),
            "unknown noise family 'gaussian'",
        ),
        (
            lambda: NoiseModel(NoiseFamily.GAUSSIAN, np.eye(2), 0).sample(0),
            "sample size must be positive",
        ),
        (
            lambda: ResidualTrace(np.zeros(3), np.zeros(3)),
            "residuals must be (T, p) and q_values (T,)",
        ),
        (
            lambda: ResidualTrace(np.zeros((3, 2)), np.zeros(2)),
            "residuals and q_values disagree on length",
        ),
        (
            lambda: ResidualTrace(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 2))),
            "states and q_values disagree on length",
        ),
    ],
    ids=[
        "non-square-covariance",
        "family-name",
        "no-samples",
        "1d-residuals",
        "q-length",
        "state-length",
    ],
)
def test_noise_and_trace_inputs_are_checked(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


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
    for seed in (-1, 1.5, "3", None, True, np.True_):
        with pytest.raises(ValueError, match="seed"):
            NoiseModel(NoiseFamily.GAUSSIAN, np.eye(2), seed)
    assert NoiseModel(NoiseFamily.GAUSSIAN, np.eye(2), np.int64(3)).seed == 3


@pytest.mark.parametrize("family", list(NoiseFamily))
def test_sample_draws_like_one_whole_array(family):
    # the normals of all rows from Philox(seed), times the factor, and the
    # exponentials of all rows from the stream of the seed's child: one
    # row, two rows, a rest of one or two rows, and three pieces
    cov = benchmark_system().sigma_w
    factor = np.linalg.cholesky(cov)
    child = np.random.SeedSequence(17).spawn(1)[0]
    for n in (1, 2, 65_537, 65_538, 140_000):
        want = np.random.Generator(np.random.Philox(17)).standard_normal((n, 2))
        want = want @ factor.T
        if family is NoiseFamily.MULTIVARIATE_LAPLACIAN:
            scales = np.random.Generator(np.random.Philox(child))
            want *= np.sqrt(scales.exponential(1.0, n))[:, None]
        got = NoiseModel(family, cov, 17).sample(n)
        assert got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("family", list(NoiseFamily))
def test_sample_is_a_prefix_of_a_longer_sample(family):
    # row t depends on t alone, not on the run length: below a chunk, at
    # a piece boundary, a rest of one row, and across pieces
    cov = benchmark_system().sigma_w
    whole = NoiseModel(family, cov, 17).sample(200_000)
    for n in (1, 2, 1000, 65_536, 65_537, 140_000):
        got = NoiseModel(family, cov, 17).sample(n)
        assert got.tobytes() == whole[:n].tobytes(), n


def test_sample_rejects_a_non_integer_size():
    # a float count is refused as reach_bound refuses one; a numpy integer
    # draws the rows of the same int
    model = NoiseModel(NoiseFamily.GAUSSIAN, benchmark_system().sigma_w, 17)
    with pytest.raises(ValueError, match="sample size must be an integer"):
        model.sample(10.5)
    assert model.sample(np.int64(3)).tobytes() == model.sample(3).tobytes()


def test_laplacian_is_the_gaussian_draw_row_scaled():
    cov = np.array([[1.0, 0.3], [0.3, 2.0]])
    n = 140_000
    g = NoiseModel(NoiseFamily.GAUSSIAN, cov, 5).sample(n)
    lap = NoiseModel(NoiseFamily.MULTIVARIATE_LAPLACIAN, cov, 5).sample(n)
    child = np.random.SeedSequence(5).spawn(1)[0]
    scale = np.random.Generator(np.random.Philox(child)).exponential(1.0, n)
    assert lap.tobytes() == (g * np.sqrt(scale)[:, None]).tobytes()


@pytest.mark.parametrize("family", list(NoiseFamily))
def test_simulate_is_a_prefix_of_a_longer_run(family):
    # from step 0, every length, q included
    sys_ = benchmark_system()
    w = NoiseModel(family, sys_.sigma_w, 61)
    v = NoiseModel(family, sys_.sigma_v, 62)
    whole = simulate(sys_, w, v, 140_000, burn_in=0, keep_states=True)
    for n in (1, 2, 3, 1000, 65_537):
        trace = simulate(sys_, w, v, n, burn_in=0, keep_states=True)
        for name in ("residuals", "q_values", "states"):
            got, want = getattr(trace, name), getattr(whole, name)[:n]
            assert got.tobytes() == want.tobytes(), (n, name)


@pytest.mark.parametrize("family", list(NoiseFamily))
def test_one_step_is_the_head_of_a_longer_run(family):
    # numpy multiplies one row on another path than many; with C-ordered
    # right operands both give the same bits on the benchmark's 2 x 2
    # matrices, and q adds the same columns in the same order
    sys_ = benchmark_system()
    for seed in range(8):
        w = NoiseModel(family, sys_.sigma_w, seed)
        v = NoiseModel(family, sys_.sigma_v, seed + 1)
        assert w.sample(1).tobytes() == w.sample(2000)[:1].tobytes(), seed
        policy = AttackPolicy(9.0 + seed, [1.0, 0.3], rotate=seed % 2 == 1)
        one, whole = (
            simulate(sys_, w, v, n, attack=policy, burn_in=0, keep_states=True)
            for n in (1, 2000)
        )
        for name in ("residuals", "q_values", "states"):
            got, want = getattr(one, name), getattr(whole, name)[:1]
            assert got.tobytes() == want.tobytes(), (seed, name)


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


_ALPHAS = (0.5, 5.991464547107979, 9.1818473667080447, 40.0)


@pytest.mark.parametrize("total", [2 * 65_536 + 1, 2 * 65_536 + 2], ids=["rest-1", "rest-2"])
@pytest.mark.parametrize("family", list(NoiseFamily))
def test_attack_free_stream_keeps_the_whole_run_bits(monkeypatch, family, total):
    # pieces of 1024, 7 * 1024 and 65 536 steps, whose grids leave a rest
    # of 1 or 2 steps at 1024 and 65 536, against one piece of at least the
    # total, the whole-run computation: the same moments, alarm counts,
    # residuals, q and states, bit for bit.  A rest that short joins the
    # piece before, since numpy computes a product of one or two rows on
    # other paths, whose bits differ only on some rows
    sys_ = benchmark_system()
    w = NoiseModel(family, sys_.sigma_w, 61)
    v = NoiseModel(family, sys_.sigma_v, 62)
    T = total - 1000
    runs = []
    for size in (1 << 20, 1024, 7 * 1024, 65_536):
        monkeypatch.setattr(cps_sim, "_STREAM", size)
        rows = cps_sim._stream_rows(total)
        assert min(stop - start for start, stop in rows) >= cps_sim._CHUNK
        trace = simulate(sys_, w, v, T, keep_states=True)
        sums = _PowerSums(4)
        alarms = np.zeros(len(_ALPHAS), dtype=int)
        for piece in _attack_free_stream(sys_, w, v, T, 1000):
            sums.add(piece.q_values)
            alarms += [_alarm_count(piece, alpha) for alpha in _ALPHAS]
        runs.append((trace, sums.moments().moments, alarms.tolist()))
    whole, moments, alarms = runs[0]
    assert moments == estimate_moments(whole.q_values, 4).moments
    assert alarms == [np.count_nonzero(whole.q_values > alpha) for alpha in _ALPHAS]
    for trace, got_moments, got_alarms in runs[1:]:
        for name in ("residuals", "q_values", "states"):
            got, want = getattr(trace, name), getattr(whole, name)
            assert got.tobytes() == want.tobytes(), name
        assert got_moments == moments
        assert got_alarms == alarms


@pytest.mark.parametrize(
    "burn_in, T", [(cps_sim._STREAM + 5000, 3000), (2 * cps_sim._STREAM, 10)], ids=["mid", "rest"]
)
@pytest.mark.parametrize("family", list(NoiseFamily))
def test_burn_in_past_a_stream_piece_records_none_of_it(family, burn_in, T):
    # the burn-in holds the whole first range, so the stream yields one
    # piece, the T recorded rows of the last range; at 2 _STREAM + 10 steps
    # the rest of 10 joins the range before it.  The run keeps the residual,
    # q and state bits of rows burn_in: of the same run with no burn-in
    sys_ = benchmark_system()
    w = NoiseModel(family, sys_.sigma_w, 61)
    v = NoiseModel(family, sys_.sigma_v, 62)
    stream = _attack_free_stream(sys_, w, v, T, burn_in, keep_states=True)
    assert [len(piece.q_values) for piece in stream] == [T]
    got = simulate(sys_, w, v, T, burn_in=burn_in, keep_states=True)
    whole = simulate(sys_, w, v, burn_in + T, burn_in=0, keep_states=True)
    for name in ("residuals", "q_values", "states"):
        assert getattr(got, name).tobytes() == getattr(whole, name)[burn_in:].tobytes(), name


def _stream_record(sys_, w, v, T):
    """Everything a caller takes from the attack-free stream, as bytes:
    the joined residuals, q and states, the power sums and alarm counts
    over the pieces, and how many pieces there were."""
    trace = simulate(sys_, w, v, T, keep_states=True)
    sums = _PowerSums(4)
    alarms = []
    pieces = 0
    for piece in _attack_free_stream(sys_, w, v, T, 1000):
        sums.add(piece.q_values)
        alarms.append([_alarm_count(piece, alpha) for alpha in _ALPHAS])
        pieces += 1
    return {
        "residuals": trace.residuals.tobytes(),
        "q_values": trace.q_values.tobytes(),
        "states": trace.states.tobytes(),
        "moments": np.array(sums.moments().moments).tobytes(),
        "alarms": alarms,
        "pieces": pieces,
    }


@pytest.mark.parametrize("family", list(NoiseFamily))
def test_helper_thread_changes_no_bit(monkeypatch, family):
    # the noise drawn one piece ahead on the helper thread, with the
    # interpreter switching threads as often as it can, against the same
    # pieces drawn in line by a plain generator: two pieces, the second of
    # 65 537 rows, and every record of the run byte for byte
    sys_ = benchmark_system()
    w = NoiseModel(family, sys_.sigma_w, 71)
    v = NoiseModel(family, sys_.sigma_v, 72)
    T = 2 * 65_536 + 1 - 1000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _stream_record(sys_, w, v, T)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(cps_sim, "_drawn_ahead", lambda items: (item for item in items))
    inline = _stream_record(sys_, w, v, T)
    assert threaded["pieces"] == 2
    assert threaded == inline


@pytest.mark.parametrize("rows", [1, 2, 3, 1024, 65_543])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_q_equals_einsum(p, rows):
    # heavy-tailed rows (Student t with 2 degrees of freedom, each row
    # scaled by a lognormal) through _trace, with einsum as the oracle from
    # three rows on; on one or two rows einsum orders the sum another way
    # at p = 2, so there q is checked against the same rows of a longer
    # trace, as a prefix of a run would be
    rng = np.random.default_rng(100 * p + rows % 97)
    a = rng.standard_normal((p, p))
    sigma_r_inv = np.linalg.inv(a @ a.T + p * np.eye(p))
    sys_ = types.SimpleNamespace(sigma_r_inv=sigma_r_inv)
    for _ in range(max(3, 200 // rows)):
        r = rng.standard_t(2, size=(rows, p)) * np.exp(rng.normal(0.0, 3.0, (rows, 1)))
        if rows < 3:
            longer = np.vstack([r, rng.standard_t(2, size=(5, p))])
            want = cps_sim._trace(sys_, longer, None, 0).q_values[:rows]
        else:
            want = np.einsum("ij,jk,ik->i", r, sigma_r_inv, r)
        assert cps_sim._trace(sys_, r, None, 0).q_values.tobytes() == want.tobytes()


class _DrawError(Exception):
    pass


def _stream_args():
    """A laplacian stream of three pieces, after 1000 burn-in steps."""
    sys_ = benchmark_system()
    w = NoiseModel(NoiseFamily.MULTIVARIATE_LAPLACIAN, sys_.sigma_w, 81)
    v = NoiseModel(NoiseFamily.MULTIVARIATE_LAPLACIAN, sys_.sigma_v, 82)
    return sys_, w, v, 3 * 65_536 - 1000, 1000


def test_helper_error_reaches_the_caller(monkeypatch):
    # the measurement noise fails on its second piece: the error comes out
    # of the stream with its own type, after the first piece, and the
    # helper is gone
    draw = NoiseModel._pieces

    def failing(self, size):
        pieces = draw(self, size)
        yield next(pieces)
        if self.seed == 82:
            raise _DrawError("noise draw failed")
        yield from pieces

    monkeypatch.setattr(NoiseModel, "_pieces", failing)
    baseline = threading.active_count()
    got = []
    with pytest.raises(_DrawError, match="noise draw failed"):
        for piece in _attack_free_stream(*_stream_args()):
            got.append(piece.length)
    assert got == [65_536 - 1000]
    assert threading.active_count() == baseline


def test_closed_stream_leaves_no_thread():
    baseline = threading.active_count()
    stream = _attack_free_stream(*_stream_args())
    next(stream)
    assert threading.active_count() == baseline + 1
    stream.close()
    assert threading.active_count() == baseline


def test_stream_raising_mid_run_leaves_no_thread(monkeypatch):
    baseline = threading.active_count()
    with pytest.raises(ValueError, match="consumer failed"):
        for i, piece in enumerate(_attack_free_stream(*_stream_args())):
            assert threading.active_count() == baseline + 1
            if i == 1:
                raise ValueError("consumer failed")
    assert threading.active_count() == baseline
    # the same when the stream's own work on a piece raises
    check = cps_sim._check_states

    def failing_check(x, start):
        check(x, start)
        if start > 0:
            raise ArithmeticError("state check failed")

    monkeypatch.setattr(cps_sim, "_check_states", failing_check)
    with pytest.raises(ArithmeticError, match="state check failed"):
        for piece in _attack_free_stream(*_stream_args(), keep_states=True):
            pass
    assert threading.active_count() == baseline


def test_residual_trace_clips_rounding_below_zero():
    # q a hair below 0 is rounding in r' S^-1 r and clips to 0; below the
    # tolerance -1e-12 it is an error
    r = np.zeros((1, 2))
    assert ResidualTrace(r, np.array([-5e-13])).q_values.tolist() == [0.0]
    with pytest.raises(ValueError, match="nonnegative"):
        ResidualTrace(r, np.array([-5e-12]))


def test_simulate_checks_its_arguments():
    sys_ = benchmark_system()
    w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 5)
    v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 6)
    with pytest.raises(ValueError, match="simulation length must be positive"):
        simulate(sys_, w, v, 0)
    with pytest.raises(ValueError, match="burn-in must be nonnegative"):
        simulate(sys_, w, v, 5, burn_in=-1)
    # process noise in three dimensions for the two-state plant
    w3 = NoiseModel(NoiseFamily.GAUSSIAN, np.eye(3), 5)
    with pytest.raises(ValueError, match="noise dimensions do not match the system"):
        simulate(sys_, w3, v, 5)


def test_simulate_rejects_a_non_integer_length():
    sys_ = benchmark_system()
    w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 5)
    v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 6)
    with pytest.raises(ValueError, match="simulation length T must be an integer"):
        simulate(sys_, w, v, 10.5)
    trace = simulate(sys_, w, v, np.int64(3), burn_in=2)
    assert trace.residuals.tobytes() == simulate(sys_, w, v, 3, burn_in=2).residuals.tobytes()


def test_simulate_rejects_a_non_integer_burn_in():
    sys_ = benchmark_system()
    w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 5)
    v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 6)
    with pytest.raises(ValueError, match="burn-in must be an integer"):
        simulate(sys_, w, v, 5, burn_in=2.5)
    trace = simulate(sys_, w, v, 3, burn_in=np.int64(2))
    assert trace.residuals.tobytes() == simulate(sys_, w, v, 3, burn_in=2).residuals.tobytes()


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
    for policy, kwargs in ((None, dict(keep_states=True)), (attack, dict(attack=attack))):
        # the first state past 1e12 in Euclidean norm: step 28 on both
        # routes, where the norm is 1.24e12 and 2.12e12; attack-free the
        # largest entry is 9.8e11 there
        states, _, _ = _reference_loop(sys_, w, v, 200, policy, burn_in=0)
        step = int(np.argmax(np.linalg.norm(states, axis=1) > 1e12))
        with pytest.raises(ArithmeticError, match=f"diverged at step {step}$"):
            simulate(sys_, w, v, 200, burn_in=0, **kwargs)
    # a non-finite state counts as diverged, from the first step it appears
    object.__setattr__(sys_, "A", np.full((2, 2), np.nan))
    with pytest.raises(ArithmeticError, match="diverged at step 1$"):
        simulate(sys_, w, v, 200, burn_in=0, attack=attack)
