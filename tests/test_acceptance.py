"""Ten-point acceptance gate for the full pipeline.

Each test records a one-line verdict in the terminal summary via
conftest.check_criterion, so a run always ends with the complete
pass/fail scoreboard.  Million-step simulations are session-scoped and
shared between criteria.
"""
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import check_criterion, random_moments, random_tail_instance
from drdetect import (
    AttackPolicy,
    ExperimentConfig,
    Method,
    NoiseFamily,
    NoiseModel,
    benchmark_system,
    chebyshev_bound,
    chi_squared_moments,
    closed_form_threshold,
    is_feasible,
    markov_bound,
    noise_threshold,
    reach_bound,
    run_far,
    run_tune,
    simulate,
    solve_dare,
    solve_sdp,
    tail_lower_bound,
    tune_threshold_sdp,
    volume_comparison,
)
from drdetect import detector_tuning

RATE = 0.05
EPSILON = 1e-4
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
GAUSSIAN_CONFIG = CONFIG_DIR / "benchmark2d_gaussian.json"


@pytest.fixture(scope="session")
def gaussian_experiment():
    return ExperimentConfig.from_json(GAUSSIAN_CONFIG)


@pytest.fixture(scope="session")
def gaussian_thresholds(gaussian_experiment):
    start = time.perf_counter()
    rows = run_tune(gaussian_experiment)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def gaussian_far_rows(gaussian_experiment, gaussian_thresholds):
    rows, _ = gaussian_thresholds
    start = time.perf_counter()
    far = run_far(gaussian_experiment, rows)
    return far, time.perf_counter() - start


@pytest.fixture(scope="session")
def laplacian_results():
    config = ExperimentConfig.from_json(CONFIG_DIR / "benchmark2d_laplacian.json")
    rows = run_tune(config)
    return rows, run_far(config, rows)


def _by_method(rows, method):
    return next(row for row in rows if row.method is method)


def test_criterion_01_threshold_reproduction(gaussian_thresholds):
    rows, elapsed = gaussian_thresholds
    k1 = _by_method(rows, Method.CLOSED_FORM_K1).alpha
    k2 = _by_method(rows, Method.CLOSED_FORM_K2).alpha
    k4 = _by_method(rows, Method.SDP_BISECTION).alpha
    ok = (
        k1 == 40.0
        and 10.6 <= k2 <= 10.9
        and 8.9 <= k4 <= 9.4
        and elapsed < 30.0
    )
    check_criterion(
        1,
        "threshold reproduction (gaussian, rate 0.05)",
        ok,
        f"k1={k1:.6g} k2={k2:.6g} k4={k4:.6g} in {elapsed:.2f}s",
    )


def test_criterion_02_monotonicity_in_order(rng):
    def chain(seq):
        alphas = [
            closed_form_threshold(seq.truncated(k), RATE, k).alpha for k in (1, 2)
        ]
        alphas += [
            tune_threshold_sdp(seq.truncated(k), RATE, epsilon=EPSILON).alpha
            for k in (3, 4)
        ]
        return alphas

    sequences = [chi_squared_moments(2, 4)]
    sequences += [random_moments(rng, 4) for _ in range(20)]
    worst = 0.0
    for seq in sequences:
        alphas = chain(seq)
        for upper, lower in zip(alphas, alphas[1:]):
            worst = max(worst, lower - upper)
    check_criterion(
        2,
        "threshold monotonicity in moment order",
        worst <= EPSILON + 1e-9,
        f"worst chain violation {worst:.3g} over {len(sequences)} sequences",
    )


def test_criterion_03_sdp_matches_closed_forms(rng):
    worst = 0.0
    for _ in range(50):
        seq1 = random_moments(rng, 1)
        alpha1 = float(rng.uniform(0.3, 3.0)) * seq1.mean
        sdp1 = solve_sdp(seq1, alpha1).objective
        worst = max(worst, abs(sdp1 - markov_bound(seq1, alpha1)))

        seq2 = random_moments(rng, 2)
        # the two-moment closed form is the exact value above M2/M1
        alpha2 = float(rng.uniform(1.0, 2.5)) * seq2.moments[2] / seq2.mean
        sdp2 = solve_sdp(seq2, alpha2).objective
        worst = max(worst, abs(sdp2 - chebyshev_bound(seq2, alpha2)))
    check_criterion(
        3,
        "sdp equals markov/chebyshev closed forms",
        worst <= 1e-4,
        f"max |sdp - closed form| = {worst:.3g} over 50 pairs at k=1 and k=2",
    )


def test_criterion_04_primal_dual_sandwich(rng):
    n = 50
    violations = 0
    close = 0
    no_law = 0
    worst_gap = 0.0
    for i in range(n):
        seq, alpha = random_tail_instance(rng, 1 + i % 4)
        sdp = solve_sdp(seq, alpha).objective
        lower = tail_lower_bound(seq, alpha)
        no_law += lower == 0.0
        if lower > sdp + 1e-3:
            violations += 1
        gap = sdp - lower
        worst_gap = max(worst_gap, gap)
        if gap <= 0.01:
            close += 1
    ok = violations == 0 and close >= int(np.ceil(0.9 * n))
    check_criterion(
        4,
        "explicit law sandwiches the sdp",
        ok,
        f"violations={violations}, gap<=0.01 on {close}/{n}, "
        f"no law on {no_law}/{n}, worst gap {worst_gap:.4f}",
    )


def test_criterion_05_gaussian_false_alarm_rates(gaussian_far_rows):
    far, elapsed = gaussian_far_rows
    rates = {row.method: rate for row, rate, _ in far}
    chi = rates[Method.CHI_SQUARED]
    k1 = rates[Method.CLOSED_FORM_K1]
    k2 = rates[Method.CLOSED_FORM_K2]
    k4 = rates[Method.SDP_BISECTION]
    ok = (
        abs(chi - 0.05) <= 0.002
        and k4 <= 0.015
        and k2 <= 0.01
        and k1 <= 0.0005
        and elapsed < 120.0
    )
    check_criterion(
        5,
        "gaussian empirical false-alarm rates at T=1e6",
        ok,
        f"chi2={chi:.6f} k4={k4:.6f} k2={k2:.6f} k1={k1:.6f} in {elapsed:.1f}s",
    )


def test_criterion_06_heavy_tail_robustness(laplacian_results):
    rows, far = laplacian_results
    k2 = _by_method(rows, Method.CLOSED_FORM_K2).alpha
    k4 = _by_method(rows, Method.SDP_BISECTION).alpha
    tuned = [r for row, r, _ in far if row.method is not Method.CHI_SQUARED]
    chi_rate = next(r for row, r, _ in far if row.method is Method.CHI_SQUARED)
    ok = (
        abs(k2 - 17.23) <= 0.15 * 17.23
        and abs(k4 - 16.54) <= 0.15 * 16.54
        and max(tuned) <= RATE
    )
    check_criterion(
        6,
        "laplacian guarantee from empirical moments",
        ok,
        f"k2={k2:.4f} k4={k4:.4f} max tuned rate {max(tuned):.6f} "
        f"(unguaranteed chi2 reference breaches at {chi_rate:.6f})",
    )


def test_criterion_07_kalman_gain():
    sys_ = benchmark_system()
    _, gain = solve_dare(sys_.A, sys_.C, sys_.sigma_w, sys_.sigma_v)
    expected = np.array([[0.0276, 0.0448], [-0.01998, -0.0290]])
    err = float(np.abs(gain - expected).max())
    check_criterion(
        7,
        "kalman gain matches reference values",
        err <= 2e-3,
        f"max entrywise error {err:.3g}",
    )


def test_criterion_08_zero_alarm_attacks(gaussian_thresholds):
    rows, _ = gaussian_thresholds
    sys_ = benchmark_system()
    alarms = 0
    margin = np.inf
    for i, row in enumerate(rows):
        w = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 100 + 2 * i)
        v = NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 101 + 2 * i)
        policy = AttackPolicy(alpha=row.alpha, direction=np.array([1.0, 0.0]))
        trace = simulate(sys_, w, v, 10_000, attack=policy)
        alarms += int(np.count_nonzero(trace.q_values > row.alpha))
        margin = min(margin, row.alpha - trace.q_values.max())
    check_criterion(
        8,
        "zero alarms under the stealthy attack",
        alarms == 0,
        f"alarms={alarms} over 4x10000 steps, tightest margin {margin:.3g}",
    )


def test_criterion_09_reachable_set_nesting():
    sys_ = benchmark_system()
    w_bar = noise_threshold(sys_.n, RATE)
    alphas = (40.0, 10.77, 9.13, 5.99)
    bounds = [reach_bound(sys_, w_bar, a, 50, 256) for a in alphas]
    report = volume_comparison(bounds)
    strictly_decreasing = all(
        a > b for a, b in zip(report.areas, report.areas[1:])
    )
    ok = strictly_decreasing and report.support_ordered
    check_criterion(
        9,
        "reach-bound areas shrink with tighter thresholds",
        ok,
        "areas " + " > ".join(f"{a:.3f}" for a in report.areas),
    )


def test_criterion_10_property_suites(rng, tmp_path, monkeypatch):
    failures = []

    seq = random_moments(rng, 4)
    if not all(is_feasible(seq.truncated(k)) for k in (1, 2, 3)):
        failures.append("truncation closure")

    c = 2.5
    scaled = seq.scaled(c)
    expected = [m * c**r for r, m in enumerate(seq.moments)]
    if not np.allclose(scaled.moments, expected, rtol=1e-12):
        failures.append("scaling covariance")

    sol = solve_sdp(chi_squared_moments(2, 4), 9.1315)
    if not sol.y.is_valid():
        failures.append("certificate nonnegativity")

    rb = reach_bound(benchmark_system(), 40.0, 9.1315, 50, 128)
    pts = rb.boundary
    cross = []
    for i in range(len(pts)):
        u = pts[(i + 1) % len(pts)] - pts[i]
        v = pts[(i + 2) % len(pts)] - pts[(i + 1) % len(pts)]
        cross.append(float(u[0] * v[1] - u[1] * v[0]))
    if min(cross) < -1e-9 * max(abs(c) for c in cross):
        failures.append("boundary convexity")

    # each run tunes from scratch and each file comes from its own bound,
    # so a nondeterministic step shows as a difference
    experiment = ExperimentConfig.from_json(GAUSSIAN_CONFIG)
    runs = []
    for _ in range(2):
        monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
        runs.append([row.to_csv_row() for row in run_tune(experiment)])
    rows_a, rows_b = runs
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    rb.write_boundary_csv(path_a)
    reach_bound(benchmark_system(), 40.0, 9.1315, 50, 128).write_boundary_csv(path_b)
    if rows_a != rows_b or path_a.read_bytes() != path_b.read_bytes():
        failures.append("determinism")

    check_criterion(
        10,
        "property suites (feasibility, certificates, convexity, determinism)",
        not failures,
        "all green" if not failures else "failed: " + ", ".join(failures),
    )
