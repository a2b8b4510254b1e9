import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drdetect import (
    MomentSequence,
    PolyBound,
    build_sdp,
    chebyshev_bound,
    chi_squared_moments,
    markov_bound,
    solve_sdp,
    tail_lower_bound,
)
from drdetect import _lapack, bound_engine, detector_tuning, ipm
from drdetect.ipm import Status, svec
from drdetect.moment_core import _hankel_matrix

from conftest import (
    SEQ15,
    SETTLED_CASES,
    THREE_ATOM,
    TWO_ATOM,
    atomic_moments,
    random_moments,
)

CHI2 = chi_squared_moments(2, 4)


def test_markov_bound_values():
    m = MomentSequence((1.0, 2.0))
    assert markov_bound(m, 40.0) == pytest.approx(0.05)
    assert markov_bound(m, 1.0) == 1.0
    assert markov_bound(m, 4.0) == 0.5
    with pytest.raises(ValueError):
        markov_bound(m, 0.0)


def test_chebyshev_bound_values():
    m = CHI2.truncated(2)
    alpha = (1.0 + np.sqrt(0.95 / 0.05)) * 2.0
    assert chebyshev_bound(m, alpha) == pytest.approx(0.05, abs=1e-12)
    assert chebyshev_bound(m, 2.0) == 1.0
    assert chebyshev_bound(MomentSequence((1.0, 1.0, 1.0)), 2.0) == 0.0
    # all mass at zero: nothing lies above a positive threshold
    assert chebyshev_bound(MomentSequence((1.0, 0.0, 0.0)), 1.0) == 0.0
    with pytest.raises(ValueError):
        chebyshev_bound(MomentSequence((1.0, 1.0, 0.5)), 2.0)
    with pytest.raises(ValueError):
        chebyshev_bound(MomentSequence((1.0, 2.0)), 3.0)


def test_poly_bound_evaluation_and_validity():
    # p(q) = q/alpha certifies the Markov bound
    p = PolyBound((0.0, 0.25), 4.0)
    assert p(4.0) == pytest.approx(1.0)
    # a list or a tuple of points evaluates as the array of them does
    q = [0.0, 1.5, 4.0, 9.0]
    for points in (q, tuple(q)):
        np.testing.assert_array_equal(p(points), p(np.array(q)))
    assert p.is_valid()
    # a polynomial dipping negative on [0, alpha] must be rejected
    bad = PolyBound((-0.5, 0.25), 4.0)
    assert not bad.is_valid()
    # polynomials that dip below 1 only beyond 100 alpha must be rejected:
    # one by its negative leading coefficient, 1 + (q-1)(300-q)/1000 ...
    beyond = np.linspace(1.0, 100.0, 10_000)
    falls = np.polynomial.polynomial.polymul((-1.0, 1.0), (300.0, -1.0))
    falls = PolyBound(np.polynomial.polynomial.polyadd((1.0,), 1e-3 * falls), 1.0)
    assert falls(beyond).min() >= 1.0 and falls(0.0) >= 0.0
    assert falls(400.0) < 1.0
    assert not falls.is_valid()
    # ... one by an interior dip, 1 + (q-1)((q-200)^2 - 100)/1e5
    well = np.polynomial.polynomial.polymul(
        (-1.0, 1.0), (200.0**2 - 100.0, -400.0, 1.0)
    )
    well = PolyBound(np.polynomial.polynomial.polyadd((1.0,), 1e-5 * well), 1.0)
    assert well(beyond).min() >= 1.0 and well(0.0) >= 0.0
    assert well(200.0) < 1.0
    assert not well.is_valid()


def test_poly_bound_rejects_non_finite_input():
    for threshold in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            PolyBound((0.0, 1.0), threshold)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            PolyBound((0.0, bad), 1.0)


def test_stalled_solve_stops_early_with_a_certified_bound():
    # chi-squared(1) at its mean with five moments: the IPM stalls, and
    # ran to its iteration limit before stalls were cut short
    sol = solve_sdp(chi_squared_moments(1, 5), 1.0)
    assert sol.status == Status.NUMERICAL_TROUBLE
    assert sol.iterations <= 40
    assert sol.y.is_valid()
    assert 0.0 <= sol.objective <= 1.0


def test_linalg_error_in_a_step_ends_the_run(monkeypatch):
    # a LinAlgError from the step length (here the 5th call, in the 3rd
    # iteration) ends the run like every other failed iteration: with
    # NUMERICAL_TROUBLE and the best iterate, which solve_sdp certifies
    original, calls = ipm._max_step, []

    def failing(*args):
        calls.append(args)
        if len(calls) % 5 == 0:
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return original(*args)

    monkeypatch.setattr(ipm, "_max_step", failing)
    run = ipm.solve(build_sdp(CHI2.scaled(1 / 9)))
    assert run.status == Status.NUMERICAL_TROUBLE
    assert run.iterations == 2
    sol = solve_sdp(CHI2, 9.0)
    assert sol.status == Status.NUMERICAL_TROUBLE
    assert sol.y.is_valid()
    assert 0.0 < sol.objective <= 1.0


def test_negative_leading_coefficient_falls_back_to_one(monkeypatch):
    # no shift of the constant repairs a certificate that falls to -inf,
    # so both the SDP's and the law's certificate become p = 1
    def falling(problem):
        y = np.zeros(problem.c_free.shape[0])
        y[-1] = -1.0
        return ipm.ConicSolution(y, 0.0, 1, Status.OPTIMAL)

    monkeypatch.setattr(ipm, "solve", falling)
    sol = solve_sdp(CHI2, 9.0)
    assert sol.objective == 1.0
    assert sol.y.coeffs == (1.0, 0.0, 0.0, 0.0, 0.0)
    assert sol.status == Status.NUMERICAL_TROUBLE

    lower, upper = bound_engine._law_ends(CHI2, 9.0)
    assert 0.0 < lower <= upper < 1.0
    monkeypatch.setattr(bound_engine, "_interpolant", lambda _, k: -np.eye(k + 1)[k])
    assert bound_engine._law_ends(CHI2, 9.0) == (lower, 1.0)


def test_nan_threshold_is_rejected():
    for bound in (markov_bound, chebyshev_bound, solve_sdp, tail_lower_bound):
        with pytest.raises(ValueError, match="threshold must be positive"):
            bound(CHI2, math.nan)


def test_infinite_threshold_is_rejected():
    for bound in (markov_bound, chebyshev_bound, solve_sdp, tail_lower_bound):
        with pytest.raises(ValueError, match="threshold must be positive and finite"):
            bound(CHI2, math.inf)


def test_threshold_far_below_the_mean_is_rejected():
    # at 1e-60 the factor (1/alpha)^6 overflows, at 1e-51 only M6 = 46080
    # times it does; both are one ValueError, not an OverflowError
    m = chi_squared_moments(2, 6)
    for alpha in (1e-60, 1e-51):
        for bound in (solve_sdp, tail_lower_bound):
            with pytest.raises(ValueError, match="leave the float range"):
                bound(m, alpha)


def test_poly_bound_slack_finds_interior_dip():
    # p(q) = (q-1)^2 = 1 - 2q + q^2 has its minimum 0 at q=1, inside
    # [0, 3]; at 0 and at the threshold it is 1 and 4
    p = PolyBound((1.0, -2.0, 1.0), 3.0)
    assert p.slack() == pytest.approx(0.0, abs=1e-12)
    # with the threshold at 0.5 the dip lies above it: min p - 1 = -1
    assert PolyBound((1.0, -2.0, 1.0), 0.5).slack() == pytest.approx(-1.0)
    # a line has no critical point: its least margin is at 0 or the threshold
    assert PolyBound((-0.1, 1.0), 2.0).slack() == pytest.approx(-0.1)
    assert PolyBound((0.1, 0.25), 4.0).slack() == pytest.approx(0.1)
    # a negative leading coefficient fails on the half-line
    assert PolyBound((2.0, 1.0, -1e-9), 1.0).slack() == -math.inf


def _numpy_slack(coeffs, threshold):
    """PolyBound.slack as numpy gives it: the trailing zeros trimmed, then
    numpy.polynomial's derivative, roots and evaluation, and numpy's min
    on each side.  (numpy.polynomial's polytrim would also drop a
    trailing NaN.)"""
    poly = np.polynomial.polynomial
    top = len(coeffs)
    while top > 1 and coeffs[top - 1] == 0.0:
        top -= 1
    if top > 1 and coeffs[top - 1] < 0.0:
        return -math.inf
    a = threshold
    # inf - inf and inf / inf are NaN here, as in the scalar code
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        roots = poly.polyroots(poly.polyder(coeffs[:top])).real
        pts = np.concatenate(([0.0, a], roots[roots >= 0.0]))
        values = poly.polyval(pts, coeffs)
    return float(min(values[pts >= a].min() - 1.0, values[pts <= a].min()))


def test_slack_and_evaluation_keep_the_bits_of_numpy_polynomial():
    rng = np.random.default_rng(38)
    checked = 0
    for degree in range(7):
        for _ in range(60):
            coeffs = rng.standard_normal(degree + 1) * 10.0 ** rng.integers(-3, 4)
            coeffs[-1] = abs(coeffs[-1])
            cases = [coeffs, np.append(coeffs, [0.0] * rng.integers(1, 3))]
            if degree:
                # a negative leading coefficient, before trailing zeros too
                cases += [np.append(coeffs[:-1], -coeffs[-1])]
                cases += [np.append(cases[-1], 0.0)]
            for c in cases:
                a = float(rng.uniform(0.1, 5.0))
                p = PolyBound(tuple(c), a)
                assert repr(p.slack()) == repr(_numpy_slack(p.coeffs, a)), p
                x = rng.uniform(0.0, 10.0, size=9)
                poly = np.polynomial.polynomial.polyval
                assert p(x).tobytes() == poly(x, p.coeffs).tobytes()
                assert repr(float(p(x[0]))) == repr(float(poly(x[0], p.coeffs)))
                checked += 1
    assert checked == 60 * (2 + 4 * 6)


def _outcome(f, *args):
    """repr of f(*args), or the name of the error it raises."""
    try:
        return repr(f(*args))
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__


def test_slack_propagates_nan_and_inf_as_numpy_did():
    # _slack runs on Python floats and takes each side's least value as
    # numpy's min does, a NaN included, and the outer min is Python's.
    # p = inf - 1e300 q + q^3/3 is NaN at its critical point q = 1e150:
    # inf + -inf.  Above a threshold of 1 that NaN stands, where a
    # NaN-blind min would give inf; below a threshold of 1e151 it is
    # passed over by the outer min, as numpy's values were
    inf, nan = math.inf, math.nan
    dip = [inf, -1e300, 0.0, 1.0 / 3.0]
    assert repr(bound_engine._slack(dip, 1.0)) == repr(_numpy_slack(dip, 1.0)) == "nan"
    assert repr(bound_engine._slack(dip, 1e151)) == "inf"
    assert _numpy_slack(dip, 1e151) == inf
    rng = np.random.default_rng(43)
    outcomes = set()
    for _ in range(2000):
        degree = int(rng.integers(0, 7))
        c = (rng.standard_normal(degree + 1) * 10.0 ** rng.integers(-3, 4)).tolist()
        c[-1] = abs(c[-1])
        for _ in range(int(rng.integers(1, 3))):
            c[int(rng.integers(len(c)))] = (nan, inf, -inf)[int(rng.integers(3))]
        a = float(rng.uniform(0.1, 5.0))
        got = _outcome(bound_engine._slack, c, a)
        assert got == _outcome(_numpy_slack, c, a), (c, a)
        outcomes.add(got)
    # every kind of result: a companion matrix that is not finite, a
    # negative leading coefficient, and NaN and inf margins
    assert outcomes == {"LinAlgError", "-inf", "nan", "inf"}


def _numpy_jacobi(upper):
    """bound_engine._jacobi as numpy array arithmetic built it: the ratios
    and pivot quotients as arrays, each added into a matrix of zeros."""
    n = len(upper)
    pivots = upper.diagonal()
    ratio = upper.diagonal(1) / pivots[: upper.shape[1] - 1]
    a = np.ones(n)
    a[: len(ratio)] = ratio
    a[1 : len(ratio)] -= ratio[:-1]
    b = pivots[1:] / pivots[:-1]
    jacobi = np.zeros((n, n))
    entries = jacobi.reshape(-1)
    entries[:: n + 1] += a
    entries[1 :: n + 1] += b
    entries[n :: n + 1] += b
    return jacobi


def test_jacobi_keeps_the_bits_of_the_array_formula(settled_points):
    # every Cholesky factor of a Hankel matrix of the scaled moments at
    # the settled points, square as the Gauss-Radau rule takes it and with
    # its last row dropped as the boundary law takes it; and a factor
    # whose ratio -0.0 / 2 only the addition into 0.0 turns into +0.0
    factors = [np.array([[2.0, -0.0, 1.0], [0.0, 0.5, -0.0]])]
    for seq, alpha in {(seq, alpha) for seq, alpha, _, _ in settled_points}:
        scaled = np.array(seq.scaled(1.0 / alpha).moments)
        for order in range(1, seq.order + 1):
            try:
                upper = np.linalg.cholesky(_hankel_matrix(scaled, order)).T
            except np.linalg.LinAlgError:
                continue
            factors += [upper, upper[:-1]] if len(upper) > 1 else [upper]
    for upper in factors:
        got = bound_engine._jacobi(upper)
        assert got.tobytes() == _numpy_jacobi(upper).tobytes(), upper
    assert bound_engine._jacobi(factors[0])[0, 0].hex() == "0x0.0p+0"
    assert len(factors) > 2000


def test_jacobi_raises_where_numpy_met_an_invalid_value():
    # r_01 / r_00 and r_12 / r_11 both overflow, so a_1 = inf - inf; under
    # the law layer's error state numpy raised LinAlgError there, and the
    # scalar code raises it too
    upper = np.array([[1e-300, 1e300, 0.0], [0.0, 1e-300, 1e300]])
    for jacobi in (_numpy_jacobi, bound_engine._jacobi):
        with _lapack._lapack_state(_lapack._NO_CONVERGENCE):
            with pytest.raises(np.linalg.LinAlgError):
                jacobi(upper)


def test_slack_raises_on_a_companion_matrix_that_is_not_finite():
    # p' = 1e300 + 3e-300 q^2: its companion matrix holds -1e300 / 3e-300
    p = PolyBound((0.0, 1e300, 0.0, 1e-300), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            p.slack()


def _grid_min(p, lo, hi=math.inf):
    """Minimum of p on [lo, hi] as the check before the exact one took it:
    10 000 grid points on [lo, hi] (on [lo, 100 lo] for an infinite hi)
    and the critical points that are real within 1e-9 relative."""
    coeffs = np.polynomial.polynomial.polytrim(p.coeffs)
    if math.isinf(hi) and len(coeffs) > 1 and coeffs[-1] < 0.0:
        return -math.inf
    grid = np.linspace(lo, hi if math.isfinite(hi) else 100.0 * lo, 10_000)
    candidates = [p(grid).min()]
    deriv = np.polynomial.polynomial.polyder(coeffs)
    if len(deriv) > 1:
        roots = np.polynomial.polynomial.polyroots(deriv)
        scale = np.maximum(1.0, np.abs(roots.real))
        real = roots[np.abs(roots.imag) < 1e-9 * scale].real
        inside = real[(real >= lo) & (real <= hi)]
        if inside.size:
            candidates.append(p(inside).min())
    return float(min(candidates))


def _raw_certificate(moments, alpha):
    """The solver's certificate in units of the threshold, before the
    polish in `solve_sdp` absorbs its residual."""
    conic = build_sdp(moments.scaled(1.0 / alpha))
    return PolyBound(tuple(bound_engine.ipm.solve(conic).x_free), 1.0)


def test_slack_equals_the_grid_check_bit_for_bit():
    cases = [
        (chi_squared_moments(p, k), mean * ratio)
        for p, mean in ((1, 1.0), (2, 2.0), (4, 4.0))
        for k in range(3, 7)
        for ratio in (1.0, 2.5, 6.0)
    ]
    # the stalled solve, and the two-atom law whose solves beyond four
    # moments stall at the k = 4 threshold
    cases.append((chi_squared_moments(1, 5), 1.0))
    cases += [(TWO_ATOM.truncated(k), 4.45435) for k in (4, 5, 6)]
    stalled = 0
    for moments, alpha in cases:
        sol = solve_sdp(moments, alpha)
        stalled += sol.status == Status.NUMERICAL_TROUBLE
        for cert in (_raw_certificate(moments, alpha), sol.y):
            a = cert.threshold
            grid = min(_grid_min(cert, a) - 1.0, _grid_min(cert, 0.0, a))
            assert repr(cert.slack()) == repr(grid)
    assert stalled >= 2


def test_solve_finds_critical_points_once(monkeypatch):
    calls = []
    original = bound_engine._eigvals

    def counted(companion):
        calls.append(companion.shape)
        return original(companion)

    monkeypatch.setattr(bound_engine, "_eigvals", counted)
    solve_sdp(CHI2, 9.1315)
    # the one polish of a degree-4 certificate: p' has three roots
    assert calls == [(3, 3)]


def _residual(prob, y, x, z):
    """Row residuals of the program at free variables y and blocks X, Z."""
    return (
        prob.a_free @ y
        + prob.a_blocks[0] @ svec(x)
        + prob.a_blocks[1] @ svec(z)
        - prob.b
    )


def test_build_sdp_row_structure_k1():
    # the Markov bound at alpha = 4 is the program at threshold 1 for the
    # moments of q/4
    prob = build_sdp(MomentSequence((1.0, 2.0)).scaled(0.25))
    np.testing.assert_array_equal(prob.c_free, [1.0, 0.5])
    # 4k + 2 rows and two blocks of size k + 1 at k = 1, svec width 3
    assert prob.b.shape == (6,)
    assert prob.a_blocks.shape == (2, 6, 3)
    # the known Markov certificate p(q) = q, y = (0, 1), with
    # X = diag(0, 1), Z = diag(0, 1) satisfies every row
    y = np.array([0.0, 1.0])
    x = np.diag([0.0, 1.0])
    z = np.diag([0.0, 1.0])
    np.testing.assert_allclose(_residual(prob, y, x, z), 0.0, atol=1e-14)


def test_build_sdp_constant_one_certificate_k2():
    # y = (1,0,0) encodes p(q) = 1: feasible with objective 1 via
    # rank-one blocks placing all weight at the constant coordinate
    m = CHI2.truncated(2)
    prob = build_sdp(m)
    y = np.array([1.0, 0.0, 0.0])
    x = np.zeros((3, 3))
    # Gram matrix of (1 + t^2)^2 in the basis (1, t, t^2): rank one
    v = np.array([1.0, 0.0, 1.0])
    z = np.outer(v, v)
    np.testing.assert_allclose(_residual(prob, y, x, z), 0.0, atol=1e-14)
    assert float(np.dot(y, prob.c_free)) == 1.0


def test_build_sdp_block_shapes_k4():
    prob = build_sdp(CHI2.scaled(1.0 / 9.0))
    assert prob.b.shape == (18,)  # 4k + 2 rows
    # two 5 x 5 blocks, svec width 15
    assert prob.a_blocks.shape == (2, 18, 15)
    # in threshold units the rows are integers that depend on k alone
    np.testing.assert_array_equal(prob.a_free, np.round(prob.a_free))
    other = build_sdp(chi_squared_moments(5, 4))
    np.testing.assert_array_equal(prob.a_free, other.a_free)
    for mine, theirs in zip(prob.a_blocks, other.a_blocks):
        np.testing.assert_array_equal(mine, theirs)
    for field in ("a_free", "a_blocks", "b"):
        assert not getattr(prob, field).flags.writeable
    np.testing.assert_array_equal(other.c_free, chi_squared_moments(5, 4).moments)
    np.testing.assert_array_equal(prob.b, other.b)
    with pytest.raises(ValueError):
        solve_sdp(CHI2, -1.0)
    with pytest.raises(ValueError):
        solve_sdp(CHI2, 0.0)
    with pytest.raises(ValueError):
        solve_sdp(MomentSequence((1.0, 1.0, 0.5)), 1.0)


def test_solve_builds_and_checks_once(monkeypatch):
    calls = {"build_sdp": 0, "is_feasible": 0}
    for name in calls:
        original = getattr(bound_engine, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bound_engine, name, counted)
    sol = solve_sdp(CHI2, 9.1315)
    assert calls == {"build_sdp": 1, "is_feasible": 1}
    assert sol.y.threshold == 9.1315


def test_solve_matches_markov_exactly():
    m = MomentSequence((1.0, 2.0))
    for alpha in (0.5, 1.0, 3.0, 40.0, 250.0):
        sol = solve_sdp(m, alpha)
        assert sol.status == Status.OPTIMAL
        assert sol.objective == pytest.approx(markov_bound(m, alpha), abs=1e-6)
        assert sol.y.is_valid()


def test_solve_matches_chebyshev_in_tight_regime():
    m = CHI2.truncated(2)
    lo = m.moments[2] / m.moments[1]  # tight-regime boundary
    for alpha in (lo, 1.5 * lo, 5.0 * lo, 10.717797887081348):
        sol = solve_sdp(m, alpha)
        assert sol.status == Status.OPTIMAL
        assert sol.objective == pytest.approx(chebyshev_bound(m, alpha), abs=1e-6)
        assert sol.y.is_valid()


def test_solve_k4_reference_point():
    sol = solve_sdp(CHI2, 9.1315)
    assert sol.objective == pytest.approx(0.05, abs=0.002)
    assert sol.status == Status.OPTIMAL
    assert sol.duality_gap <= 1e-7


def test_bound_monotone_in_alpha():
    alphas = np.linspace(2.5, 30.0, 12)
    vals = [solve_sdp(CHI2, a).objective for a in alphas]
    diffs = np.diff(vals)
    assert np.all(diffs <= 1e-7)


def test_bound_monotone_in_order():
    # richer moment information can only tighten the bound
    alpha = 9.0
    vals = [
        solve_sdp(CHI2.truncated(k), alpha).objective
        for k in (1, 2, 3, 4)
    ]
    for lo_k, hi_k in zip(vals[1:], vals[:-1]):
        assert lo_k <= hi_k + 1e-7


def _sandwich(moments, alpha):
    """(law, sdp) at one point: the explicit law's tail never exceeds the
    certified bound, and meets it when the solve is optimal."""
    law = tail_lower_bound(moments, alpha)
    sol = solve_sdp(moments, alpha)
    assert 0.0 <= law <= sol.objective + 1e-8, (moments, alpha)
    if law > 0.0 and sol.status is Status.OPTIMAL:
        assert sol.objective - law <= 1e-8, (moments, alpha)
    return law, sol


def test_tail_lower_bound_sandwiches_the_sdp(rng):
    tight = 0
    for p in (1, 2, 4):
        for k in range(1, 7):
            m = chi_squared_moments(p, k)
            for ratio in (1.0, 1.05, 1.3, 1.7, 2.5, 4.0, 6.0, 10.0):
                law, sol = _sandwich(m, ratio * m.mean)
                tight += law > 0.0 and sol.status is Status.OPTIMAL
    for k in range(1, 7):
        m = random_moments(rng, k)
        for ratio in (1.0, 1.4, 2.2, 3.5):
            law, sol = _sandwich(m, ratio * m.mean)
            tight += law > 0.0 and sol.status is Status.OPTIMAL
    # two thirds of the 168 points have a law and an optimal solve, so
    # the agreement check bites
    assert tight >= 100


def test_tail_lower_bound_is_markov_at_one_moment():
    m = MomentSequence((1.0, 2.0))
    for alpha in (2.0, 3.0, 40.0, 250.0):
        law = tail_lower_bound(m, alpha)
        assert law == pytest.approx(markov_bound(m, alpha), rel=1e-15)
    # below the mean the mass left for 0 is negative: no law
    assert tail_lower_bound(m, 1.5) == 0.0
    with pytest.raises(ValueError):
        tail_lower_bound(m, 0.0)


def test_tail_lower_bound_on_the_two_atom_boundary():
    # at each point both ends meet up to rounding, with no solve
    def ends(moments, alpha):
        lower, upper = bound_engine._law_ends(moments, alpha)
        assert lower == tail_lower_bound(moments, alpha)
        assert 0.0 <= lower <= upper <= lower + 2e-9, (moments, alpha)
        return lower

    # the upper atom 4.44869396 lies below the threshold: the true tail is
    # 0, and the law found in rounding carries no more than 1e-8
    assert ends(TWO_ATOM.truncated(4), 4.45608) < 1e-8
    # five moments of two atoms: the Hankel matrix is singular and no
    # Gauss-Radau rule exists; the unique law, read off its leading block,
    # has both atoms below the threshold
    scaled = np.array(TWO_ATOM.truncated(5).scaled(1.0 / 4.45608).moments)
    assert bound_engine._radau_law(scaled, 5) is None
    assert ends(TWO_ATOM.truncated(5), 4.45608) == 0.0
    # the 1e-8 of the sandwich is needed: here a stalled solve's bound
    # lies below the law's tail
    law, sol = _sandwich(TWO_ATOM.truncated(4), 4.4551)
    assert sol.status is Status.NUMERICAL_TROUBLE
    assert sol.objective < law == ends(TWO_ATOM.truncated(4), 4.4551)
    # a point mass at 1 has nothing above 2; its Hankel matrix is
    # singular, the law is that one atom, and the sdp agrees
    law, sol = _sandwich(MomentSequence((1.0, 1.0, 1.0)), 2.0)
    assert law == ends(MomentSequence((1.0, 1.0, 1.0)), 2.0) == 0.0
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize(
    "moments, atoms, weights",
    [
        (TWO_ATOM, [2.78569025, 4.44869396], [0.52100516, 0.47899484]),
        (THREE_ATOM, [0.6, 1.9, 3.4], [0.3, 0.45, 0.25]),
    ],
    ids=["two", "three"],
)
def test_boundary_law_is_the_few_atom_law(moments, atoms, weights):
    # from the order at which the Hankel matrix of bound_engine._radau_law
    # is singular, the law read off its leading block is the atomic law
    # itself; odd orders add an atom at 0 that carries no mass, and both
    # ends give its tail at thresholds between and beyond the atoms
    r = len(atoms)
    checked = 0
    for k in range(2 * r - 1, moments.order + 1):
        for alpha in (0.5 * (atoms[0] + atoms[-1]), 1.01 * atoms[-1]):
            scaled = np.array(moments.truncated(k).scaled(1.0 / alpha).moments)
            hankel = _hankel_matrix(tuple(scaled), k)
            if bound_engine._rank(hankel) == len(hankel):
                continue
            assert bound_engine._rank(hankel) == r
            nodes, mass = bound_engine._boundary_law(scaled, k)
            if k % 2:
                assert nodes[-1] == 0.0 and abs(mass[-1]) <= 1e-12
                nodes, mass = nodes[:-1], mass[:-1]
            np.testing.assert_allclose(alpha * nodes, atoms, rtol=1e-7)
            np.testing.assert_allclose(mass, weights, rtol=1e-7)
            tail = sum(w for x, w in zip(atoms, weights) if x >= alpha)
            lower, upper = bound_engine._law_ends(moments.truncated(k), alpha)
            assert lower == pytest.approx(tail, rel=1e-7, abs=1e-9)
            assert abs(upper - lower) <= 1e-8, (k, alpha)
            checked += 1
    # two atoms from k = 4 on, three at k = 6, at both thresholds
    assert checked == (6 if r == 2 else 2)


def test_boundary_law_that_misses_a_moment_is_refused(monkeypatch):
    # one rank too few reads a one-atom law off the leading block of the
    # two-atom Hankel matrix; it misses the moments, and the law's own
    # moment check turns it down
    rank = bound_engine._rank
    for k in (4, 5, 6):
        scaled = np.array(TWO_ATOM.truncated(k).scaled(1.0 / 4.4551).moments)
        assert bound_engine._boundary_law(scaled, k) is not None
        with monkeypatch.context() as patch:
            patch.setattr(bound_engine, "_rank", lambda hankel: rank(hankel) - 1)
            assert bound_engine._boundary_law(scaled, k) is None


@pytest.mark.parametrize(
    "error", [None, np.linalg.LinAlgError, ZeroDivisionError, ValueError]
)
def test_boundary_law_that_fails_leaves_the_ends_without_it(monkeypatch, error):
    # the two-atom law at k = 5 and alpha = 3: no order-5 rule exists but
    # the boundary law does.  A factorization that fails, a zero pivot or a
    # certificate that is not finite leaves the ends that no boundary law
    # gives: the order-4 rule's certificate above, no law's tail below
    m = TWO_ATOM.truncated(5)
    calls = []

    def boundary_law(scaled, k):
        calls.append(k)
        if error is not None:
            raise error("injected")
        return None

    monkeypatch.setattr(bound_engine, "_boundary_law", boundary_law)
    ends = (0.0, 0.47899484433293515)
    assert bound_engine._law_ends(m, 3.0) == ends
    assert bound_engine._law_ends(m, 3.0, below=0.2, above=0.2) == ends
    assert tail_lower_bound(m, 3.0) == 0.0
    assert calls == [5, 5, 5]


def test_rank_counts_the_eigenvalues_above_1e12_of_the_largest():
    for small, rank in ((5e-12, 2), (5e-13, 1), (0.0, 1), (-1e-17, 1)):
        assert bound_engine._rank(np.diag([1.0, small])) == rank, small
    # the tolerance scales with the largest diagonal entry, whatever its place
    assert bound_engine._rank(np.diag([5e-13, 1.0, 0.5])) == 2
    assert bound_engine._rank(np.zeros((2, 2))) == 0


def test_law_ends_keep_the_lower_order_ends_where_no_boundary_law_exists():
    # chi2(2) at k = 6 at the point that the tuner solves at rate 0.01:
    # the order-6 rule leaves R+ and the Hankel matrix has full rank, so
    # there is no boundary law, and the ends are those of the order-5
    # rule: its far-atom law's tail and its certificate's polished mean
    m = chi_squared_moments(2, 6)
    alpha = 12.656289602894157
    scaled = np.array(m.scaled(1.0 / alpha).moments)
    assert bound_engine._radau_law(scaled, 6) is None
    assert bound_engine._rank(_hankel_matrix(scaled, 6)) == 4
    assert bound_engine._boundary_law(scaled, 6) is None
    law = bound_engine._radau_law(scaled, 5)
    lower = bound_engine._tail(scaled, bound_engine._far_atom_law(scaled, *law))
    upper = bound_engine._polish(bound_engine._interpolant(law[0], 5), scaled[:6])[2]
    assert bound_engine._law_ends(m, alpha) == (lower, upper)
    assert 0.01 < lower <= upper < 0.01 + 1e-7


def test_boundary_law_with_no_mass_at_zero_at_an_odd_order():
    # {0.5 w.p. 3/4, 2 w.p. 1/4} has no atom at 0; at odd k the mass that
    # the law leaves there comes out of rounding a few ulps below 0, and
    # counts as none
    m = MomentSequence(tuple(0.75 * 0.5**r + 0.25 * 2.0**r for r in range(6)))
    scaled = np.array(m.scaled(1.0 / 1.25).moments)
    assert bound_engine._radau_law(scaled, 5) is None
    nodes, weights = bound_engine._boundary_law(scaled, 5)
    assert nodes[-1] == 0.0 and weights[-1] == 0.0
    lower, upper = bound_engine._law_ends(m, 1.25)
    assert lower == pytest.approx(0.25, abs=1e-15)
    assert abs(upper - lower) <= 1e-12


def test_certificate_meets_the_law_at_every_settled_point(settled_points):
    # where the order-k law is accepted, the polynomial built on its nodes
    # is a certificate before any polish and its mean is the law's tail.
    # p touches the indicator at the nodes, so both hold up to the
    # rounding of sums of |y_r| x^r, which 1e-15 times their size covers.
    # Where the order-k rule misses a moment, the tail is 0 or that of the
    # highest-order rule that fits its own moments plus a far atom, a law
    # with every moment, which no certified bound lies under
    checked = far = 0
    for seq, alpha in {(seq, alpha) for seq, alpha, _, _ in settled_points}:
        k = seq.order
        scaled = np.array(seq.scaled(1.0 / alpha).moments)
        law = bound_engine._radau_law(scaled, k)
        if law is None:
            continue
        nodes, weights = law
        tail = tail_lower_bound(seq, alpha)
        fit = (weights * nodes ** np.arange(k + 1)[:, None]).sum(axis=1)
        if not (np.abs(fit - scaled) <= 1e-10 * scaled).all():
            if tail > 0.0:
                rule = next(
                    rule
                    for j in range(k - 1, 0, -1)
                    if (rule := bound_engine._radau_law(scaled, j)) is not None
                    and bound_engine._fits(scaled[: j + 1], *rule)
                )
                nodes, weights = bound_engine._far_atom_law(scaled, *rule)
                assert bound_engine._fits(scaled, nodes, weights), (seq, alpha)
                assert tail == weights[nodes >= 1.0].sum(), (seq, alpha)
                assert tail <= solve_sdp(seq, alpha).objective, (seq, alpha)
                far += 1
            continue
        y = bound_engine._interpolant(nodes, k)
        slack = PolyBound(tuple(y), 1.0).slack()
        reach = np.abs(y) @ max(1.0, nodes.max()) ** np.arange(k + 1)
        assert slack >= -1e-15 * reach, (seq, alpha, slack)
        size = np.abs(y) @ scaled
        y[0] += max(0.0, -slack)
        mean = y @ scaled
        assert abs(mean - tail) <= 1e-10 + 1e-15 * size, (seq, alpha)
        assert bound_engine._law_ends(seq, alpha) == (tail, min(1.0, max(0.0, mean)))
        checked += 1
    # 484 of the 702 points have an accepted order-k law, and one, chi2(4)
    # at k = 5 and alpha = 4, the far-atom law
    assert checked >= 450 and far >= 1


def test_law_ends_do_not_depend_on_the_callers_error_state(settled_points):
    # each rule runs its gufuncs under numpy.linalg's own error state, and
    # nothing else on the law layer's path meets a floating-point error
    # at these points, so a caller that raises on every one gets the same
    # pair, bit for bit, as one with numpy's defaults
    def pairs(seq, alpha, rate):
        ends = (
            bound_engine._law_ends(seq, alpha, below=rate, above=rate),
            bound_engine._law_ends(seq, alpha, above=0.0),
        )
        return [x.hex() for pair in ends for x in pair]

    for seq, alpha, rate, _ in settled_points:
        with np.errstate(all="raise"):
            raised = pairs(seq, alpha, rate)
        with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):
            assert pairs(seq, alpha, rate) == raised, (seq, alpha, rate)


@given(
    atoms=st.lists(st.floats(0.1, 5.0), min_size=3, max_size=5),
    weights=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=5),
    ratio=st.floats(1.05, 4.0),
)
@settings(max_examples=40, deadline=None)
def test_certificates_always_valid(atoms, weights, ratio):
    n = min(len(atoms), len(weights))
    mom = atomic_moments(atoms[:n], weights[:n], 3)
    alpha = ratio * mom.mean
    sol = solve_sdp(mom, alpha)
    assert sol.y.is_valid()
    assert 0.0 <= sol.objective <= 1.0


def test_fallback_law_matches_the_moments():
    # where no Gauss-Radau law of order k exists, the law of order k - 1
    # with a far atom is an explicit law for all k moments
    sequences = [chi_squared_moments(p, 6) for p in (1, 2, 4)]
    sequences += [TWO_ATOM, SEQ15]
    accepted = 0
    for seq in sequences:
        for k in range(3, seq.order + 1):
            m = seq.truncated(k)
            for ratio in (1.0, 1.05, 1.3, 1.7, 2.5, 4.0, 6.0, 10.0):
                alpha = ratio * m.mean
                scaled = np.array(m.scaled(1.0 / alpha).moments)
                if bound_engine._radau_law(scaled, k) is not None:
                    continue
                law = None
                rule = bound_engine._radau_law(scaled, k - 1)
                if rule is not None:
                    law = bound_engine._far_atom_law(scaled, *rule)
                tail, _ = _sandwich(m, alpha)
                if law is None:
                    # no law an order down: the boundary law's tail, if any
                    boundary = bound_engine._boundary_law(scaled, k)
                    assert tail == bound_engine._tail(scaled, boundary), (m, alpha)
                    continue
                nodes, weights = law
                assert (nodes >= 0.0).all() and (weights >= 0.0).all(), (m, alpha)
                fit = (weights * nodes ** np.arange(k + 1)[:, None]).sum(axis=1)
                assert (np.abs(fit - scaled) <= 1e-10 * scaled).all(), (m, alpha)
                assert tail == min(1.0, weights[nodes >= 1.0].sum()), (m, alpha)
                accepted += 1
    # 28 of the 44 points without an order-k law have one an order down
    assert accepted >= 25
    # far below the mean the far atom's L^k leaves the float range: no
    # law, and no overflow
    m = chi_squared_moments(1, 5)
    scaled = np.array(m.scaled(1e51).moments)
    rule = bound_engine._radau_law(scaled, 4)
    assert bound_engine._far_atom_law(scaled, *rule) is None
    assert tail_lower_bound(m, 1e-51) == 0.0


def test_law_tail_checks_every_moment_to_relative_1e10():
    # nodes 0.5 and 2 with weights 3/4 and 1/4: every scaled moment below
    # is exact in binary, so only the offset moves the fit
    law = (np.array([0.5, 2.0]), np.array([0.75, 0.25]))
    exact = np.array([1.0, 0.875, 1.1875, 2.09375])
    assert bound_engine._tail(exact, law) == 0.25
    for r in range(1, len(exact)):
        off = exact.copy()
        off[r] *= 1.0 + 3e-10
        assert bound_engine._tail(off, law) == 0.0, r
        off[r] = exact[r] * (1.0 + 3e-11)
        assert bound_engine._tail(off, law) == 0.25, r


# the law of order 2 in the test above, with M3 raised by d: the far atom at
# 1e12 times the largest node (2) carries d and moves M2 by d / 2e12, which
# the law's check holds to 1e-10 * M2, that is d up to 237.5
_FAR_LAW = (np.array([0.5, 2.0]), np.array([0.75, 0.25]))
_FAR_MOMENTS = np.array([1.0, 0.875, 1.1875, 2.09375])


def test_far_atom_that_moves_a_lower_moment_past_1e10_gives_no_tail():
    # d = 1000 moves M2 by relative 4.2e-10; an atom 10 times farther
    # would move it by 4.2e-11 and pass
    scaled = _FAR_MOMENTS + np.array([0.0, 0.0, 0.0, 1000.0])
    law = bound_engine._far_atom_law(scaled, *_FAR_LAW)
    assert law is not None
    assert bound_engine._tail(scaled, law) == 0.0


def test_far_atom_that_moves_a_lower_moment_within_1e10_keeps_the_tail():
    # d = 100 moves M2 by relative 4.2e-11; an atom 10 times nearer would
    # move it by 4.2e-10 and fail
    scaled = _FAR_MOMENTS + np.array([0.0, 0.0, 0.0, 100.0])
    law = bound_engine._far_atom_law(scaled, *_FAR_LAW)
    assert bound_engine._tail(scaled, law) == 0.25


def test_law_ends_walk_the_rules_down_once(settled_points, monkeypatch):
    # one descent through the Gauss-Radau rules per evaluation: the orders
    # built fall strictly, so none is built twice, and the far-atom rung
    # resumes the walk where the highest rule that exists stopped it.
    # Over the tuner's own evaluation and tail_lower_bound's at every
    # settled point, the rules built number what the descent has always
    # built; a rung that restarted at order k would build more
    built = []
    radau, law_ends = bound_engine._radau_law, bound_engine._law_ends

    def counted_radau(scaled, k):
        built[-1].append(k)
        return radau(scaled, k)

    def counted_law_ends(*args, **kwargs):
        built.append([])
        return law_ends(*args, **kwargs)

    monkeypatch.setattr(bound_engine, "_radau_law", counted_radau)
    monkeypatch.setattr(bound_engine, "_law_ends", counted_law_ends)
    for seq, alpha, rate, _ in settled_points:
        bound_engine._law_ends(seq, alpha, below=rate, above=rate)
        tail_lower_bound(seq, alpha)
    assert len(built) == 2 * len(settled_points)
    for orders in built:
        assert all(a > b for a, b in zip(orders, orders[1:])), orders
    assert sum(map(len, built)) == 1948


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("rate", [0.01, 0.05, 0.2, 0.4])
def test_threshold_root_at_two_moments_is_the_closed_form(p, rate):
    # at k = 2 the mu form's root is Cantelli's threshold and the q mu
    # form's is Markov's M1 / rate; the lesser is the k = 2 closed form
    m = chi_squared_moments(p, 2)
    closed = detector_tuning.closed_form_threshold(m, rate, 2).alpha
    root = bound_engine._threshold_root(m, rate, 2.0 * m.moments[1] / rate)
    assert root == pytest.approx(closed, rel=1e-13)


# chi-squared(2) at k = 4 and rate 0.05: the k = 2 row, where the tuner
# starts the root's descent, and the root
CHI2_K2_ROW, CHI2_K4_ROOT = 10.717797887081346, 9.181835518704698


def test_threshold_root_is_the_christoffel_root_of_chi_squared_2():
    # the k = 4 threshold, where the extremal law has its top atom at the
    # root: the tuned row lies 1.2e-5 above it
    m = chi_squared_moments(2, 4)
    root = bound_engine._threshold_root(m, 0.05, CHI2_K2_ROW)
    assert root == pytest.approx(CHI2_K4_ROOT, rel=1e-14)


def test_window_around_the_root_brackets_each_tuned_row(monkeypatch):
    # the window of every bisected order of the settled-point runs, its
    # upper end a certified here by the law pair, as the row's final settle
    # would: where both ends are certified, the row lies in
    # [tau (1 - d), tau (1 + d) + eps], as the tight threshold does where
    # the root is exact; where the lower end alone is, the root is a lower
    # end of the tight threshold, another atom lying above it, and the row
    # lies above b
    monkeypatch.setattr(detector_tuning, "_AUTO_CACHE", {})
    delta, epsilon = detector_tuning._WINDOW, 1e-4
    classes = {"both": 0, "b": 0, "a": 0, "neither": 0, "no root": 0}
    for seq, rate in SETTLED_CASES:
        row = detector_tuning.tune_threshold_sdp(seq, rate, epsilon=epsilon)
        k = seq.order
        if k > 3:
            below = detector_tuning._AUTO_CACHE[seq.truncated(k - 1), rate, epsilon]
        else:
            below = detector_tuning.closed_form_threshold(seq.truncated(2), rate, 2)
        tau = bound_engine._threshold_root(seq, rate, below.alpha)
        b, a = detector_tuning._window(seq, rate, seq.moments[1], below.alpha)
        if tau is None:
            assert (b, a) == (-math.inf, math.inf)
            cls = "no root"
        else:
            tail, mean = bound_engine._law_ends(seq, a, below=rate, above=rate)
            if not (tail <= rate and mean <= rate):
                a = math.inf
            cls = {(1, 1): "both", (1, 0): "b", (0, 1): "a", (0, 0): "neither"}[
                b > -math.inf, a < math.inf
            ]
        classes[cls] += 1
        if cls == "both":
            assert tau * (1 - delta) <= row.alpha <= tau * (1 + delta) + epsilon
        if cls == "b":
            assert row.alpha > b
        if cls in ("both", "b"):
            assert tau < row.alpha + epsilon
    assert classes == {"both": 23, "b": 16, "a": 0, "neither": 0, "no root": 3}


# the three-atom sequence `atomic1_n3` of perfbench's tune-sweep inputs at
# seed 6, to six moments.  Its H has an eigenvalue of -3.0e-13 and still a
# Cholesky factor, where THREE_ATOM's (-3.9e-14) has none
THREE_ATOM_SEED6 = MomentSequence(
    (
        1.0,
        4.408832530729725,
        19.46804719002841,
        86.06743048859636,
        380.8502097404384,
        1686.472478971184,
        7472.176521915839,
    )
)


@pytest.mark.parametrize(
    "moments",
    [TWO_ATOM.truncated(4), TWO_ATOM.truncated(5), TWO_ATOM, THREE_ATOM,
     THREE_ATOM_SEED6, MomentSequence((1.0, 1.0, 0.5, 0.3))],
    ids=["two_atom_k4", "two_atom_k5", "two_atom_k6", "three_atom_k6",
         "three_atom_seed6_k6", "infeasible"],
)
@pytest.mark.parametrize("rate", [0.01, 0.05, 0.2])
def test_threshold_root_is_none_without_a_warning_off_full_rank(moments, rate):
    # a Hankel matrix of less than full numerical rank has no root: the
    # few-atom sequences on the boundary of the moment cone, and the
    # infeasible (1, 1, 0.5, 0.3), whose H has a negative eigenvalue.  On
    # the seed-6 sequence the rank alone decides: its Cholesky succeeds, and
    # a window around its root at rate 0.05 certifies the point 4.4582966
    # below the rate where the bisection that settles every point finds
    # 4.4583319 above it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = moments.moments[1] / rate
        assert bound_engine._threshold_root(moments, rate, start) is None


@pytest.mark.parametrize("k, alpha", [(2, 0.01), (6, 1e-20), (6, 1e-50)])
def test_overflowing_solve_returns_its_result_under_error_filters(k, alpha):
    # these solves overflow inside the IPM iteration, whose non-finite
    # iterate check and stall rule end the run; an error filter for
    # warnings must not turn the overflow into an exception
    moments = chi_squared_moments(2, k)
    plain = solve_sdp(moments, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = solve_sdp(moments, alpha)
    assert (strict.objective, strict.status) == (plain.objective, plain.status)


def test_threshold_root_is_none_where_a_factor_fails(monkeypatch):
    # both Hankel matrices of chi-squared(2) at k = 4 have full numerical
    # rank, so no input fails their factors; a factor that raises stands in
    m = chi_squared_moments(2, 4)
    assert bound_engine._threshold_root(m, 0.05, CHI2_K2_ROW) is not None

    def fail(hankel):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(bound_engine, "_cholesky", fail)
    assert bound_engine._threshold_root(m, 0.05, CHI2_K2_ROW) is None


@pytest.mark.parametrize("start", [-1e3, 0.0, math.inf, math.nan])
def test_threshold_root_is_none_off_the_convex_branch(start):
    # Newton descends to the largest root from above it, where the
    # Christoffel sum rises; from the left of its minimum the slope is not
    # positive, and from inf or nan the value is not finite
    m = chi_squared_moments(2, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bound_engine._threshold_root(m, 0.05, start) is None


def test_threshold_root_is_none_where_64_steps_do_not_converge():
    # on the degree-4 sum of the mu form a Newton step far above the root
    # takes off about a quarter of alpha: from 1e60, 64 steps leave it
    # near 1e52.  From 1e3 the same descent converges
    m = chi_squared_moments(2, 4)
    assert bound_engine._threshold_root(m, 0.05, 1e60) is None
    root = bound_engine._threshold_root(m, 0.05, 1e3)
    assert root == pytest.approx(CHI2_K4_ROOT, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_polish_rejects_a_certificate_that_is_not_finite(bad):
    # a solve that diverges could hand one back; no tuning input does
    scaled = np.array(chi_squared_moments(2, 4).scaled(1.0 / 9.0).moments)
    with pytest.raises(ValueError, match="coefficients must be finite"):
        bound_engine._polish([0.1, bad, 0.0, 0.0, 0.01], scaled)
