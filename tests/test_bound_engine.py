import math

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
from drdetect import bound_engine, ipm
from drdetect.ipm import Status, svec

from conftest import SEQ15, TWO_ATOM, atomic_moments, random_moments

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
    with pytest.raises(ValueError):
        chebyshev_bound(MomentSequence((1.0, 1.0, 0.5)), 2.0)
    with pytest.raises(ValueError):
        chebyshev_bound(MomentSequence((1.0, 2.0)), 3.0)


def test_poly_bound_evaluation_and_validity():
    # p(q) = q/alpha certifies the Markov bound
    p = PolyBound((0.0, 0.25), 4.0)
    assert p(4.0) == pytest.approx(1.0)
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
    original = np.polynomial.polynomial.polyroots

    def counted(c):
        calls.append(len(c))
        return original(c)

    monkeypatch.setattr(np.polynomial.polynomial, "polyroots", counted)
    solve_sdp(CHI2, 9.1315)
    assert len(calls) == 1


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
    # the upper atom 4.44869396 lies below the threshold: the true tail is
    # 0, and the law found in rounding carries no more than 1e-8
    assert 0.0 <= tail_lower_bound(TWO_ATOM.truncated(4), 4.45608) < 1e-8
    # five moments of two atoms: the Hankel matrix is singular, no law
    assert tail_lower_bound(TWO_ATOM.truncated(5), 4.45608) == 0.0
    # the 1e-8 of the sandwich is needed: here a stalled solve's bound
    # lies below the law's tail
    law, sol = _sandwich(TWO_ATOM.truncated(4), 4.4551)
    assert sol.status is Status.NUMERICAL_TROUBLE
    assert sol.objective < law
    # a point mass at 1 has nothing above 2; its Hankel matrix is
    # singular, so there is no law, and the sdp agrees
    law, sol = _sandwich(MomentSequence((1.0, 1.0, 1.0)), 2.0)
    assert law == 0.0
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_certificate_meets_the_law_at_every_settled_point(settled_points):
    # where the order-k law is accepted, the polynomial built on its nodes
    # is a certificate before any polish and its mean is the law's tail.
    # p touches the indicator at the nodes, so both hold up to the
    # rounding of sums of |y_r| x^r, which 1e-15 times their size covers
    checked = 0
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
            assert tail == 0.0
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
    # 484 of the 702 points have an accepted order-k law
    assert checked >= 450


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
                    assert tail == 0.0, (m, alpha)
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
