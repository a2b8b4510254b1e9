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
    oracle_worst_case,
    solve_sdp,
)
from drdetect import bound_engine
from drdetect.ipm import Status, svec

from conftest import atomic_moments, random_oracle_instance

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
    falls = np.polynomial.polynomial.polymul((-1.0, 1.0), (300.0, -1.0))
    falls = PolyBound(np.polynomial.polynomial.polyadd((1.0,), 1e-3 * falls), 1.0)
    assert falls.min_over(1.0, 100.0) >= 1.0 and falls.min_over(0.0, 1.0) >= 0.0
    assert falls(400.0) < 1.0
    assert not falls.is_valid()
    # ... one by an interior dip, 1 + (q-1)((q-200)^2 - 100)/1e5
    well = np.polynomial.polynomial.polymul(
        (-1.0, 1.0), (200.0**2 - 100.0, -400.0, 1.0)
    )
    well = PolyBound(np.polynomial.polynomial.polyadd((1.0,), 1e-5 * well), 1.0)
    assert well.min_over(1.0, 100.0) >= 1.0 and well.min_over(0.0, 1.0) >= 0.0
    assert well(200.0) < 1.0
    assert not well.is_valid()


def test_stalled_solve_stops_early_with_a_certified_bound():
    # chi-squared(1) at its mean with five moments: the IPM stalls, and
    # ran to its iteration limit before stalls were cut short
    sol = solve_sdp(chi_squared_moments(1, 5), 1.0)
    assert sol.status == Status.NUMERICAL_TROUBLE
    assert sol.iterations <= 40
    assert sol.y.is_valid()
    assert 0.0 <= sol.objective <= 1.0


def test_poly_bound_min_over_finds_interior_dip():
    # p(q) = (q-1)^2 = 1 - 2q + q^2 has its minimum 0 at q=1
    p = PolyBound((1.0, -2.0, 1.0), 2.0)
    assert p.min_over(0.0, 2.0) == pytest.approx(0.0, abs=1e-12)


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
    # 4k + 2 rows and blocks of size k + 1 at k = 1
    assert prob.b.shape == (6,)
    assert prob.block_sizes == (2, 2)
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


def test_build_sdp_block_sizes_k4():
    prob = build_sdp(CHI2.scaled(1.0 / 9.0))
    assert prob.block_sizes == (5, 5)
    assert prob.b.shape == (18,)  # 4k + 2 rows
    # in threshold units the rows are integers that depend on k alone
    np.testing.assert_array_equal(prob.a_free, np.round(prob.a_free))
    other = build_sdp(chi_squared_moments(5, 4))
    np.testing.assert_array_equal(prob.a_free, other.a_free)
    for mine, theirs in zip(prob.a_blocks, other.a_blocks):
        np.testing.assert_array_equal(mine, theirs)
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


def test_oracle_markov_two_point():
    m = MomentSequence((1.0, 2.0))
    assert oracle_worst_case(m, 4.0, grid=1000) == pytest.approx(0.5, abs=0.01)


def test_oracle_point_mass():
    m = MomentSequence((1.0, 1.0, 1.0))
    assert oracle_worst_case(m, 2.0) == pytest.approx(0.0, abs=1e-9)


def test_oracle_chebyshev_cross_check():
    m = CHI2.truncated(2)
    val = oracle_worst_case(m, 10.717797887081348)
    assert val == pytest.approx(0.05, abs=0.005)


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        oracle_worst_case(chi_squared_moments(2, 5), 3.0)
    with pytest.raises(ValueError):
        oracle_worst_case(CHI2, 3.0, grid=50)
    with pytest.raises(ValueError):
        oracle_worst_case(CHI2, -1.0)


def test_oracle_never_exceeds_sdp(rng):
    for _ in range(10):
        k = int(rng.integers(1, 5))
        mom, alpha = random_oracle_instance(rng, k)
        sdp = solve_sdp(mom, alpha).objective
        lower = oracle_worst_case(mom, alpha, grid=2000)
        assert lower <= sdp + 1e-3


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
