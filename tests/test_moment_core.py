import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drdetect import MomentSequence, chi_squared_moments, estimate_moments, is_feasible
from drdetect import moment_core
from drdetect.moment_core import _exact_sum, hankel_pair

from conftest import atomic_moments


def test_point_mass_is_feasible():
    assert is_feasible(MomentSequence((1.0, 1.0, 1.0)))


def test_negative_variance_is_infeasible():
    assert not is_feasible(MomentSequence((1.0, 1.0, 0.5)))


def test_chi_squared_sequence_is_feasible():
    assert is_feasible(MomentSequence((1.0, 2.0, 8.0, 48.0, 384.0)))


def test_feasibility_is_tested_once_per_sequence(monkeypatch):
    # tuning asks before every bisection step; the Hankel test runs once
    tested = []

    def counted(seq):
        tested.append(seq)
        return hankel_pair(seq)

    monkeypatch.setattr(moment_core, "hankel_pair", counted)
    seq = MomentSequence((1.0, 1.0, 0.5))
    assert [is_feasible(seq) for _ in range(3)] == [False] * 3
    assert len(tested) == 1
    assert is_feasible(MomentSequence((1.0, 2.0, 8.0)))
    assert len(tested) == 2


def test_validation_rejects_bad_sequences():
    with pytest.raises(ValueError):
        MomentSequence((0.9999999999999999, 2.0))
    with pytest.raises(ValueError):
        MomentSequence((1.0,))
    with pytest.raises(ValueError):
        MomentSequence((1.0, float("nan")))
    with pytest.raises(ValueError):
        MomentSequence((1.0, float("inf"), 4.0))


def test_hankel_pair_small_orders():
    m = MomentSequence((1.0, 2.0, 8.0))
    r_even, r_odd = hankel_pair(m)
    np.testing.assert_array_equal(r_even, [[1.0, 2.0], [2.0, 8.0]])
    np.testing.assert_array_equal(r_odd, [[2.0]])

    m3 = MomentSequence((1.0, 2.0, 8.0, 48.0))
    r_even3, r_odd3 = hankel_pair(m3)
    # k = 3: largest matrix collects odd-shifted entries
    np.testing.assert_array_equal(r_odd3, [[2.0, 8.0], [8.0, 48.0]])
    np.testing.assert_array_equal(r_even3, [[1.0, 2.0], [2.0, 8.0]])


def test_hankel_even_block_is_exactly_symmetric():
    m = chi_squared_moments(3, 6)
    r_even, r_odd = hankel_pair(m)
    assert np.array_equal(r_even, r_even.T)
    assert np.array_equal(r_odd, r_odd.T)


def test_estimate_moments_constant_samples():
    m = estimate_moments([2.0, 2.0, 2.0], 2)
    assert m.moments == (1.0, 2.0, 4.0)


def test_estimate_moments_two_point():
    m = estimate_moments([0.0, 4.0], 2)
    assert m.moments == (1.0, 2.0, 8.0)


def test_estimate_moments_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_moments([], 2)
    with pytest.raises(ValueError):
        estimate_moments([1.0, -0.5], 2)
    with pytest.raises(ValueError):
        estimate_moments([1.0, 2.0], 0)


def test_estimate_moments_chi_squared_monte_carlo():
    rng = np.random.default_rng(1)
    samples = rng.chisquare(2, size=1_000_000)
    m = estimate_moments(samples, 4)
    exact = chi_squared_moments(2, 4)
    assert is_feasible(m)
    # Monte-Carlo noise on the fourth moment dominates the error budget
    assert m.moments[4] == pytest.approx(exact.moments[4], rel=0.02)
    assert m.moments[1] == pytest.approx(2.0, rel=0.005)


def test_chi_squared_moments_values():
    assert chi_squared_moments(2, 1).moments == (1.0, 2.0)
    assert chi_squared_moments(2, 2).moments == (1.0, 2.0, 8.0)
    assert chi_squared_moments(2, 4).moments == (1.0, 2.0, 8.0, 48.0, 384.0)
    assert chi_squared_moments(4, 2).moments == (1.0, 4.0, 24.0)
    with pytest.raises(ValueError):
        chi_squared_moments(0, 2)


def test_mean_and_variance_views():
    m = MomentSequence((1.0, 2.0, 8.0))
    assert m.mean == 2.0
    assert m.variance == 4.0


def test_truncated_and_scaled():
    m = chi_squared_moments(2, 4)
    t = m.truncated(2)
    assert t.moments == (1.0, 2.0, 8.0)
    s = m.scaled(0.5)
    assert s.moments == (1.0, 1.0, 2.0, 6.0, 24.0)
    with pytest.raises(ValueError):
        m.truncated(0)
    with pytest.raises(ValueError):
        m.scaled(-1.0)


atoms_strategy = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    min_size=2,
    max_size=6,
)
weights_strategy = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    min_size=2,
    max_size=6,
)


@given(atoms=atoms_strategy, weights=weights_strategy, k=st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_atomic_measures_are_feasible(atoms, weights, k):
    n = min(len(atoms), len(weights))
    m = atomic_moments(atoms[:n], weights[:n], k)
    assert is_feasible(m)


@given(atoms=atoms_strategy, weights=weights_strategy, k=st.integers(2, 5))
@settings(max_examples=150, deadline=None)
def test_truncation_preserves_feasibility(atoms, weights, k):
    n = min(len(atoms), len(weights))
    m = atomic_moments(atoms[:n], weights[:n], k)
    for j in range(1, k):
        assert is_feasible(m.truncated(j))


@given(
    atoms=atoms_strategy,
    weights=weights_strategy,
    k=st.integers(1, 5),
    c=st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=150, deadline=None)
def test_scaling_covariance(atoms, weights, k, c):
    n = min(len(atoms), len(weights))
    m = atomic_moments(atoms[:n], weights[:n], k)
    s = m.scaled(c)
    for r in range(k + 1):
        assert s.moments[r] == pytest.approx(m.moments[r] * c**r, rel=1e-12)
    assert is_feasible(s)


@given(samples=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_empirical_closure(samples):
    m = estimate_moments(samples, 4)
    assert is_feasible(m)


def test_estimation_matches_fsum():
    # correctly rounded sums: the estimate does not depend on sample order
    rng = np.random.default_rng(3)
    samples = rng.chisquare(2, size=10_001)
    a = estimate_moments(samples, 4)
    b = estimate_moments(samples[::-1], 4)
    assert a.moments == b.moments
    assert a.moments[2] == pytest.approx(math.fsum(samples**2) / samples.size, abs=0.0)


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=300, deadline=None)
def test_exact_sum_matches_fsum(values):
    got = _exact_sum(np.array(values))
    assert type(got) is float
    assert got.hex() == math.fsum(values).hex()


@given(
    base=st.floats(min_value=2.0**-1022, max_value=1e300),
    pieces=st.sampled_from([1, 2, 4]),
    nudge=st.sampled_from([0.0, 5e-324]),
)
@settings(max_examples=200, deadline=None)
def test_exact_sum_rounds_ties_like_fsum(base, pieces, nudge):
    # base plus half an ulp is a tie, rounded to even; a subnormal nudge
    # breaks it upwards
    values = [base] + [math.ulp(base) / 2 / pieces] * pieces + [nudge]
    assert _exact_sum(np.array(values)).hex() == math.fsum(values).hex()


def test_exact_sum_across_chunks(monkeypatch):
    rng = np.random.default_rng(5)
    values = rng.exponential(size=1001) ** 4 * 10.0 ** rng.integers(-30, 30, 1001)
    want = math.fsum(values)
    reference = estimate_moments(values, 4)
    monkeypatch.setattr(moment_core, "_SUM_CHUNK", 64)
    assert _exact_sum(values).hex() == want.hex()
    assert estimate_moments(values, 4).moments == reference.moments


def test_estimate_moments_errors_on_non_finite_sums():
    with pytest.raises(ValueError):
        estimate_moments([1.0, np.nan], 2)
    with pytest.raises(ValueError):
        estimate_moments([1.0, np.inf], 2)
    # finite samples whose sum is too large for a float
    with pytest.raises(OverflowError):
        estimate_moments([1e308, 1e308], 1)
