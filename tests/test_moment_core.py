import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drdetect import (
    MomentSequence,
    NoiseFamily,
    NoiseModel,
    benchmark_system,
    chi_squared_moments,
    closed_form_threshold,
    estimate_moments,
    is_feasible,
    reach_bound,
    simulate,
)
from drdetect.moment_core import _PowerSums, hankel_pair

from conftest import atomic_moments


def _exact_sum(values):
    sums = _PowerSums(1)
    sums.add(values)
    return sums.sums()[0]


def test_point_mass_is_feasible():
    assert is_feasible(MomentSequence((1.0, 1.0, 1.0)))


def test_negative_variance_is_infeasible():
    assert not is_feasible(MomentSequence((1.0, 1.0, 0.5)))


def test_feasibility_tolerance_on_the_odd_hankel_matrix():
    # (M1, M2, M3) = (1, 1, 1 - d): the odd Hankel matrix [[1, 1], [1, 1 - d]]
    # has least eigenvalue about -d / 2, against the tolerance -1e-9
    assert not is_feasible(MomentSequence((1.0, 1.0, 1.0, 1.0 - 1e-8)))
    assert is_feasible(MomentSequence((1.0, 1.0, 1.0, 1.0 - 1.5e-9)))


def test_chi_squared_sequence_is_feasible():
    assert is_feasible(MomentSequence((1.0, 2.0, 8.0, 48.0, 384.0)))


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
    with pytest.raises(ValueError, match="samples must be one-dimensional"):
        estimate_moments(np.ones((2, 2)), 2)


def test_estimate_moments_rejects_a_non_integer_order():
    with pytest.raises(ValueError, match="moment order k must be an integer"):
        estimate_moments([1.0, 2.0], 2.5)
    assert estimate_moments([0.0, 4.0], np.int64(2)).moments == (1.0, 2.0, 8.0)


# each count with its name in the error and a value it accepts
_COUNT_SITES = {
    "reach_bound t": ("horizon t", 3, lambda n: reach_bound(benchmark_system(), 1.0, 1.0, n, 16)),
    "reach_bound n_dirs": ("n_dirs", 16, lambda n: reach_bound(benchmark_system(), 1.0, 1.0, 3, n)),
    "simulate T": ("simulation length T", 2, lambda n: simulate(*_noises(), n, burn_in=0)),
    "simulate burn_in": ("burn-in", 1, lambda n: simulate(*_noises(), 1, burn_in=n)),
    "sample": ("sample size", 2, lambda n: _noises()[1].sample(n)),
    "estimate_moments": ("moment order k", 2, lambda n: estimate_moments([1.0, 2.0], n)),
    "truncated": ("order", 2, lambda n: chi_squared_moments(2, 4).truncated(n)),
    "chi_squared_moments": ("moment order k", 2, lambda n: chi_squared_moments(2, n)),
    "closed_form_threshold": (
        "moment order k",
        1,
        lambda n: closed_form_threshold(chi_squared_moments(2, 2), 0.05, n),
    ),
}


def _noises():
    sys_ = benchmark_system()
    return (
        sys_,
        NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_w, 1),
        NoiseModel(NoiseFamily.GAUSSIAN, sys_.sigma_v, 2),
    )


@pytest.mark.parametrize("value", [True, False, 1.0, 2.5, "2", None], ids=repr)
@pytest.mark.parametrize("site", list(_COUNT_SITES))
def test_every_count_takes_an_int_or_a_numpy_integer_and_not_a_bool(site, value):
    # one rule at every count: a bool, a float of any value or another type
    # raises ValueError naming the count, and a numpy integer counts as its
    # int; sample(True) drew one row, truncated(2.0) raised TypeError and
    # closed_form_threshold(m, 0.05, 1.0) returned a row
    name, valid, call = _COUNT_SITES[site]
    with pytest.raises(ValueError, match=f"^{name} must be an integer$"):
        call(value)
    call(np.int64(valid))


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
    with pytest.raises(ValueError, match="moment order must be at least 1"):
        chi_squared_moments(2, 0)


def test_mean_and_variance_views():
    m = MomentSequence((1.0, 2.0, 8.0))
    assert m.mean == 2.0
    assert m.variance == 4.0
    with pytest.raises(ValueError, match="variance needs moments up to order 2"):
        MomentSequence((1.0, 2.0)).variance


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


def test_exact_sum_across_chunks():
    # the exact totals carried over 64-value pieces round to fsum's bits,
    # power by power, and give estimate_moments' moments
    rng = np.random.default_rng(5)
    values = rng.exponential(size=1001) ** 4 * 10.0 ** rng.integers(-30, 30, 1001)
    sums = _PowerSums(4)
    for start in range(0, values.size, 64):
        sums.add(values[start : start + 64])
    power = np.ones_like(values)
    for got in sums.sums():
        power = power * values
        assert got.hex() == math.fsum(power).hex()
    assert sums.moments().moments == estimate_moments(values, 4).moments


def test_estimate_moments_errors_on_non_finite_sums():
    with pytest.raises(ValueError):
        estimate_moments([1.0, np.nan], 2)
    with pytest.raises(ValueError):
        estimate_moments([1.0, np.inf], 2)
    # finite samples whose sum is too large for a float
    with pytest.raises(OverflowError):
        estimate_moments([1e308, 1e308], 1)


def _fraction_sums(pieces, k):
    """What _PowerSums gives for these pieces, from an exact rational sum
    of the float powers x, x*x, ... of each sample: each sum rounded once,
    or the error that it raises."""
    totals = [Fraction(0)] * k
    for piece in pieces:
        samples = piece.tolist()
        if any(x < 0.0 for x in samples):
            return "negative sample"
        powers = [1.0] * len(samples)
        for r in range(k):
            powers = [p * x for p, x in zip(powers, samples)]
            if not all(map(math.isfinite, powers)):
                return "all moments must be finite"
            totals[r] += sum(map(Fraction, powers))
    try:
        return [float(total).hex() for total in totals]
    except OverflowError:
        return "OverflowError"


def _power_sums(pieces, k):
    sums = _PowerSums(k)
    try:
        for piece in pieces:
            sums.add(piece)
        return [total.hex() for total in sums.sums()]
    except ValueError as exc:
        return str(exc).split(":")[0]
    except OverflowError:
        return "OverflowError"


def test_power_sums_equal_an_exact_rational_sum():
    # pieces that reach every branch: heavy tails, subnormal powers, signed
    # zeros (an odd power of -0.0 is -0.0), 4096 samples in one binade,
    # whose sums need more than 53 bits, sums past the float range, and
    # samples that are NaN, infinite or negative
    rng = np.random.default_rng(43)
    pieces = {
        "heavy": rng.standard_cauchy(1024) ** 2,
        "subnormal": rng.uniform(0.0, 1.0, 500) * 2.0 ** rng.integers(-1074, -1000, 500),
        "zeros": np.array([0.0, -0.0, -0.0, 1.5, 0.0, -0.0]),
        "binade": 1.0 + rng.random(4096),
        "huge": np.array([1e308, 1.5e308]),
        "nan": np.array([1.0, math.nan]),
        "inf": np.array([2.0, math.inf, 3.0]),
        "negative": np.array([1.0, -5e-324]),
    }
    checked = set()
    for names in [
        ["heavy"],
        ["binade"],
        ["subnormal", "zeros"],
        ["zeros"],
        ["binade", "heavy", "binade"],
        ["huge"],
        ["binade", "nan"],
        ["inf"],
        ["zeros", "negative"],
    ]:
        for k in range(1, 5):
            chosen = [pieces[name] for name in names]
            with np.errstate(over="ignore"):
                got = _power_sums(chosen, k)
                want = _fraction_sums(chosen, k)
            assert got == want, (names, k)
            checked.add(got if isinstance(got, str) else "sums")
    assert checked == {
        "sums",
        "OverflowError",
        "all moments must be finite",
        "negative sample",
    }
