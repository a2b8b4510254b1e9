"""Shared fixtures, random-instance helpers, and the acceptance-criteria
report printed after every run."""
import numpy as np
import pytest

from drdetect import MomentSequence, chi_squared_moments

# ---------------------------------------------------------------------------
# acceptance criteria bookkeeping: tests register one line per criterion and
# the summary hook prints them all, pass or fail, at the end of the run.

_CRITERION_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_criterion(number: int, label: str, passed: bool, detail: str = ""):
    _CRITERION_RESULTS[number] = (label, bool(passed), detail)


def check_criterion(number: int, label: str, passed, detail: str = ""):
    """Record the outcome first so a failing assert still reports."""
    record_criterion(number, label, bool(passed), detail)
    assert passed, f"criterion {number} [{label}]: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERION_RESULTS):
        label, passed, detail = _CRITERION_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} [{verdict}] {label}"
        if detail:
            line += f" — {detail}"
        terminalreporter.write_line(line)


# ---------------------------------------------------------------------------
# random feasible moment sequences (finite atomic measures on R+ are always
# feasible, and their moments are exact to rounding)


def atomic_moments(atoms, weights, k) -> MomentSequence:
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    vals = [1.0] + [float(np.sum(weights * atoms**r)) for r in range(1, k + 1)]
    return MomentSequence(tuple(vals))


def random_moments(rng, k, n_atoms=None, lo=0.0, hi=5.0) -> MomentSequence:
    """Random (k+1)-atom measure on [lo, hi] with a nondegenerate mean."""
    n_atoms = (k + 1) if n_atoms is None else n_atoms
    while True:
        atoms = np.sort(rng.uniform(lo, hi, size=n_atoms))
        weights = rng.dirichlet(np.ones(n_atoms))
        mom = atomic_moments(atoms, weights, k)
        if mom.mean > 1e-2:
            return mom


def random_tail_instance(rng, k):
    """(moments, alpha) pair of a random (k+1)-atom law on [0, 5] and a
    threshold 1.1 to 3 times its mean, with every atom at most 10 alpha."""
    while True:
        atoms = np.sort(rng.uniform(0.0, 5.0, size=k + 1))
        weights = rng.dirichlet(np.ones(k + 1))
        mu = float(np.sum(weights * atoms))
        if mu <= 1e-3:
            continue
        alpha = float(rng.uniform(1.1, 3.0)) * mu
        if atoms[-1] <= 10.0 * alpha:
            return atomic_moments(atoms, weights, k), alpha


# ---------------------------------------------------------------------------
# fixed sequences on which the solver stalls or the Hankel matrices are
# singular

# random sequence #15 of acceptance criterion 2
SEQ15 = MomentSequence(
    (1.0, 3.487611887071376, 12.299231159213063, 43.845740550478375, 157.93227600190306)
)
# the law with weights (0.52100516, 0.47899484) on the atoms
# (2.78569025, 4.44869396), to six moments
TWO_ATOM = MomentSequence(
    (
        1.0,
        3.5822604519964583,
        13.522765056656262,
        53.43505838543608,
        218.98639668102658,
        922.0279696057548,
        3956.4755026157186,
    )
)
# three atoms, on the boundary of the moment cone at six moments
THREE_ATOM = atomic_moments([0.6, 1.9, 3.4], [0.3, 0.45, 0.25], 6)


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


# ---------------------------------------------------------------------------
# the bisection points of a fixed set of tuning runs, for the tests that hold
# the point rule of `detector_tuning._settle` to the SDP and to the law


# (moments, rate) of the tuning runs of `settled_points`
SETTLED_CASES = [
    (chi_squared_moments(p, 6).truncated(k), rate)
    for p in (1, 2, 4)
    for rate in (0.01, 0.05, 0.2)
    for k in range(3, 7)
]
SETTLED_CASES += [(TWO_ATOM.truncated(k), 0.2) for k in range(3, 7)]
SETTLED_CASES += [(SEQ15.truncated(k), 0.05) for k in (3, 4)]


@pytest.fixture(scope="session")
def settled_points():
    """(moments, alpha, rate, (above, bound, certified)) for every point
    that bisection settles while tuning chi-squared(1, 2, 4) at rates 0.01,
    0.05 and 0.2, the two-atom law at 0.2 and sequence #15 at 0.05, each
    at k = 3 and up, from an empty memo.  The root of
    `bound_engine._threshold_root` is taken away, so its window settles no
    point and every point goes through `_settle`."""
    from drdetect import detector_tuning

    points = []
    original = detector_tuning._settle

    def logged(moments, alpha, rate):
        result = original(moments, alpha, rate)
        points.append((moments, alpha, rate, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detector_tuning, "_AUTO_CACHE", {})
        mp.setattr(detector_tuning, "_settle", logged)
        mp.setattr(detector_tuning, "_threshold_root", lambda *args: None)
        for moments, rate in SETTLED_CASES:
            detector_tuning.tune_threshold_sdp(moments, rate, epsilon=1e-4)
    return points


# ---------------------------------------------------------------------------
# random symmetric and positive definite matrices for the solver's kernels


def _random_sym(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * (m + m.T) / 2.0


def _random_pd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T + 0.1 * np.eye(n)
