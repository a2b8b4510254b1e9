"""Shared fixtures, random-instance helpers, and the acceptance-criteria
report printed after every run."""
import numpy as np
import pytest

from drdetect import MomentSequence

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


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
