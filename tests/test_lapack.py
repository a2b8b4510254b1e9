import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from drdetect import _lapack, chi_squared_threshold, detector_tuning
from drdetect._lapack import _cholesky, _eigh, _eigvals, _eigvalsh, _solve, _solve1

from conftest import _random_pd, _random_sym

ROOT = Path(__file__).resolve().parents[1]
LAPACK = ("trtrs", "getrf", "getrs", "tbtrs")
MODULES = ("scipy.linalg._flapack", "scipy.special._special_ufuncs")
RATES = (0.01, 0.05, 0.2)
THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _public():
    # imported here, after drdetect, so that drdetect loads the extension
    # modules by path when this file runs alone
    import scipy.linalg
    import scipy.special

    lapack = scipy.linalg.get_lapack_funcs(LAPACK, dtype=np.float64)
    return (*lapack, scipy.special.gammaincinv)


def test_routines_are_scipys_own():
    import scipy.special

    bound = tuple(getattr(_lapack, name) for name in (*LAPACK, "gammaincinv"))
    for mine, public in zip(bound, _public(), strict=True):
        assert mine is public
    for p in range(1, 9):
        for rate in RATES:
            expected = 2 * scipy.special.gammaincinv(p / 2, 1 - rate)
            assert chi_squared_threshold(p, rate) == expected


def _run(code, **env_vars):
    """Run `code` in a fresh interpreter that imports drdetect from src/,
    with `env_vars` set and no BLAS thread variable besides; its stdout as
    JSON."""
    env = {k: v for k, v in os.environ.items() if k not in THREADS}
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env | env_vars,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs one thread")
def test_scipy_blas_loads_single_threaded_unless_a_count_is_set():
    # dlsym on _flapack's handle searches the libraries it links, which
    # is scipy's own OpenBLAS where scipy bundles one
    code = (
        "import ctypes, json, os\n"
        "from drdetect import _lapack\n"
        "lib = ctypes.CDLL(_lapack._locate('scipy.linalg._flapack').origin)\n"
        "get = getattr(lib, 'scipy_openblas_get_num_threads', None)\n"
        "print(json.dumps([get and get(), os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )
    threads, left = _run(code)
    if threads is None:
        pytest.skip("scipy links a BLAS other than its own OpenBLAS")
    # the worker thread would spin beside the simulation's threads, and
    # the variable is gone from the environment again
    assert (threads, left) == (1, None)
    assert _run(code, OPENBLAS_NUM_THREADS="2") == [min(2, os.cpu_count()), "2"]


def test_import_loads_no_scipy_package():
    code = (
        "import json, sys\n"
        "import drdetect\n"
        "drdetect.chi_squared_threshold(2, 0.05)\n"
        "loaded = sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')\n"
        "import scipy.linalg\n"
        "same = scipy.linalg._flapack is sys.modules['scipy.linalg._flapack']\n"
        "print(json.dumps([loaded, same]))\n"
    )
    loaded, same = _run(code)
    assert loaded == []
    assert same


@pytest.mark.parametrize("missing", [MODULES, MODULES[:1], MODULES[1:]])
def test_missing_file_falls_back_to_the_public_routines(monkeypatch, missing):
    before = {(p, r): chi_squared_threshold(p, r) for p in range(1, 9) for r in RATES}
    public = _public()
    # scipy is imported by now, so hide its extension modules as well
    for name in missing:
        monkeypatch.delitem(sys.modules, name, raising=False)
    locate = _lapack._locate
    monkeypatch.setattr(
        _lapack, "_locate", lambda name: None if name in missing else locate(name)
    )
    assert all(_lapack._load(name) is None for name in missing)
    bound = _lapack._bind()
    for mine, theirs in zip(bound, public, strict=True):
        assert mine is theirs
    monkeypatch.setattr(detector_tuning, "_gammaincinv", bound[-1])
    assert {key: chi_squared_threshold(*key) for key in before} == before


def _same_bits(ours, public):
    ours, public = np.asarray(ours), np.asarray(public)
    return (ours.dtype, ours.shape, ours.tobytes()) == (
        public.dtype,
        public.shape,
        public.tobytes(),
    )


@pytest.mark.parametrize("n", range(1, 8))
def test_gufunc_calls_give_the_bits_of_numpy_linalg(n):
    # one matrix and the stacks of 2 and 4 blocks that the solver factors
    rng = np.random.default_rng(700 + n)
    for _ in range(10):
        for shape in ((), (2,), (4,)):
            count = int(np.prod(shape))
            pds = np.stack([_random_pd(rng, n) for _ in range(count)]).reshape(
                shape + (n, n)
            )
            syms = np.stack([_random_sym(rng, n) for _ in range(count)]).reshape(
                shape + (n, n)
            )
            rhs = rng.standard_normal(shape + (n, n + 1))
            vals, vecs = _eigh(syms)
            public = np.linalg.eigh(syms)
            assert _same_bits(vals, public.eigenvalues)
            assert _same_bits(vecs, public.eigenvectors)
            assert _same_bits(_eigvalsh(syms), np.linalg.eigvalsh(syms))
            assert _same_bits(_cholesky(pds), np.linalg.cholesky(pds))
            assert _same_bits(_solve(pds, rhs), np.linalg.solve(pds, rhs))
        general, vec = rng.standard_normal((n, n)), rng.standard_normal(n)
        assert _same_bits(_solve1(general, vec), np.linalg.solve(general, vec))
        # numpy returns the real parts alone where no eigenvalue is complex
        ours, public = _eigvals(general), np.linalg.eigvals(general)
        assert _same_bits(ours.real, public.real)
        assert _same_bits(ours.imag, np.imag(public).astype(float))


def test_gufunc_failures_raise_linalg_error_without_a_warning():
    # without numpy.linalg's error state the gufunc would only warn and
    # return NaN
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _cholesky(indefinite)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _cholesky(np.stack([np.eye(2), indefinite]))
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            _solve1(singular, np.ones(2))
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            _solve(singular, np.ones((2, 3)))
