"""The compiled routines drdetect calls besides numpy's array operations:
scipy's float64 LAPACK wrappers and ``gammaincinv``, and numpy.linalg's
LAPACK gufuncs, each bound once.

``import scipy.linalg`` costs about 0.25 s and ``import scipy.special``
about 0.08 s more, for four LAPACK wrappers and one ufunc.  This module
loads the two extension modules that hold them, ``scipy/linalg/_flapack``
and ``scipy/special/_special_ufuncs``, from scipy's install directory,
which runs no scipy code.  The routines are the objects that
``scipy.linalg.get_lapack_funcs(..., dtype=np.float64)`` and
``scipy.special.gammaincinv`` return, so every result keeps its bits:
the IPM's KKT solves round as through scipy's LU helpers.

``_flapack`` links scipy's OpenBLAS, whose worker threads start when the
library loads and spin while they wait for work.  Every call drdetect
makes (triangular solves of at most 7 x 7, LU on KKT systems of under
10 000 entries, banded solves with one right-hand side) stays below
OpenBLAS's own single-thread cutoffs, so a worker only takes a core from
the simulation's threads.  When none of ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS`` is set, ``_flapack`` loads
with ``OPENBLAS_NUM_THREADS=1``, and the environment is restored right
after.  So when drdetect is the first to load scipy's LAPACK, scipy's
BLAS stays single-threaded for the process; setting any of the three
opts out, and a library loaded before keeps its threads.

The eigh, eigvalsh, cholesky, solves and eigvals below call the gufuncs
of ``numpy.linalg._umath_linalg`` that numpy.linalg's functions call,
under the same error state and without the checks those wrappers spend
most of their time on for matrices this small (:func:`_gufunc`); the law
layer enters that state once per rule (:func:`_lapack_state`).
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
from numpy.linalg import _umath_linalg

_LAPACK = ("trtrs", "getrf", "getrs", "tbtrs")


def _locate(name: str):
    """Spec of scipy's extension module `name` (dotted), or None when
    scipy or the file is missing."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], name.split(".")[1]),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    return finder.find_spec(name)


def _load(name: str):
    """Extension module `name`, from sys.modules when scipy loaded it
    already; None when no file is found."""
    if name in sys.modules:
        return sys.modules[name]
    spec = _locate(name)
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # a single-phase extension enters itself in sys.modules; left there, a
    # later `import scipy.linalg` finds it and never sets the attribute
    # `scipy.linalg._flapack` that get_lapack_funcs reads
    if sys.modules.get(name) is module:
        del sys.modules[name]
    return module


def _load_single_threaded(name: str):
    """`_load(name)` with OPENBLAS_NUM_THREADS=1 in the environment that
    the BLAS reads when it loads, unless the user set a thread count."""
    threads = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if any(var in os.environ for var in threads):
        return _load(name)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return _load(name)
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


def _bind():
    """float64 trtrs, getrf, getrs and tbtrs, and gammaincinv."""
    flapack = _load_single_threaded("scipy.linalg._flapack")
    special = _load("scipy.special._special_ufuncs")
    try:
        lapack = tuple(getattr(flapack, "d" + name) for name in _LAPACK)
        return (*lapack, special.gammaincinv)
    except AttributeError:
        # a file or a name is missing (None has no routines either), as in
        # a scipy from before _special_ufuncs: the same routines, imported
        import scipy.linalg
        import scipy.special

        lapack = scipy.linalg.get_lapack_funcs(_LAPACK, dtype=np.float64)
        return (*lapack, scipy.special.gammaincinv)


trtrs, getrf, getrs, tbtrs, gammaincinv = _bind()


def _lapack_state(failure: str) -> np.errstate:
    """The error state under which numpy.linalg runs its gufuncs: one that
    fails raises LinAlgError(failure), and none warns."""

    def fail(err, flag):
        raise np.linalg.LinAlgError(failure)

    return np.errstate(
        call=fail, invalid="call", over="ignore", divide="ignore", under="ignore"
    )


def _gufunc(gufunc, signature: str, failure: str):
    """`gufunc` of ``numpy.linalg._umath_linalg`` on float64 operands, as
    the numpy.linalg function that calls it runs it: under the same error
    state (:func:`_lapack_state`), so a factorization that fails raises
    LinAlgError(failure) and no RuntimeWarning, and with the same bits.
    Its `raw` attribute runs the gufunc alone, for a caller that holds
    such a state over several calls."""
    raw = functools.partial(gufunc, signature=signature)

    def call(*operands):
        with _lapack_state(failure):
            return raw(*operands)

    call.raw = raw
    return call


_NO_CONVERGENCE = "Eigenvalues did not converge"
# float64, lower triangles; solve takes a matrix, solve1 a vector right side
_eigh = _gufunc(_umath_linalg.eigh_lo, "d->dd", _NO_CONVERGENCE)
_eigvalsh = _gufunc(_umath_linalg.eigvalsh_lo, "d->d", _NO_CONVERGENCE)
_cholesky = _gufunc(_umath_linalg.cholesky_lo, "d->d", "Matrix is not positive definite")
_solve = _gufunc(_umath_linalg.solve, "dd->d", "Singular matrix")
_solve1 = _gufunc(_umath_linalg.solve1, "dd->d", "Singular matrix")
_eigvals = _gufunc(_umath_linalg.eigvals, "d->D", _NO_CONVERGENCE)
