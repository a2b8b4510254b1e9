import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from drdetect import _scipy_ext, chi_squared_threshold, detector_tuning

ROOT = Path(__file__).resolve().parents[1]
LAPACK = ("trtrs", "getrf", "getrs", "tbtrs")
MODULES = ("scipy.linalg._flapack", "scipy.special._special_ufuncs")
RATES = (0.01, 0.05, 0.2)


def _public():
    # imported here, after drdetect, so that drdetect loads the extension
    # modules by path when this file runs alone
    import scipy.linalg
    import scipy.special

    lapack = scipy.linalg.get_lapack_funcs(LAPACK, dtype=np.float64)
    return (*lapack, scipy.special.gammaincinv)


def test_routines_are_scipys_own():
    import scipy.special

    bound = tuple(getattr(_scipy_ext, name) for name in (*LAPACK, "gammaincinv"))
    for mine, public in zip(bound, _public(), strict=True):
        assert mine is public
    for p in range(1, 9):
        for rate in RATES:
            expected = 2 * scipy.special.gammaincinv(p / 2, 1 - rate)
            assert chi_squared_threshold(p, rate) == expected


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
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded, same = json.loads(done.stdout)
    assert loaded == []
    assert same


@pytest.mark.parametrize("missing", [MODULES, MODULES[:1], MODULES[1:]])
def test_missing_file_falls_back_to_the_public_routines(monkeypatch, missing):
    before = {(p, r): chi_squared_threshold(p, r) for p in range(1, 9) for r in RATES}
    public = _public()
    # scipy is imported by now, so hide its extension modules as well
    for name in missing:
        monkeypatch.delitem(sys.modules, name, raising=False)
    locate = _scipy_ext._locate
    monkeypatch.setattr(
        _scipy_ext, "_locate", lambda name: None if name in missing else locate(name)
    )
    assert all(_scipy_ext._load(name) is None for name in missing)
    bound = _scipy_ext._bind()
    for mine, theirs in zip(bound, public, strict=True):
        assert mine is theirs
    monkeypatch.setattr(detector_tuning, "_gammaincinv", bound[-1])
    assert {key: chi_squared_threshold(*key) for key in before} == before
