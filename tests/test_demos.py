"""Smoke tests in fresh interpreters: every demo runs to the end, and the
package imports without its heavy optional scipy modules."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script",
    [
        "01_moment_bounds.py",
        "02_threshold_tuning.py",
        "03_false_alarm_simulation.py",
        "04_attack_reachability.py",
    ],
)
def test_demo_runs(script):
    done = _run([str(ROOT / "demos" / script)])
    assert done.returncode == 0, done.stderr


def test_import_is_light():
    # scipy.signal (for one lfilter) and scipy.optimize (for the LP
    # oracle) load only when those functions run
    done = _run(
        [
            "-c",
            "import sys, drdetect; drdetect.benchmark_system(); "
            "print(sorted(m for m in ('scipy.signal', 'scipy.optimize') "
            "if m in sys.modules))",
        ]
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _run(args):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
