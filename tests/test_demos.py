"""Smoke test: every demo runs to the end."""
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
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
