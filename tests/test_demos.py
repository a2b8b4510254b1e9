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
    # scipy.optimize (for the LP oracle) and scipy.special (for the
    # chi-squared quantile) load only when their one caller runs; nothing
    # in the package needs scipy.signal
    done = _run(
        [
            "-c",
            "import sys, drdetect; drdetect.benchmark_system(); "
            "print(sorted(m for m in "
            "('scipy.signal', 'scipy.optimize', 'scipy.special') "
            "if m in sys.modules))",
        ]
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_state_simulations_stay_light():
    # attacked and attack-free runs that keep states take the banded
    # route, which needs neither scipy.signal nor scipy.optimize
    done = _run(
        [
            "-c",
            "import sys, numpy as np, drdetect as d\n"
            "s = d.benchmark_system()\n"
            "w = d.NoiseModel(d.NoiseFamily.GAUSSIAN, s.sigma_w, 1)\n"
            "v = d.NoiseModel(d.NoiseFamily.GAUSSIAN, s.sigma_v, 2)\n"
            "a = d.AttackPolicy(9.0, np.array([1.0, 0.0]), rotate=True)\n"
            "d.simulate(s, w, v, 2000, attack=a, keep_states=True)\n"
            "d.simulate(s, w, v, 2000, keep_states=True)\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.optimize') "
            "if m in sys.modules))",
        ]
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_pipeline_stays_light(tmp_path):
    # the laplacian config takes its moments from the simulated q, so
    # `all` runs the modal simulation, moment estimation, tuning, far.csv
    # and reach, and needs neither scipy.signal nor scipy.optimize
    config = ROOT / "configs" / "benchmark2d_laplacian.json"
    argv = ["all", "--config", str(config), "--out", str(tmp_path), "--quiet"]
    done = _run(
        [
            "-c",
            "import sys\n"
            "from drdetect import cli_runner\n"
            f"assert cli_runner.main({argv!r}) == 0\n"
            "print(sorted(m for m in ('scipy.signal', 'scipy.optimize') "
            "if m in sys.modules))",
        ]
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert (tmp_path / "far.csv").is_file()


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
