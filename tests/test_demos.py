"""Smoke tests in fresh interpreters: every demo runs to the end, the
package imports without its heavy optional scipy modules, and every
function the benchmark traces is where the benchmark looks for it."""
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
    if script == "01_moment_bounds.py":
        # one checked certificate per order k = 1..4
        assert done.stdout.count("certificate valid: True") == 4


def test_import_is_light():
    # scipy.special (for the chi-squared quantile) loads only when its one
    # caller runs; nothing in the package needs scipy.signal or
    # scipy.optimize, so this guards against a caller coming back
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
    # attacked runs and attack-free runs that keep states solve their
    # state paths in banded chunks; the package has no caller of
    # scipy.signal or scipy.optimize, and this guards against one coming
    # back on that route
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
    # `all` runs the attack-free simulation, moment estimation, tuning, far.csv
    # and reach; the package has no caller of scipy.signal or
    # scipy.optimize, and this guards against one coming back on that path
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


def test_span_targets_resolve():
    # a traced benchmark run wraps each target by module and name; one
    # that is renamed or moved would only print "span target missing"
    done = _run(
        [
            "-c",
            "import sys\n"
            "sys.path.insert(0, 'perfbench')\n"
            "import drdetect, spans\n"
            "recorder = spans.Recorder()\n"
            "recorder.install()\n"
            "print(len(spans.TARGETS), recorder.missing)",
        ]
    )
    assert done.returncode == 0, done.stderr
    count, missing = done.stdout.strip().split(" ", 1)
    assert int(count) > 0
    assert missing == "[]"


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
