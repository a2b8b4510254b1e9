"""Run the steps of `.github/workflows/tier1.yml` on this machine.

Each step's `run:` block goes to bash from the repository root, with the
job's `env` and a fresh RUNNER_TEMP, as the hosted runner runs it: `bash -e`
where the step names no shell and `bash --noprofile --norc -eo pipefail`
where it names bash.  Where no `drdetect` console script is on PATH, a shim
that runs `python -m drdetect` goes on it, with the repository's `src` on
PYTHONPATH.  A step that uses an action, or installs with pip, is skipped
with its reason: the checkout and the interpreter here stand in for them.
Prints one line per step, passed, failed or skipped, with the output of
each failed step, and exits 1 if a step failed.

    python3 tools/run_tier1.py
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
# the hosted runner's bash for a step with no shell, and for `shell: bash`
SHELLS = {
    None: ["bash", "-e", "-c"],
    "bash": ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c"],
}


def _skip_reason(step: dict) -> str | None:
    if "uses" in step:
        return "an action: this checkout and interpreter stand in"
    if "pip install" in step["run"]:
        return "installs packages from the network"
    return None


def _environment(temp: str) -> dict:
    env = dict(os.environ, RUNNER_TEMP=temp)
    if shutil.which("drdetect") is None:
        shim = Path(temp, "bin", "drdetect")
        shim.parent.mkdir()
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m drdetect "$@"\n')
        shim.chmod(0o755)
        env["PATH"] = os.pathsep.join([str(shim.parent), env["PATH"]])
        paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return env


def main() -> int:
    workflow = yaml.safe_load(WORKFLOW.read_text())
    counts = {"passed": 0, "failed": 0, "skipped": 0}
    with tempfile.TemporaryDirectory(prefix="tier1-") as temp:
        env = _environment(temp)
        for job in workflow["jobs"].values():
            job_env = {**env, **{k: str(v) for k, v in job.get("env", {}).items()}}
            for step in job["steps"]:
                name = step.get("name", step.get("uses"))
                reason = _skip_reason(step)
                if reason is not None:
                    counts["skipped"] += 1
                    print(f"skipped {name} ({reason})", flush=True)
                    continue
                step_env = {**job_env, **{k: str(v) for k, v in step.get("env", {}).items()}}
                start = time.perf_counter()
                result = subprocess.run(
                    SHELLS[step.get("shell")] + [step["run"]],
                    cwd=ROOT,
                    env=step_env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                    text=True,
                )
                status = "passed" if result.returncode == 0 else "failed"
                counts[status] += 1
                seconds = time.perf_counter() - start
                print(f"{status:7} {name} ({seconds:.1f} s)", flush=True)
                if result.returncode != 0:
                    print(result.stdout, flush=True)
    print(", ".join(f"{n} {status}" for status, n in counts.items()))
    return 1 if counts["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
