"""drdetect benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tune-sweep --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload once, untraced

Each workload pass runs in a fresh interpreter (perfbench/worker.py).  The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}; the end-to-end metrics with --trace 0, the
per-layer metrics of a traced pass with --trace 1.  The lines before it
give every metric with its unit and sample count, the environment, the
failing inputs and any failed output check.  The full record of the run
goes to .perfbench_out/.  The exit code is 1 when an output check fails
and 2 when the checkout has no drdetect sources.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402

WORKLOADS = ("pipeline", "tune-sweep", "attack-reach")
# what op_s.p50 and ops_per_s measure on each workload (README table)
ALIASES = {
    "pipeline": ("cli_all_s.gaussian", "cli_calls_per_s"),
    "tune-sweep": ("tune_s.p50", "thresholds_per_s"),
    "attack-reach": ("reach_s.p50", "attack_steps_per_s"),
}
RUN_TIMEOUT_S = 170


class RunError(Exception):
    pass


def run_worker(
    workload: str, seed: int, seconds: int, mode: str, deadline: float
) -> dict:
    """One worker pass in its own session.  On timeout or interrupt the
    whole group (a pipeline worker has CLI children) is killed and reaped."""
    OUT.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="worker-", suffix=".json", dir=OUT)
    os.close(fd)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    cmd += [str(seconds), mode, path]
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RunError(
                f"worker {workload} {mode} exited {proc.returncode}:\n{err[-2000:]}"
            )
        return json.loads(Path(path).read_text())
    except BaseException as exc:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RunError(f"worker {workload} {mode} timed out") from None
        raise
    finally:
        os.unlink(path)


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "drdetect").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_one(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if traced:
        plain = run_worker(workload, seed, seconds, "plain", deadline)
        result = run_worker(workload, seed, seconds, "traced", deadline)
        result["metrics"], result["sample_counts"] = spans.layer_metrics(
            result["span_groups"],
            result["pass_raw_s"],
            result["wall_s"],
            plain["wall_s"],
        )
        result["checks"] = plain["checks"] + result["checks"]
    else:
        result = run_worker(workload, seed, seconds, "measure", deadline)
    result.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=int(traced),
        commit=_git_commit(),
        source_sha256=_source_digest(),
    )
    return result


def report(run: dict) -> bool:
    """Print the human-readable lines of one run and write its record;
    True when every output check passed."""
    workload = run["workload"]
    print(
        f"# {workload} seed={run['seed']} seconds={run['seconds']} "
        f"trace={run['trace']}"
    )
    env = {"commit": run["commit"], "source_sha256": run["source_sha256"], **run["env"]}
    print("# env " + json.dumps(env))
    aliases = dict(zip(("op_s.p50", "ops_per_s"), ALIASES[workload]))
    raw = run.get("raw_metrics", {})
    for name, metric in run["metrics"].items():
        line = (
            f"{workload:13s} {name:50s} {metric['value']:>12.6g} "
            f"{metric['unit']:6s} n={run['sample_counts'][name]}"
        )
        if name in aliases:
            line += f"  {aliases[name]}"
        if name == "ok_ratio":
            line += f"  fail_ratio={1.0 - metric['value']:.6g}"
        elif name in raw and raw[name]["value"] != metric["value"]:
            line += f"  raw={raw[name]['value']:.6g}"
        print(line)
    for name in sorted({m for g in run["span_groups"] for m in g.get("missing", [])}):
        print(f"{workload:13s} span target missing: {name}")
    for line in run["failures"]:
        print(f"{workload:13s} failing: {line}")
    ok = True
    for name, passed, detail in run["checks"]:
        if not passed:
            ok = False
            print(f"{workload:13s} CHECK FAILED {name}: {detail}")
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{workload}-seed{run['seed']}-trace{run['trace']}.json"
    record.write_text(json.dumps(run, indent=1))
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "drdetect" / "__init__.py").is_file() or not all(
        (ROOT / "configs" / f"benchmark2d_{c}.json").is_file()
        for c in ("gaussian", "laplacian")
    ):
        print(f"no drdetect sources or configs under {ROOT}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    all_ok = True
    for workload in names:
        try:
            run = run_one(workload, args.seed, args.seconds, bool(args.trace))
        except RunError as exc:
            print(exc, file=sys.stderr)
            return 1
        all_ok = report(run) and all_ok
    if args.workload != "all":
        print(
            json.dumps(
                {
                    "correct": all_ok,
                    "attempted": int(run["attempted"]),
                    "failed": int(run["failed"]),
                    "metrics": run["metrics"],
                }
            )
        )
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
