"""One pass of one workload in a fresh interpreter, so that no timed call
meets a result memoized by an earlier pass.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE RESULT_JSON

MODE is `measure` (set-up samples, then the pass), `plain` (the pass
alone) or `traced` (the pass with spans).  The caller puts `src/` on
PYTHONPATH.  Writes what the pass measured to RESULT_JSON, spans
included, when the pass ends.
"""
from __future__ import annotations

import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
SETUP_CODE = {
    "pipeline": "import drdetect",
    "tune-sweep": "import drdetect; drdetect.benchmark_system()",
    "attack-reach": "import drdetect; drdetect.benchmark_system()",
}
# the operations whose scaled times add up to wall_s
TIMED_OPS = {
    "pipeline": ("gaussian", "laplacian"),
    "tune-sweep": ("closed_form", "closed_form_failed", "sdp", "sdp_failed"),
    "attack-reach": ("attack", "attack_failed", "reach", "reach_failed", "volume"),
}
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    return {
                        "openblas": config().decode(),
                        "openblas_threads": int(threads()),
                    }
    return {"openblas": "unknown", "openblas_threads": None}


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
    env.update(_openblas())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            env[var] = os.environ[var]
    return env


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(workload: str) -> list[float]:
    """Raw seconds of cold interpreters from process start to a usable
    package."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE[workload]],
            cwd=ROOT,
            check=True,
            timeout=60,
        )
        samples.append(time.perf_counter() - start)
    return samples


def end_to_end(workload: str, res, setup, raw: bool = False):
    """(metrics, sample counts) of a pass, scaled to the reference speed
    unless `raw`; `setup` holds raw set-up times."""
    c = res.counts

    def sec(*names):
        return res.seconds(*names, raw=raw)

    if workload == "pipeline":
        op = sec("gaussian")
        calls = sec("gaussian", "laplacian")
        ops_per_s, n_ops = len(calls) / sum(calls), len(calls)
        n_ok = c["attempted"]
        ok = (n_ok - c.get("failed", 0) - c.get("incomplete", 0)) / n_ok
    elif workload == "tune-sweep":
        op = sec("sdp")
        ops_per_s, n_ops = len(op) / sum(sec("sdp", "sdp_failed")), len(op)
        n_ok = c["thresholds"]
        ok = 1.0 - c.get("failed_thresholds", 0) / n_ok
    else:
        op = sec("reach")
        ops_per_s, n_ops = c["attack_steps"] / sum(sec("attack")), c["attack_steps"]
        n_ok = c["attempted"]
        ok = (n_ok - c.get("failed", 0)) / n_ok
    timed = sec(*TIMED_OPS[workload])
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (sum(timed), len(timed)),
        "op_s.p50": (statistics.median(op), len(op)),
        "ops_per_s": (ops_per_s, n_ops),
        "ok_ratio": (ok, n_ok),
        "peak_rss_mb": (_peak_rss_mb(), 1),
    }
    metrics = {
        name: {"value": float(values[name][0]), "unit": unit}
        for name, unit in UNITS.items()
    }
    return metrics, {name: values[name][1] for name in UNITS}


def run(workload: str, seed: int, seconds: int, mode: str) -> dict:
    traced = mode == "traced"
    setup = measure_setup(workload) if mode == "measure" else None
    groups = []
    if workload == "pipeline":
        out_root = ROOT / ".perfbench_out" / "cli"
        launcher = None
        span_files = []
        if traced:
            def launcher(argv, r, config):
                path = out_root / f"spans-{config}-r{r}.json"
                span_files.append(path)
                return [sys.executable, str(HERE / "launch_cli.py"), str(path), *argv]

        start = time.perf_counter()
        res = workloads.pipeline(seed, seconds, ROOT, out_root, launcher)
        end = time.perf_counter()
        for path in span_files:
            groups.append(json.loads(path.read_text()))
    else:
        import drdetect

        if Path(drdetect.__file__).resolve().parent != ROOT / "src" / "drdetect":
            raise RuntimeError(f"drdetect imported from {drdetect.__file__}")
        recorder = spans.Recorder()
        if traced:
            recorder.install()
        system = drdetect.benchmark_system()
        start = time.perf_counter()
        if workload == "tune-sweep":
            res = workloads.tune_sweep(seed, seconds)
        else:
            res = workloads.attack_reach(seed, seconds, system)
        end = time.perf_counter()
        if traced:
            groups.append(
                {
                    "spans": recorder.spans,
                    "window": [start, end],
                    "missing": recorder.missing,
                }
            )
    out = {
        "wall_s": sum(res.seconds(*TIMED_OPS[workload])),
        "pass_raw_s": end - start,
        "attempted": res.counts.get("attempted", 0),
        "failed": res.counts.get("failed", 0),
        "counts": res.counts,
        "checks": res.checks,
        "failures": res.failures,
        "speed_samples": res.speed.samples,
        "speed_times": res.speed.times,
        "intervals": res.intervals,
        "env": environment(),
        "span_groups": groups,
    }
    if setup is not None:
        out["metrics"], out["sample_counts"] = end_to_end(workload, res, setup)
        out["raw_metrics"], _ = end_to_end(workload, res, setup, raw=True)
    return out


def main() -> None:
    workload, seed, seconds, mode, result_path = sys.argv[1:6]
    result = run(workload, int(seed), int(seconds), mode)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
