"""The three benchmark workloads.  Each takes the seed and the run length
and returns the timed samples, the counts, the output checks and the
failures it saw.

The amount of work is a function of the seed and `seconds` only: each
workload turns `seconds` into a number of rounds or inputs through a
nominal cost measured on a 2-vCPU machine when the benchmark was
defined.  Two commits therefore run exactly the same inputs, and a
faster program finishes sooner instead of doing more work.

Each timed operation is kept as a raw (start, end) interval, and a speed
mark follows it, so that `Result.seconds` can scale it to the reference
speed (see speed.py).  Set-up times stay raw.  Timed calls go through module
attributes (`detector_tuning.tune_...`), so the spans installed for a
traced run see them.
"""
from __future__ import annotations

import csv
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed

EPSILON = 1e-4
TUNE_RATES = (0.01, 0.05, 0.2)
MAX_ORDER = 6
# random sequence #15 of acceptance criterion 2, which fails at k = 4 and
# rate 0.05 today
CRITERION2_SEQUENCE = (
    1.0,
    3.487611887071376,
    12.299231159213063,
    43.845740550478375,
    157.93227600190306,
)
# few atoms put a sequence of order 6 on the moment-cone boundary
ATOM_COUNTS = (2, 3, 5, 8)
# chi-squared(2) thresholds at rate 0.05 for k = 1, 2, 4
GAUSSIAN_REFERENCE = {1: 40.0, 2: 10.717798, 4: 9.181847}
# The tuner accepts its upper bracket when the certified bound there is
# within 1e-7 of the rate.  At k = 3 that bracket is the k = 2 closed form,
# where the exact bound equals the rate and the certificate lands a few
# 1e-10 above it; the check allows the tuner's own slack, no more.
ACHIEVED_SLACK = 1e-7
TUNE_FIXED_NOMINAL_S = 24.0
TUNE_CHAIN_NOMINAL_S = 2.5

# the gaussian thresholds.csv: chi-squared, k = 4, k = 2, k = 1
ATTACK_ALPHAS = (5.991464547107979, 9.1818473667080447, 10.717797887081346, 40.0)
REACH_HORIZONS = (10, 50, 150)
REACH_DIRS = 256
ATTACK_STEPS = 10_000
ATTACK_BURN_IN = 100
ATTACK_ROUND_NOMINAL_S = 6.0

PIPELINE_CONFIGS = ("gaussian", "laplacian")
PIPELINE_ROUND_NOMINAL_S = 8.5
PIPELINE_RATE = 0.05
PIPELINE_ORDERS = (1, 2, 4)


class Result:
    """What one workload pass timed, counted and checked."""

    def __init__(self, child: bool = False) -> None:
        self.speed = speed.Speed(child)
        self.intervals: dict[str, list[tuple[float, float]]] = {}
        self.counts: dict[str, int] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.failures: list[str] = []

    def op(self, name: str, start: float) -> None:
        """Record an operation that started at `start` and ends now, then
        time the reference kernel."""
        self.intervals.setdefault(name, []).append((start, time.perf_counter()))
        self.speed.mark()

    def seconds(self, *names: str, raw: bool = False) -> list[float]:
        """Durations of the named operations, scaled to the reference
        speed unless `raw`."""
        return [
            end - start if raw else self.speed.scale(start, end)
            for name in names
            for start, end in self.intervals.get(name, [])
        ]

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def _rounds(seconds: int, nominal: float) -> int:
    return max(1, round(seconds / nominal))


# ---------------------------------------------------------------- tune-sweep


def tune_inputs(seed: int, seconds: int):
    """(label, moments, rate) triples; no two share a (moments, rate) pair,
    so no timed tuning call can be answered from the tuner's memo."""
    from drdetect import moment_core

    inputs = [
        (f"chi2_p{p}", moment_core.chi_squared_moments(p, MAX_ORDER), rate)
        for p in (1, 2, 4)
        for rate in TUNE_RATES
    ]
    inputs.append(
        ("criterion2_seq15", moment_core.MomentSequence(CRITERION2_SEQUENCE), 0.05)
    )
    rng = np.random.default_rng([seed, 1])
    n_random = max(
        2, round((seconds - TUNE_FIXED_NOMINAL_S) / TUNE_CHAIN_NOMINAL_S)
    )
    for i in range(n_random):
        n_atoms = ATOM_COUNTS[i % len(ATOM_COUNTS)]
        while True:
            atoms = rng.uniform(0.0, 5.0, size=n_atoms)
            weights = rng.dirichlet(np.ones(n_atoms))
            moments = [1.0] + [
                float(np.sum(weights * atoms**r)) for r in range(1, MAX_ORDER + 1)
            ]
            if moments[1] > 1e-2:
                break
        rate = float(rng.choice(TUNE_RATES))
        inputs.append(
            (f"atomic{i}_n{n_atoms}", moment_core.MomentSequence(tuple(moments)), rate)
        )
    return inputs


def tune_sweep(seed: int, seconds: int) -> Result:
    from drdetect import detector_tuning

    skipped = (
        detector_tuning.TuningError,
        ValueError,
        ArithmeticError,
    )
    res = Result()
    seen = set()
    for label, seq, rate in tune_inputs(seed, seconds):
        res.count("attempted")
        chain = []
        for k in range(1, seq.order + 1):
            part = seq.truncated(k)
            key = (part.moments, rate)
            if key in seen:
                raise RuntimeError(f"repeated tuning input {label} k={k}")
            seen.add(key)
            res.count("thresholds")
            kind = "closed_form" if k <= 2 else "sdp"
            start = time.perf_counter()
            try:
                if k <= 2:
                    row = detector_tuning.closed_form_threshold(part, rate, k)
                else:
                    row = detector_tuning.tune_threshold_sdp(
                        part, rate, epsilon=EPSILON
                    )
            except skipped as exc:
                res.op(f"{kind}_failed", start)
                res.count("failed_thresholds")
                res.failures.append(
                    f"{label} rate={rate:g} k={k} {type(exc).__name__}: {exc}"
                )
                continue
            res.op(kind, start)
            chain.append((k, row))
        _check_chain(res, label, rate, chain)
    return res


def _check_chain(res: Result, label: str, rate: float, chain) -> None:
    worst_rise = 0.0
    lowest = math.inf
    for _, row in chain:
        worst_rise = max(worst_rise, row.alpha - lowest)
        lowest = min(lowest, row.alpha)
        if not row.achieved_worst_case <= rate + ACHIEVED_SLACK:
            res.check(
                f"achieved<=rate {label} rate={rate:g} k={row.k}",
                False,
                f"achieved {row.achieved_worst_case!r}",
            )
    if worst_rise > EPSILON:
        res.check(
            f"non-increasing in k {label} rate={rate:g}",
            False,
            f"threshold rises by {worst_rise:.3g}",
        )
    if label == "chi2_p2" and rate == 0.05:
        got = {k: row.alpha for k, row in chain}
        for k, want in GAUSSIAN_REFERENCE.items():
            res.check(
                f"gaussian threshold k={k}",
                k in got and abs(got[k] - want) <= EPSILON,
                f"{got.get(k)!r} vs {want}",
            )


# -------------------------------------------------------------- attack-reach


def attack_reach(seed: int, seconds: int, system) -> Result:
    from drdetect import attack_reach as ar
    from drdetect import cps_sim

    res = Result()
    for r in range(_rounds(seconds, ATTACK_ROUND_NOMINAL_S)):
        rng = np.random.default_rng([seed, 2, r])
        for family in cps_sim.NoiseFamily:
            for rotate in (False, True):
                alpha = ATTACK_ALPHAS[int(rng.integers(len(ATTACK_ALPHAS)))]
                policy = ar.AttackPolicy(
                    alpha, rng.standard_normal(system.p), rotate=rotate
                )
                noise_w = cps_sim.NoiseModel(
                    family, system.sigma_w, int(rng.integers(2**31))
                )
                noise_v = cps_sim.NoiseModel(
                    family, system.sigma_v, int(rng.integers(2**31))
                )
                res.count("attempted")
                start = time.perf_counter()
                try:
                    trace = cps_sim.simulate(
                        system,
                        noise_w,
                        noise_v,
                        ATTACK_STEPS,
                        attack=policy,
                        burn_in=ATTACK_BURN_IN,
                        keep_states=True,
                    )
                except (ValueError, ArithmeticError) as exc:
                    res.op("attack_failed", start)
                    res.count("failed")
                    res.failures.append(f"attack round={r} {family.value}: {exc}")
                    continue
                res.op("attack", start)
                res.count("attack_steps", ATTACK_STEPS + ATTACK_BURN_IN)
                q_max = float(trace.q_values.max())
                # q equals |delta_bar|^2 = alpha up to rounding
                if not q_max <= alpha * (1.0 + 1e-9) or trace.states is None:
                    res.check(
                        f"zero-alarm attack round={r} {family.value} rotate={rotate}",
                        False,
                        f"max q {q_max!r} > alpha {alpha!r}",
                    )
        w_bar = ar.noise_threshold(system.n, float(rng.uniform(0.02, 0.1)))
        for horizon in REACH_HORIZONS:
            bounds = []
            for alpha in ATTACK_ALPHAS:
                res.count("attempted")
                start = time.perf_counter()
                try:
                    bounds.append(
                        ar.reach_bound(system, w_bar, alpha, horizon, REACH_DIRS)
                    )
                except (ValueError, ArithmeticError) as exc:
                    res.op("reach_failed", start)
                    res.count("failed")
                    res.failures.append(f"reach round={r} h={horizon}: {exc}")
                    continue
                res.op("reach", start)
            start = time.perf_counter()
            report = ar.volume_comparison(bounds)
            res.op("volume", start)
            ok = (
                len(bounds) == len(ATTACK_ALPHAS)
                and report.area_ordered
                and report.support_ordered
            )
            if not ok:
                res.check(
                    f"reach ordering round={r} h={horizon}",
                    False,
                    f"max support violation {report.max_support_violation:.3g}",
                )
    return res


# ------------------------------------------------------------------ pipeline


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_cli_outputs(res: Result, config: str, out: Path, tag: str) -> bool:
    """True when every threshold row is there; records failed checks."""
    rows = _read_csv(out / "thresholds.csv")
    tuned = {
        int(row["k"]): float(row["alpha"])
        for row in rows
        if row["method"] != "chi_squared"
    }
    complete = all(k in tuned for k in PIPELINE_ORDERS)
    if config == "gaussian":
        for k, want in GAUSSIAN_REFERENCE.items():
            if k in tuned and not abs(tuned[k] - want) <= EPSILON:
                res.check(f"gaussian threshold k={k} {tag}", False, f"{tuned[k]!r}")
    for row in _read_csv(out / "far.csv"):
        # the chi-squared row is the non-robust reference: its rate sits at
        # the target under gaussian noise and above it under heavy tails
        if row["method"] != "chi_squared" and not float(row["rate"]) <= PIPELINE_RATE:
            res.check(f"far rate k={row['k']} {tag}", False, row["rate"])
    if not (out / "areas.csv").is_file():
        res.check(f"areas.csv written {tag}", False)
    return complete


def pipeline(
    seed: int, seconds: int, root: Path, out_root: Path, launcher=None
) -> Result:
    """Cold `drdetect all` per config, one child at a time.  The children
    inherit PYTHONPATH from the caller.  `launcher`, when given, maps
    (argv, round, config) to the command of a traced child."""
    res = Result(child=True)
    res.speed.mark()
    for r in range(_rounds(seconds, PIPELINE_ROUND_NOMINAL_S)):
        for config in PIPELINE_CONFIGS:
            out = out_root / f"{config}-r{r}"
            argv = [
                "all",
                "--config",
                str(root / "configs" / f"benchmark2d_{config}.json"),
                "--out",
                str(out),
                "--seed",
                str(seed * 1000 + 10 * r),
                "--quiet",
            ]
            if launcher is None:
                cmd = [sys.executable, "-m", "drdetect", *argv]
            else:
                cmd = launcher(argv, r, config)
            tag = f"{config} round={r}"
            res.count("attempted")
            start = time.perf_counter()
            proc = subprocess.run(
                cmd, cwd=root, capture_output=True, text=True, timeout=170
            )
            res.op(config, start)
            if proc.returncode != 0:
                res.count("failed")
                res.failures.append(
                    f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
                )
                res.check(f"cli exit 0 {tag}", False, proc.stderr.strip()[-300:])
                continue
            for line in proc.stderr.splitlines():
                if line.startswith("tuning failed"):
                    res.failures.append(f"{tag}: {line}")
            if not _check_cli_outputs(res, config, out, tag):
                res.count("incomplete")
    return res
