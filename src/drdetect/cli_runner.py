"""Reproducible experiment driver.

Parses a JSON experiment config, orchestrates tuning, false-alarm
simulation, and reachability pipelines, and emits deterministic CSV
artifacts.  Exposed as the ``drdetect`` console command with
subcommands ``tune``, ``far``, ``reach``, and ``all``.
"""
from __future__ import annotations

import argparse
import json
import math
import sys as _sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .attack_reach import noise_threshold, reach_bound, volume_comparison
from .cps_sim import (
    LtiSystem,
    NoiseFamily,
    NoiseModel,
    empirical_false_alarm_rate,
    simulate,
)
from .detector_tuning import (
    Method,
    ThresholdResult,
    TuningError,
    chi_squared_threshold,
    closed_form_threshold,
    tune_threshold_sdp,
)
from .moment_core import MomentSequence, chi_squared_moments, estimate_moments

__all__ = [
    "ExperimentConfig",
    "run_tune",
    "run_far",
    "run_reach",
    "main",
]

ANALYTIC_CHI_SQUARED = "analytic-chi-squared"
EMPIRICAL = "empirical"

_THRESHOLD_HEADER = "method,k,target_rate,alpha,achieved,epsilon"
_FAR_HEADER = "method,k,alpha,rate,stderr,samples"
_AREA_HEADER = "alpha,area"


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment parameters; see :meth:`from_json` for the
    on-disk schema.

    Seed usage is split deterministically: (seed, seed+1) drive the
    process/measurement noise of the moment-estimation run and
    (seed+2, seed+3) the false-alarm run, so empirical rates are
    measured out of sample.
    """

    system: LtiSystem
    target_rate: float
    orders: tuple[int, ...]
    epsilon: float
    moment_source: str
    empirical_samples: int
    noise_family: NoiseFamily
    seed: int
    sim_samples: int
    burn_in: int
    reach_horizon: int
    reach_dirs: int
    noise_rate: float
    output_dir: str

    def __post_init__(self) -> None:
        if not 0 < self.target_rate <= 0.5:
            raise ValueError("target rate must be in (0, 0.5]")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not self.orders or any(k < 1 for k in self.orders):
            raise ValueError("moment orders must all be >= 1")
        if self.moment_source not in (ANALYTIC_CHI_SQUARED, EMPIRICAL):
            raise ValueError(f"unknown moment source {self.moment_source!r}")
        if self.empirical_samples < 1 or self.sim_samples < 1:
            raise ValueError("sample counts must be positive")
        if self.burn_in < 0:
            raise ValueError("burn-in must be nonnegative")
        if self.reach_horizon < 2 or self.reach_dirs < 16:
            raise ValueError("reach block needs horizon >= 2 and >= 16 directions")
        if not 0 < self.noise_rate < 1:
            raise ValueError("noise rate must be in (0, 1)")
        object.__setattr__(self, "orders", tuple(sorted(set(self.orders))))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        system_block = raw["system"]
        system = LtiSystem.from_matrices(
            A=system_block["A"],
            B=system_block["B"],
            C=system_block["C"],
            K=system_block["K"],
            sigma_w=system_block["sigma_w"],
            sigma_v=system_block["sigma_v"],
        )
        detector = raw.get("detector", {})
        noise = raw.get("noise", {})
        sim = raw.get("sim", {})
        reach = raw.get("reach", {})
        return cls(
            system=system,
            target_rate=float(detector.get("target_rate", 0.05)),
            orders=tuple(int(k) for k in detector.get("orders", (1, 2, 4))),
            epsilon=float(detector.get("epsilon", 1e-4)),
            moment_source=str(
                detector.get("moment_source", ANALYTIC_CHI_SQUARED)
            ),
            empirical_samples=int(detector.get("empirical_samples", 1_000_000)),
            noise_family=NoiseFamily(noise.get("family", "gaussian")),
            seed=int(noise.get("seed", 0)),
            sim_samples=int(sim.get("samples", 1_000_000)),
            burn_in=int(sim.get("burn_in", 1000)),
            reach_horizon=int(reach.get("horizon", 50)),
            reach_dirs=int(reach.get("n_dirs", 256)),
            noise_rate=float(
                reach.get("noise_rate", detector.get("target_rate", 0.05))
            ),
            output_dir=str(raw.get("output_dir", "out")),
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def noise_models(self, seed_offset: int) -> tuple[NoiseModel, NoiseModel]:
        """Process- and measurement-noise models at a seed offset."""
        return (
            NoiseModel(self.noise_family, self.system.sigma_w, self.seed + seed_offset),
            NoiseModel(
                self.noise_family, self.system.sigma_v, self.seed + seed_offset + 1
            ),
        )


def _log(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def resolve_moments(config: ExperimentConfig, quiet: bool = True) -> MomentSequence:
    """Moment sequence of the detection measure at the largest order."""
    k_max = max(config.orders)
    if config.moment_source == ANALYTIC_CHI_SQUARED:
        return chi_squared_moments(config.system.p, k_max)
    noise_w, noise_v = config.noise_models(0)
    _log(quiet, f"estimating moments from {config.empirical_samples} samples")
    trace = simulate(
        config.system,
        noise_w,
        noise_v,
        config.empirical_samples,
        burn_in=config.burn_in,
    )
    return estimate_moments(trace.q_values, k_max)


def run_tune(
    config: ExperimentConfig, quiet: bool = True
) -> list[ThresholdResult]:
    """One threshold per configured moment order plus the chi-squared
    reference row (whose k column records the degrees of freedom).
    Per-order failures are reported and skipped; the run continues.
    """
    rows: list[ThresholdResult] = []
    p = config.system.p
    rate = config.target_rate
    rows.append(
        ThresholdResult(
            alpha=chi_squared_threshold(p, rate),
            method=Method.CHI_SQUARED,
            k=p,
            target_rate=rate,
            achieved_worst_case=rate,
        )
    )
    moments = resolve_moments(config, quiet=quiet)
    for k in config.orders:
        try:
            seq = moments.truncated(k)
            if k <= 2:
                rows.append(closed_form_threshold(seq, rate, k))
            else:
                rows.append(
                    tune_threshold_sdp(seq, rate, epsilon=config.epsilon)
                )
        except (ValueError, ArithmeticError, TuningError) as exc:
            print(f"tuning failed at order {k}: {exc}", file=_sys.stderr)
    return rows


def run_far(
    config: ExperimentConfig,
    thresholds: list[ThresholdResult] | None = None,
    quiet: bool = True,
) -> list[tuple[ThresholdResult, float, float]]:
    """Empirical false-alarm rate with binomial standard error for each
    tuned threshold, measured on one fresh attack-free run."""
    if thresholds is None:
        thresholds = run_tune(config, quiet=quiet)
    noise_w, noise_v = config.noise_models(2)
    _log(quiet, f"simulating {config.sim_samples} attack-free steps")
    trace = simulate(
        config.system, noise_w, noise_v, config.sim_samples, burn_in=config.burn_in
    )
    out = []
    for row in thresholds:
        rate = empirical_false_alarm_rate(trace, row.alpha)
        stderr = math.sqrt(rate * (1.0 - rate) / trace.length)
        out.append((row, rate, stderr))
    return out


def run_reach(
    config: ExperimentConfig,
    thresholds: list[ThresholdResult] | None = None,
    quiet: bool = True,
):
    """Reach bounds for every tuned threshold at the configured horizon,
    plus the ordering report over their areas and support functions."""
    if thresholds is None:
        thresholds = run_tune(config, quiet=quiet)
    w_bar = noise_threshold(config.system.n, config.noise_rate)
    bounds = []
    for row in thresholds:
        _log(quiet, f"reach bound at alpha={row.alpha:.4f}")
        bounds.append(
            reach_bound(
                config.system,
                w_bar,
                row.alpha,
                config.reach_horizon,
                config.reach_dirs,
            )
        )
    report = volume_comparison(bounds)
    return bounds, report


def _write_lines(path: Path, header: str, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def _write_thresholds(out: Path, rows: list[ThresholdResult]) -> Path:
    path = out / "thresholds.csv"
    _write_lines(path, _THRESHOLD_HEADER, [row.to_csv_row() for row in rows])
    return path


def _write_far(out: Path, far_rows, samples: int) -> Path:
    path = out / "far.csv"
    lines = []
    for row, rate, stderr in far_rows:
        lines.append(
            ",".join(
                [
                    row.method.value,
                    str(row.k),
                    format(row.alpha, ".17g"),
                    format(rate, ".17g"),
                    format(stderr, ".17g"),
                    str(samples),
                ]
            )
        )
    _write_lines(path, _FAR_HEADER, lines)
    return path


def _write_reach(
    out: Path, thresholds: list[ThresholdResult], bounds, report
) -> list[Path]:
    """One boundary file per threshold row, named by its (method, k),
    which is unique within a run, plus areas.csv."""
    paths = []
    for row, rb in zip(thresholds, bounds):
        path = out / f"reach_{row.method.value}_k{row.k}.csv"
        rb.write_boundary_csv(path)
        paths.append(path)
    area_path = out / "areas.csv"
    lines = [
        ",".join([format(alpha, ".17g"), format(area, ".17g")])
        for alpha, area in zip(report.alphas, report.areas)
    ]
    _write_lines(area_path, _AREA_HEADER, lines)
    paths.append(area_path)
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="drdetect",
        description=(
            "Tune anomaly-detector thresholds from moment information and "
            "quantify the attack-reachability benefit."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "tune": "tune thresholds and write thresholds.csv",
        "far": "measure empirical false-alarm rates (far.csv)",
        "reach": "compute reachable-set bounds (reach_<method>_k<k>.csv, areas.csv)",
        "all": "run the full pipeline",
    }
    for name, text in helps.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="JSON experiment config")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
        cmd.add_argument("--quiet", action="store_true", help="suppress progress")
    args = parser.parse_args(argv)

    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out = Path(args.out if args.out is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    quiet = args.quiet

    thresholds = run_tune(config, quiet=quiet)
    written = [_write_thresholds(out, thresholds)]
    exit_code = 0
    if args.command in ("far", "all"):
        far_rows = run_far(config, thresholds, quiet=quiet)
        written.append(_write_far(out, far_rows, config.sim_samples))
    if args.command in ("reach", "all"):
        bounds, report = run_reach(config, thresholds, quiet=quiet)
        written.extend(_write_reach(out, thresholds, bounds, report))
        if not (report.area_ordered and report.support_ordered):
            print(
                "reachable-set ordering violated: "
                f"max support violation {report.max_support_violation:.3g}",
                file=_sys.stderr,
            )
            exit_code = 1
    for path in written:
        _log(quiet, f"wrote {path}")
    return exit_code
