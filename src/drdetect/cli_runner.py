"""Reproducible experiment driver.

Parses a JSON experiment config, orchestrates tuning, false-alarm
simulation, and reachability pipelines, and emits deterministic CSV
artifacts.  Exposed as the ``drdetect`` console command with
subcommands ``tune``, ``far``, ``reach``, and ``all``.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import sys as _sys
from dataclasses import dataclass, replace
from pathlib import Path

from .attack_reach import noise_threshold, reach_bound, volume_comparison
from .cps_sim import (
    LtiSystem,
    NoiseFamily,
    NoiseModel,
    _alarm_count,
    _attack_free_stream,
    _check_seed,
)
from .detector_tuning import (
    Method,
    ThresholdResult,
    chi_squared_threshold,
    closed_form_threshold,
    tune_threshold_sdp,
)
from .moment_core import MomentSequence, _PowerSums, chi_squared_moments

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
_BOUNDARY_HEADER = "theta,x1,x2"

# progress text, at INFO; `main` sends it to stdout
_logger = logging.getLogger(__name__)

# the keys from_dict reads, at the top level (None) and in each block
_KEYS = {
    None: "system detector noise sim reach output_dir",
    "system": "A B C K sigma_w sigma_v",
    "detector": "target_rate orders epsilon moment_source empirical_samples",
    "noise": "family seed",
    "sim": "samples burn_in",
    "reach": "horizon n_dirs noise_rate",
}


def _integer(value, field: str) -> int:
    """An integral JSON number as an int: 1e6 gives 1000000, 1.5 an error."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{field} must be an integer")


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
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not self.orders or any(k < 1 for k in self.orders):
            raise ValueError("moment orders must all be >= 1")
        if self.moment_source not in (ANALYTIC_CHI_SQUARED, EMPIRICAL):
            raise ValueError(f"unknown moment source {self.moment_source!r}")
        if self.empirical_samples < 1 or self.sim_samples < 1:
            raise ValueError("sample counts must be positive")
        if self.burn_in < 0:
            raise ValueError("burn-in must be nonnegative")
        _check_seed(self.seed)
        if self.reach_horizon < 2 or self.reach_dirs < 16:
            raise ValueError("reach block needs horizon >= 2 and >= 16 directions")
        if not 0 < self.noise_rate < 1:
            raise ValueError("noise rate must be in (0, 1)")
        object.__setattr__(self, "orders", tuple(sorted(set(self.orders))))

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        for block, known in _KEYS.items():
            keys = raw if block is None else raw.get(block, {})
            if unknown := sorted(set(keys) - set(known.split())):
                where = "the config" if block is None else f"block {block!r}"
                raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
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
            orders=tuple(
                _integer(k, "orders") for k in detector.get("orders", (1, 2, 4))
            ),
            epsilon=float(detector.get("epsilon", 1e-4)),
            moment_source=str(
                detector.get("moment_source", ANALYTIC_CHI_SQUARED)
            ),
            empirical_samples=_integer(
                detector.get("empirical_samples", 1_000_000), "empirical_samples"
            ),
            noise_family=NoiseFamily(noise.get("family", "gaussian")),
            seed=_integer(noise.get("seed", 0), "seed"),
            sim_samples=_integer(sim.get("samples", 1_000_000), "samples"),
            burn_in=_integer(sim.get("burn_in", 1000), "burn_in"),
            reach_horizon=_integer(reach.get("horizon", 50), "horizon"),
            reach_dirs=_integer(reach.get("n_dirs", 256), "n_dirs"),
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


def resolve_moments(config: ExperimentConfig) -> MomentSequence:
    """Moment sequence of the detection measure at the largest order.
    Empirical moments are the bits of `estimate_moments` on the q of
    `simulate`, from exact power sums over the attack-free run's bounded
    pieces; no piece outlives its sums."""
    k_max = max(config.orders)
    if config.moment_source == ANALYTIC_CHI_SQUARED:
        return chi_squared_moments(config.system.p, k_max)
    noise_w, noise_v = config.noise_models(0)
    _logger.info("estimating moments from %d samples", config.empirical_samples)
    sums = _PowerSums(k_max)
    for trace in _attack_free_stream(
        config.system, noise_w, noise_v, config.empirical_samples, config.burn_in
    ):
        sums.add(trace.q_values)
    return sums.moments()


def run_tune(config: ExperimentConfig) -> list[ThresholdResult]:
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
    moments = resolve_moments(config)
    for k in config.orders:
        try:
            seq = moments.truncated(k)
            if k <= 2:
                rows.append(closed_form_threshold(seq, rate, k))
            else:
                rows.append(
                    tune_threshold_sdp(seq, rate, epsilon=config.epsilon)
                )
        except (ValueError, ArithmeticError) as exc:
            print(f"tuning failed at order {k}: {exc}", file=_sys.stderr)
    return rows


def run_far(
    config: ExperimentConfig, thresholds: list[ThresholdResult]
) -> list[tuple[ThresholdResult, float, float]]:
    """Empirical false-alarm rate with binomial standard error for each
    tuned threshold, measured on one fresh attack-free run.  The rates
    are those of `empirical_false_alarm_rate` on `simulate`'s trace,
    counted over the run's bounded pieces, which are dropped as they are
    counted."""
    noise_w, noise_v = config.noise_models(2)
    samples = config.sim_samples
    _logger.info("simulating %d attack-free steps", samples)
    alarms = [0] * len(thresholds)
    for trace in _attack_free_stream(
        config.system, noise_w, noise_v, samples, config.burn_in
    ):
        for i, row in enumerate(thresholds):
            alarms[i] += _alarm_count(trace, row.alpha)
    out = []
    for row, count in zip(thresholds, alarms):
        rate = count / samples
        out.append((row, rate, math.sqrt(rate * (1.0 - rate) / samples)))
    return out


def run_reach(config: ExperimentConfig, thresholds: list[ThresholdResult]):
    """Reach bounds for every tuned threshold at the configured horizon,
    plus the ordering report over their areas and support functions."""
    w_bar = noise_threshold(config.system.n, config.noise_rate)
    bounds = []
    for row in thresholds:
        _logger.info("reach bound at alpha=%.4f", row.alpha)
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


def _write_csv(path: Path, header: str, rows) -> Path:
    """Write the header and one comma-separated line per row, each ending
    in a newline.  Floats (numpy's included) are written with 17
    significant digits, so they parse back exactly; any other field is
    written with `str`."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fields = (
                format(v, ".17g") if isinstance(v, float) else str(v) for v in row
            )
            fh.write(",".join(fields) + "\n")
    return path


def _write_thresholds(out: Path, rows: list[ThresholdResult]) -> Path:
    records = (
        (r.method.value, r.k, r.target_rate, r.alpha, r.achieved_worst_case, r.epsilon)
        for r in rows
    )
    return _write_csv(out / "thresholds.csv", _THRESHOLD_HEADER, records)


def _write_far(out: Path, far_rows, samples: int) -> Path:
    records = (
        (row.method.value, row.k, row.alpha, rate, stderr, samples)
        for row, rate, stderr in far_rows
    )
    return _write_csv(out / "far.csv", _FAR_HEADER, records)


def _write_reach(
    out: Path, thresholds: list[ThresholdResult], bounds, report
) -> list[Path]:
    """One boundary file ``theta, x1, x2`` per threshold row, named by its
    (method, k), which is unique within a run, plus areas.csv.  Row i holds
    direction i's angle and the circumscribed polygon's vertex i, on the
    support lines of directions i and i + 1; only planar bounds have one."""
    paths = []
    for row, rb in zip(thresholds, bounds):
        if rb.boundary is None:
            raise ValueError("boundary CSV export is for planar systems")
        points = (
            (math.atan2(ell[1], ell[0]), vertex[0], vertex[1])
            for ell, vertex in zip(rb.directions, rb.boundary)
        )
        path = out / f"reach_{row.method.value}_k{row.k}.csv"
        paths.append(_write_csv(path, _BOUNDARY_HEADER, points))
    paths.append(
        _write_csv(out / "areas.csv", _AREA_HEADER, zip(report.alphas, report.areas))
    )
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
    if args.command in ("reach", "all") and config.system.n != 2:
        raise ValueError("boundary CSV export is for planar systems")
    out = Path(args.out if args.out is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    handler = logging.StreamHandler(_sys.stdout)
    _logger.addHandler(handler)
    _logger.setLevel(logging.WARNING if args.quiet else logging.INFO)
    try:
        thresholds = run_tune(config)
        written = [_write_thresholds(out, thresholds)]
        exit_code = 0
        if args.command in ("far", "all"):
            far_rows = run_far(config, thresholds)
            written.append(_write_far(out, far_rows, config.sim_samples))
        if args.command in ("reach", "all"):
            bounds, report = run_reach(config, thresholds)
            written.extend(_write_reach(out, thresholds, bounds, report))
            if not (report.area_ordered and report.support_ordered):
                print(
                    "reachable-set ordering violated: "
                    f"max support violation {report.max_support_violation:.3g}",
                    file=_sys.stderr,
                )
                exit_code = 1
        for path in written:
            _logger.info("wrote %s", path)
        return exit_code
    finally:
        _logger.removeHandler(handler)
        _logger.setLevel(logging.NOTSET)
