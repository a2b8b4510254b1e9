"""Distributionally robust tuning of quadratic anomaly detectors.

Given the first k moments of the detection measure — and nothing else
about its law — the package computes tight worst-case tail bounds via
small semidefinite programs, bisects them into detector thresholds with
guaranteed false-alarm rates, and quantifies the security payoff through
ellipsoidal outer bounds on the states reachable by zero-alarm sensor
attacks.
"""

from .attack_reach import (
    AttackPolicy,
    ReachBound,
    VolumeReport,
    noise_threshold,
    reach_bound,
    volume_comparison,
)
from .benchmark import benchmark_system
from .bound_engine import (
    PolyBound,
    SdpSolution,
    build_sdp,
    chebyshev_bound,
    markov_bound,
    oracle_worst_case,
    solve_sdp,
)
from .cli_runner import ExperimentConfig, run_far, run_reach, run_tune
from .cps_sim import (
    LtiSystem,
    NoiseFamily,
    NoiseModel,
    ResidualTrace,
    empirical_false_alarm_rate,
    simulate,
    solve_dare,
)
from .detector_tuning import (
    Method,
    ThresholdResult,
    chi_squared_threshold,
    closed_form_threshold,
    tune_threshold_sdp,
)
from .ipm import ConicProblem, ConicSolution, Status
from .moment_core import (
    MomentSequence,
    chi_squared_moments,
    estimate_moments,
    hankel_pair,
    is_feasible,
)

__version__ = "0.1.0"

__all__ = [
    "AttackPolicy",
    "ConicProblem",
    "ConicSolution",
    "ExperimentConfig",
    "LtiSystem",
    "Method",
    "MomentSequence",
    "NoiseFamily",
    "NoiseModel",
    "PolyBound",
    "ReachBound",
    "ResidualTrace",
    "SdpSolution",
    "Status",
    "ThresholdResult",
    "VolumeReport",
    "benchmark_system",
    "build_sdp",
    "chebyshev_bound",
    "chi_squared_moments",
    "chi_squared_threshold",
    "closed_form_threshold",
    "empirical_false_alarm_rate",
    "estimate_moments",
    "hankel_pair",
    "is_feasible",
    "markov_bound",
    "noise_threshold",
    "oracle_worst_case",
    "reach_bound",
    "run_far",
    "run_reach",
    "run_tune",
    "simulate",
    "solve_dare",
    "solve_sdp",
    "tune_threshold_sdp",
    "volume_comparison",
]
