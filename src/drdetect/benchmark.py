"""Checked-in two-state benchmark system.

A stable but open-loop-oscillatory plant with two sensors, used
throughout the docs, demos, and acceptance runs; the experiment configs
in `configs/` carry the same matrices.  The residual dimension is 2, so
the attack-free detection measure is chi-squared with 2 degrees of
freedom under Gaussian noise.
"""
from __future__ import annotations

from .cps_sim import LtiSystem

__all__ = ["benchmark_system"]

_A = [[0.84, 0.23], [-0.47, 0.12]]
_B = [[0.07, -0.32], [0.23, 0.58]]
_C = [[1.0, 0.0], [2.0, 1.0]]
_K = [[1.404, -1.402], [1.842, 1.008]]
_SIGMA_W = [[0.0225, -0.0055], [-0.0055, 0.01]]
_SIGMA_V = [[1.0, 0.0], [0.0, 1.0]]


def benchmark_system() -> LtiSystem:
    """Two-state, two-sensor benchmark plant with its stabilizing
    controller and steady-state Kalman gain."""
    return LtiSystem.from_matrices(
        A=_A, B=_B, C=_C, K=_K, sigma_w=_SIGMA_W, sigma_v=_SIGMA_V
    )
