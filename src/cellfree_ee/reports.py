"""Convergence reports returned by the inner and outer solvers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max-iter"
STATUS_INFEASIBLE = "infeasible"
# Prefix of a run row whose solve raised; the exception name follows the colon.
STATUS_ERROR = "error"


@dataclass(frozen=True)
class KktReport:
    """First-order optimality summary for one inner solve."""

    objective: float
    stationarity: float  # inf-norm of grad f - sum mu_i grad g_i
    comp_slackness: float  # duality-gap proxy sum_i mu_i s_i
    iterations: int
    status: str
    multipliers: np.ndarray | None = None


@dataclass
class SolveReport:
    """Trajectory and status of an outer solve (parametric or path-following)."""

    lambdas: list = field(default_factory=list)  # bits/Joule scale; empty for SCA
    ee_trajectory: list = field(default_factory=list)
    iterates: list = field(default_factory=list)  # power coefficients per outer step
    inner_reports: list = field(default_factory=list)
    status: str = STATUS_MAX_ITER
    minorant_violations: int = 0

    @property
    def outer_iterations(self) -> int:
        """Outer steps taken: ee_trajectory holds the start and one entry per step."""
        return max(len(self.ee_trajectory) - 1, 0)

    @property
    def ascent_violations(self) -> int:
        """Steps of ee_trajectory that fell by more than 1e-8 relative."""
        traj = self.ee_trajectory
        return sum(new < old * (1.0 - 1e-8) for old, new in zip(traj, traj[1:]))
