"""Proactive traffic-incident dispatch: DCOP planning over a grid network."""
from __future__ import annotations

from .dcop import BinaryConstraint, DcopProblem, total_cost
from .erv import ErvState, StageContext, build_erv_problem
from .forecast import (
    DependencyKernel,
    Forecast,
    default_kernel,
    expected_probability,
    generate_field,
)
from .incidents import (
    Incident,
    TrafficParams,
    delay_variance,
    expected_delay,
    sample_incident,
)
from .network import GridNetwork, build_grid, travel_time
from .scenarios import RunResult, Scenario, materialize, run_policy
from .solvers import SolverConfig, SolveTrace, solve
from .uav import (
    DelayBelief,
    UavState,
    assimilate,
    build_uav_problem,
    cooperation_effect,
    priority_benefit,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryConstraint", "DcopProblem", "total_cost",
    "ErvState", "StageContext", "build_erv_problem",
    "DependencyKernel", "Forecast", "default_kernel",
    "expected_probability", "generate_field",
    "Incident", "TrafficParams", "delay_variance", "expected_delay",
    "sample_incident",
    "GridNetwork", "build_grid", "travel_time",
    "RunResult", "Scenario", "materialize", "run_policy",
    "SolverConfig", "SolveTrace", "solve",
    "DelayBelief", "UavState", "assimilate", "build_uav_problem",
    "cooperation_effect", "priority_benefit",
    "__version__",
]
