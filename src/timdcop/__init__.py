"""Proactive traffic-incident dispatch: DCOP planning over a grid network."""
from __future__ import annotations

from .scenarios import RunResult, Scenario, materialize, run_policy

__version__ = "0.1.0"

__all__ = ["RunResult", "Scenario", "materialize", "run_policy", "__version__"]
