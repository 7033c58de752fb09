"""Exception types shared across the package.

The CLI maps these onto process exit codes: ModelDomainError -> 1,
InputError -> 2, CapExceededError -> 3.
"""
from __future__ import annotations


class ModelDomainError(ValueError):
    """A model precondition does not hold (e.g. capacity <= demand)."""


class InputError(ValueError):
    """Malformed or inconsistent user input (files, schemas, CLI args).

    Raised at the gate only: the CLI, the scenario reader and Scenario, plus
    network.py's cell-range and busy-vehicle guards. The layers below the
    gate take its values as given."""


class CapExceededError(RuntimeError):
    """A search or loop would exceed its bound: the exact baseline's
    evaluation cap, or a policy's stage-loop bound."""
