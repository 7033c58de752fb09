"""Incident probability forecast over grid cells and planning stages.

A primary probability field gives, per (cell, stage), the chance a fresh
incident is reported there. A dependency kernel adds secondary pressure: an
incident at cell j raises the probability at coupled cells k one and two
stages later. The expected probability at (k, u) is

    E[tau(k, u)] = min(1, pr_p[k, u]
                        + sum_j delta[(j, 1, k)] * pr_p[j, u-1]
                        + sum_j delta[(j, 2, k)] * pr_p[j, u-2])

Stages outside the field horizon contribute zero (no history before stage 0,
nothing anticipated past the horizon). `expected_probability` returns the
whole row of a stage at once, as array operations over the kernel's padded
per-target layout.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import InputError
from .network import CellId, GridNetwork

DEFAULT_PROB_RANGE = (0.0, 0.15)
DEFAULT_LAG1 = 0.3
DEFAULT_LAG2 = 0.1


@dataclass
class PrimaryProbField:
    """Per-stage, per-cell primary incident probabilities."""

    values: np.ndarray  # shape (stages, cells), entries in [0, 1]

    @property
    def stages(self) -> int:
        return self.values.shape[0]

    @property
    def cells(self) -> int:
        return self.values.shape[1]


@dataclass
class DependencyKernel:
    """Sparse secondary-incident couplings.

    delta maps (source cell j, lag in {1, 2}, target cell k) to a
    non-negative ratio.
    """

    delta: dict[tuple[CellId, int, CellId], float] = field(default_factory=dict)
    _layout: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for (j, lag, k), v in self.delta.items():
            if lag not in (1, 2):
                raise InputError(f"kernel lag must be 1 or 2, got {lag}")
            if v < 0:
                raise InputError(f"negative kernel ratio at ({j},{lag},{k})")
            if j < 0 or k < 0:
                raise InputError(f"negative kernel cell at ({j},{lag},{k})")

    def layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Padded (slot, target) arrays of source, lag - 1 and ratio.

        Slot s of column k holds target k's s-th incoming entry in delta
        insertion order; a target with fewer entries is padded with ratio 0
        from source 0. Built on first use, so worlds that never forecast
        (the conventional policy) do not pay for it.
        """
        if self._layout is None:
            n = len(self.delta)
            j, lag, k = np.fromiter(
                chain.from_iterable(self.delta), dtype=np.intp, count=3 * n
            ).reshape(n, 3).T
            # slot of each entry: its rank among the entries of its target
            order = np.argsort(k, kind="stable")
            rank = np.arange(n) - np.searchsorted(k[order], k[order])
            slot = np.empty_like(rank)
            slot[order] = rank
            shape = (int(slot.max(initial=-1)) + 1, int(k.max(initial=-1)) + 1)
            src = np.zeros(shape, dtype=np.intp)
            lag2 = np.zeros(shape, dtype=np.intp)  # 1 at lag 2, 0 at lag 1
            ratio = np.zeros(shape)
            src[slot, k] = j
            lag2[slot, k] = lag - 1
            ratio[slot, k] = np.fromiter(self.delta.values(), dtype=float, count=n)
            self._layout = (src, lag2, ratio)
        return self._layout


@dataclass(frozen=True)
class FieldConfig:
    prob_range: tuple[float, float] = DEFAULT_PROB_RANGE
    normalize: bool = False
    budget: float = 1.0  # per-stage probability mass when normalizing


def default_kernel(
    net: GridNetwork, lag1: float = DEFAULT_LAG1, lag2: float = DEFAULT_LAG2
) -> DependencyKernel:
    """Couple every cell to its grid neighbours at lags 1 and 2."""
    delta: dict[tuple[CellId, int, CellId], float] = {}
    for k in net.cells():
        for j in net.neighbors(k):
            if lag1 > 0:
                delta[(j, 1, k)] = lag1
            if lag2 > 0:
                delta[(j, 2, k)] = lag2
    return DependencyKernel(delta=delta)


def generate_field(
    n_cells: int,
    stages: int,
    seed: int = 0,
    config: FieldConfig = FieldConfig(),
) -> PrimaryProbField:
    """Draw a uniform random primary field, optionally stage-normalized."""
    lo, hi = config.prob_range
    if not (0.0 <= lo <= hi <= 1.0):
        raise InputError(f"probability range must sit inside [0,1]: ({lo},{hi})")
    if stages < 1 or n_cells < 1:
        raise InputError("field needs at least one stage and one cell")
    rng = np.random.default_rng(seed)
    vals = rng.uniform(lo, hi, size=(stages, n_cells))
    if config.normalize:
        sums = vals.sum(axis=1, keepdims=True)
        nonzero = sums[:, 0] > 0
        vals[nonzero] = vals[nonzero] / sums[nonzero] * config.budget
    return PrimaryProbField(values=vals)


def expected_probability(
    fld: PrimaryProbField,
    kernel: DependencyKernel,
    stage: int,
) -> np.ndarray:
    """Primary plus lagged secondary probability of every cell at `stage`,
    capped at 1.

    Each cell's terms are added in delta insertion order, one kernel slot at
    a time, so the sums are those of the scalar formula bit for bit; a
    padding slot adds 0.0 * p = +0.0, which leaves a non-negative sum as it is.
    """
    if stage < 0:
        raise InputError(f"stage must be >= 0, got {stage}")

    def primary(u: int) -> np.ndarray:
        if 0 <= u < fld.stages:
            return fld.values[u]
        return np.zeros(fld.cells)

    total = primary(stage).astype(float)
    history = np.stack([primary(stage - 1), primary(stage - 2)])
    src, lag2, ratio = kernel.layout()
    cells = min(fld.cells, ratio.shape[1])
    src, lag2, ratio = src[:, :cells], lag2[:, :cells], ratio[:, :cells]
    for s in range(ratio.shape[0]):
        total[:cells] += ratio[s] * history[lag2[s], src[s]]
    return np.minimum(total, 1.0)
