"""Incident probability forecast over grid cells and planning stages.

A primary probability field gives, per (cell, stage), the chance a fresh
incident is reported there. A dependency kernel adds secondary pressure: an
incident at a cell raises the probability at its grid neighbours N(k) (up,
down, left and right) one and two stages later, by the fixed ratios
delta_1 = 0.3 and delta_2 = 0.1. The expected probability at (k, u) is

    E[tau(k, u)] = min(1, pr_p[k, u]
                        + sum_{j in N(k)} (delta_1 * pr_p[j, u-1]
                                           + delta_2 * pr_p[j, u-2]))

Stages outside the field horizon contribute zero (no history before stage 0,
nothing anticipated past the horizon). `expected_probability` returns the
whole row of a stage at once, as one shifted-slice add per neighbour
direction and lag over the (rows, cols) grid. A world's `Forecast` holds its
field and kernel and computes each stage's row and ranking once, on first
read. From two stages past the horizon on, a stage has no primary and no
lagged term, so every such stage shares one all-zero row, computed once.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .network import GridNetwork

DEFAULT_PROB_RANGE = (0.0, 0.15)
# the coupling ratios delta_1 and delta_2 of every grid neighbour
DEFAULT_LAG1 = 0.3
DEFAULT_LAG2 = 0.1


@dataclass(frozen=True)
class DependencyKernel:
    """Secondary-incident coupling of every cell of a rows x cols grid to its
    grid neighbours.

    An incident at a cell adds DEFAULT_LAG1 times its probability to each
    neighbour (up, down, left, right) one stage later, and DEFAULT_LAG2
    times it two stages later.
    """

    rows: int
    cols: int


def default_kernel(net: GridNetwork) -> DependencyKernel:
    """Couple every cell to its grid neighbours at lags 1 and 2."""
    return DependencyKernel(net.rows, net.cols)


def generate_field(
    n_cells: int,
    stages: int,
    seed: int = 0,
    *,
    prob_range: tuple[float, float] = DEFAULT_PROB_RANGE,
    normalize: bool = False,
    budget: float = 1.0,
) -> np.ndarray:
    """Draw a uniform random primary field, shape (stages, n_cells), from
    `prob_range` (a Scenario keeps it inside [0, 1]); when normalizing, each
    stage sums to `budget`."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(*prob_range, size=(stages, n_cells))
    if normalize:
        sums = vals.sum(axis=1, keepdims=True)
        nonzero = sums[:, 0] > 0
        vals[nonzero] = vals[nonzero] / sums[nonzero] * budget
    return vals


# (target, source) slices of a (rows, cols) grid that pair each cell with its
# neighbour up, down, left and right of it
_NEIGHBOURS = (
    (np.s_[1:, :], np.s_[:-1, :]),
    (np.s_[:-1, :], np.s_[1:, :]),
    (np.s_[:, 1:], np.s_[:, :-1]),
    (np.s_[:, :-1], np.s_[:, 1:]),
)


def expected_probability(
    fld: np.ndarray,
    kernel: DependencyKernel,
    stage: int,
) -> np.ndarray:
    """Primary plus lagged secondary probability of every cell at `stage`
    (>= 0, a stage of the stage loop), capped at 1, from a (stages, cells)
    primary field of the kernel's grid.

    Each cell adds its terms in one order: its primary, then its neighbours
    up, down, left and right, each at lag 1 then lag 2.
    """
    stages, cells = fld.shape
    shape = (kernel.rows, kernel.cols)

    def primary(u: int) -> np.ndarray:
        return fld[u] if 0 <= u < stages else np.zeros(cells)

    row = primary(stage).astype(float)
    total = row.reshape(shape)  # a view: adds land in `row`
    lagged = [(ratio * primary(stage - lag)).reshape(shape)
              for lag, ratio in ((1, DEFAULT_LAG1), (2, DEFAULT_LAG2))]
    for target, source in _NEIGHBOURS:
        into = total[target]
        for term in lagged:
            into += term[source]
    return np.minimum(row, 1.0)


@dataclass
class Forecast:
    """A world's field and kernel, with each stage's expected row and its
    ranking computed once, on first read.

    Rows and rankings are shared by every reader of the world and are
    read-only. Every stage from two past the field's last on has no primary
    and no lagged history, and shares that stage's row and ranking.
    """

    field_: np.ndarray  # (stages, cells) primary probabilities
    kernel: DependencyKernel
    _stages: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _stage(self, stage: int) -> tuple[np.ndarray, np.ndarray]:
        stage = min(stage, len(self.field_) + 2)
        memo = self._stages.get(stage)
        if memo is None:
            row = expected_probability(self.field_, self.kernel, stage)
            ranking = np.argsort(-row, kind="stable")
            row.flags.writeable = ranking.flags.writeable = False
            memo = self._stages[stage] = (row, ranking)
        return memo

    def row(self, stage: int) -> np.ndarray:
        """Expected incident probability of every cell at a stage."""
        return self._stage(stage)[0]

    def ranking(self, stage: int) -> np.ndarray:
        """Cells by descending expected probability at a stage; ties rank
        the lower cell first."""
        return self._stage(stage)[1]
