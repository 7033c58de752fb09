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
whole row of a stage at once, as array operations over the kernel's flat
entry arrays. A world's `Forecast` holds its field and kernel and computes
each stage's row and ranking once, on first read. From two stages past the
horizon on, a stage has no primary and no lagged term, so every such stage
shares one all-zero row, computed once.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .network import GridNetwork

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
    """Sparse secondary-incident couplings, one entry per coupling.

    Entry i is delta[(source[i], lag[i], target[i])] = ratio[i]: an incident
    at cell source[i] adds ratio[i] times its probability to cell target[i],
    lag[i] in {1, 2} stages later. Entries keep their insertion order, which
    is the order each target's terms are summed in.
    """

    source: np.ndarray = ()
    lag: np.ndarray = ()
    target: np.ndarray = ()
    ratio: np.ndarray = ()

    def __post_init__(self) -> None:
        self.source, self.lag, self.target = (
            np.asarray(a, dtype=np.intp) for a in (self.source, self.lag, self.target)
        )
        self.ratio = np.asarray(self.ratio, dtype=float)
        n = len(self.ratio)
        if any(a.shape != (n,) for a in (self.source, self.lag, self.target, self.ratio)):
            raise InputError("kernel source, lag, target and ratio must be "
                             "flat arrays of one length")
        for bad, what in (
            ((self.lag != 1) & (self.lag != 2), "lag must be 1 or 2"),
            (~(self.ratio >= 0), "ratio must be >= 0"),
            ((self.source < 0) | (self.target < 0), "cells must be >= 0"),
        ):
            if bad.any():
                i = int(bad.argmax())
                raise InputError(
                    f"kernel {what}: entry {i} is ({self.source[i]}, "
                    f"{self.lag[i]}, {self.target[i]}) -> {self.ratio[i]}")


@dataclass(frozen=True)
class FieldConfig:
    prob_range: tuple[float, float] = DEFAULT_PROB_RANGE
    normalize: bool = False
    budget: float = 1.0  # per-stage probability mass when normalizing


def default_kernel(
    net: GridNetwork, lag1: float = DEFAULT_LAG1, lag2: float = DEFAULT_LAG2
) -> DependencyKernel:
    """Couple every cell to its grid neighbours at lags 1 and 2.

    Entries run target by target; within a target, its neighbours up, down,
    left and right, each at lag 1 then lag 2. A lag whose ratio is not
    positive has no entries.
    """
    lags = [(lag, ratio) for lag, ratio in ((1, lag1), (2, lag2)) if ratio > 0]
    k = np.arange(net.n_cells)
    r, c = np.divmod(k, net.cols)
    # one column per (direction, lag), one row per target, read row-major
    has = np.repeat(np.stack(
        [r > 0, r < net.rows - 1, c > 0, c < net.cols - 1], axis=1), len(lags), axis=1)
    step = np.repeat([-net.cols, net.cols, -1, 1], len(lags))
    column_lag = np.tile([lag for lag, _ in lags], 4)
    column_ratio = np.tile([ratio for _, ratio in lags], 4)
    return DependencyKernel(
        source=(k[:, None] + step)[has],
        lag=np.broadcast_to(column_lag, has.shape)[has],
        target=np.broadcast_to(k[:, None], has.shape)[has],
        ratio=np.broadcast_to(column_ratio, has.shape)[has],
    )


def check_prob_range(prob_range: tuple[float, float]) -> None:
    """Reject a cell probability range outside 0 <= lo <= hi <= 1."""
    lo, hi = prob_range
    if not (0.0 <= lo <= hi <= 1.0):
        raise InputError(f"probability range must sit inside [0,1]: ({lo},{hi})")


def generate_field(
    n_cells: int,
    stages: int,
    seed: int = 0,
    config: FieldConfig = FieldConfig(),
) -> PrimaryProbField:
    """Draw a uniform random primary field, optionally stage-normalized."""
    check_prob_range(config.prob_range)
    lo, hi = config.prob_range
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

    np.add.at adds the kernel's terms one entry at a time in entry order, so
    each cell's sum is that of the scalar formula bit for bit.
    """
    if stage < 0:
        raise InputError(f"stage must be >= 0, got {stage}")
    if len(kernel.ratio) and max(kernel.source.max(), kernel.target.max()) >= fld.cells:
        raise InputError(f"kernel couples a cell outside the {fld.cells}-cell field")

    def primary(u: int) -> np.ndarray:
        if 0 <= u < fld.stages:
            return fld.values[u]
        return np.zeros(fld.cells)

    total = primary(stage).astype(float)
    history = np.stack([primary(stage - 1), primary(stage - 2)])
    np.add.at(total, kernel.target,
              kernel.ratio * history[kernel.lag - 1, kernel.source])
    return np.minimum(total, 1.0)


@dataclass
class Forecast:
    """A world's field and kernel, with each stage's expected row and its
    ranking computed once, on first read.

    Rows and rankings are shared by every reader of the world and are
    read-only. Every stage from `field_.stages + 2` on has no primary and
    no lagged history, and shares that stage's row and ranking.
    """

    field_: PrimaryProbField
    kernel: DependencyKernel
    _stages: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _stage(self, stage: int) -> tuple[np.ndarray, np.ndarray]:
        stage = min(stage, self.field_.stages + 2)
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
