"""Grid road network with travel times on links.

Cells are indexed row-major: cell = row * cols + col. Links exist between
horizontal and vertical neighbours only, weighted by free-flow travel time
in hours. Shortest-path travel times come in whole rows, one per source
cell, computed lazily with scipy's Dijkstra over one CSR graph that holds
every link in both directions; the rows a caller asks for together come from
one Dijkstra call. Rows and graph are cached on the network, which is
immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import InputError

CellId = int

TIME_EPS = 1e-9  # hours: clock readings this close count as the same instant

DEFAULT_EDGE_RANGE = (0.1, 1.5)


@dataclass
class GridNetwork:
    rows: int
    cols: int
    # edge key is (min(a,b), max(a,b)) -> travel time in hours
    edge_time: dict[tuple[CellId, CellId], float]
    _dist_cache: dict[CellId, list[float]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _graph: csr_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols


def build_grid(
    rows: int,
    cols: int,
    edge_time_range: tuple[float, float] = DEFAULT_EDGE_RANGE,
    seed: int = 0,
) -> GridNetwork:
    """Build a rows x cols grid with uniform random link travel times.

    Link times come from one vector draw in a fixed link order (row-major,
    east link then south link), so a seed fully determines the network.
    """
    if rows < 2 or cols < 2:
        raise InputError(f"grid must be at least 2x2, got {rows}x{cols}")
    lo, hi = edge_time_range
    if lo <= 0 or hi < lo:
        raise InputError(f"bad edge time range ({lo}, {hi})")
    # per cell in row-major order, its east link then its south link
    cell = np.arange(rows * cols).reshape(rows, cols, 1)
    ends = np.concatenate([cell + 1, cell + cols], axis=2)
    has = np.stack(np.broadcast_arrays(
        np.arange(cols) < cols - 1, np.arange(rows)[:, None] < rows - 1), axis=2)
    times = np.random.default_rng(seed).uniform(lo, hi, size=int(has.sum()))
    keys = zip(np.broadcast_to(cell, has.shape)[has].tolist(), ends[has].tolist())
    return GridNetwork(rows=rows, cols=cols,
                       edge_time=dict(zip(keys, times.tolist())))


def _dijkstra(net: GridNetwork, sources: list[CellId]) -> list[list[float]]:
    if net._graph is None:
        # both directions stored, so scipy runs directed with no symmetrizing
        ends = np.array(list(net.edge_time), dtype=np.intp)
        both = np.concatenate([ends, ends[:, ::-1]])
        times = np.tile(np.fromiter(net.edge_time.values(), dtype=float), 2)
        net._graph = csr_matrix((times, (both[:, 0], both[:, 1])),
                                shape=(net.n_cells, net.n_cells))
    return dijkstra(net._graph, directed=True, indices=sources).tolist()


def travel_rows(net: GridNetwork, sources: list[CellId]) -> list[list[float]]:
    """Shortest-path travel times in hours from each source to every cell.

    Rows are cached on the network, and the missing ones come from one
    Dijkstra call; callers must not mutate them.
    """
    n = net.n_cells
    for source in sources:
        if not 0 <= source < n:
            raise InputError(f"cell out of range: {source} (grid has {n} cells)")
    cache = net._dist_cache
    missing = [s for s in dict.fromkeys(sources) if s not in cache]
    if missing:
        cache.update(zip(missing, _dijkstra(net, missing)))
    return [cache[s] for s in sources]


def travel_time(net: GridNetwork, a: CellId, b: CellId) -> float:
    """Shortest-path travel time in hours between two cells."""
    n = net.n_cells
    if not (0 <= a < n and 0 <= b < n):
        raise InputError(f"cell out of range: {a}, {b} (grid has {n} cells)")
    if a == b:
        return 0.0
    row = net._dist_cache.get(a)  # the hot path skips a call into travel_rows
    if row is None:
        row = travel_rows(net, [a])[0]
    return row[b]
