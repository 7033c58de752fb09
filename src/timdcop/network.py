"""Grid road network with travel times on links.

Cells are indexed row-major: cell = row * cols + col. Links exist between
horizontal and vertical neighbours only, weighted by free-flow travel time
in hours and held as two arrays indexed by (row, col): `east` for the link
to the right-hand neighbour, `south` for the link to the one below.
Shortest-path travel times come in whole rows, one per source cell, computed
lazily with scipy's Dijkstra over one CSR graph that holds every link in
both directions, built from the arrays on the first Dijkstra call; the rows
a caller asks for together come from one Dijkstra call. A row is the
read-only float64 array scipy returns, and `travel_matrices` gathers from
rows by index the (vehicle x cell) matrices both stage problems price. Rows
and graph are cached on the network, which is immutable after construction.
A `Vehicle`, ERV or UAV alike, moves between cells at these travel times.
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


@dataclass(eq=False)  # array fields: compare networks by identity
class GridNetwork:
    rows: int
    cols: int
    # hours; east[r, c] links (r, c) to (r, c + 1), shape (rows, cols - 1),
    # south[r, c] links (r, c) to (r + 1, c), shape (rows - 1, cols)
    east: np.ndarray
    south: np.ndarray
    _dist_cache: dict[CellId, np.ndarray] = field(default_factory=dict, repr=False)
    _graph: csr_matrix | None = field(default=None, repr=False)

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
    east link then south link), laid out into `east` and `south`, so a seed
    fully determines the network.
    """
    lo, hi = edge_time_range
    # per cell in row-major order, its east link then its south link
    has = np.stack(np.broadcast_arrays(
        np.arange(cols) < cols - 1, np.arange(rows)[:, None] < rows - 1), axis=2)
    links = np.zeros(has.shape)
    links[has] = np.random.default_rng(seed).uniform(lo, hi, size=int(has.sum()))
    east, south = links[:, :-1, 0].copy(), links[:-1, :, 1].copy()
    east.flags.writeable = south.flags.writeable = False
    return GridNetwork(rows=rows, cols=cols, east=east, south=south)


def _dijkstra(net: GridNetwork, sources: list[CellId]) -> np.ndarray:
    if net._graph is None:
        # per cell, its links up, left, right and down: each CSR row lists
        # its neighbours in ascending cell order. Both directions are stored,
        # so scipy runs directed with no symmetrizing.
        rows, cols, n = net.rows, net.cols, net.n_cells
        times = np.zeros((rows, cols, 4))
        times[1:, :, 0] = net.south
        times[:, 1:, 1] = net.east
        times[:, :-1, 2] = net.east
        times[:-1, :, 3] = net.south
        has = np.zeros((rows, cols, 4), dtype=bool)
        has[1:, :, 0] = has[:, 1:, 1] = has[:, :-1, 2] = has[:-1, :, 3] = True
        ends = np.arange(n, dtype=np.int32).reshape(rows, cols, 1) + np.array(
            [-cols, -1, 1, cols], dtype=np.int32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(has.sum(axis=2).ravel(), out=indptr[1:])
        net._graph = csr_matrix((times[has], ends[has], indptr), shape=(n, n))
    dist = dijkstra(net._graph, directed=True, indices=sources)
    dist.flags.writeable = False  # its rows are cached and shared
    return dist


def travel_rows(net: GridNetwork, sources: list[CellId]) -> list[np.ndarray]:
    """Shortest-path travel times in hours from each source to every cell.

    Each row is a read-only float64 array over the cells. Rows are cached on
    the network, and the missing ones come from one Dijkstra call.
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


def travel_matrices(net: GridNetwork, *pairs: tuple[list[CellId], list[CellId]]
                    ) -> list[np.ndarray]:
    """Travel times in hours, one (cells x targets) matrix per (cells, targets)
    pair. A cell's row is opened only when one of its targets lies away from
    it (a cell without one reads 0.0); the missing rows of every pair come
    from one Dijkstra call, sources in pair order, then cell order."""
    sources = [c for cells, targets in pairs for c in cells
               if targets.count(c) < len(targets)]  # a target lies away from c
    rows = dict(zip(sources, travel_rows(net, sources)))
    out = []
    for cells, targets in pairs:
        m = np.zeros((len(cells), len(targets)))
        at = np.array(targets, dtype=np.intp)  # converted once, not per row
        for r, c in enumerate(cells):
            if c in rows:
                m[r] = rows[c][at]
        out.append(m)
    return out


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
    return row.item(b)


@dataclass
class Vehicle:
    """An ERV or a UAV: its id, its cell and the time it is next free."""

    id: str
    cell: CellId
    available_at: float = 0.0  # free for tasking at/after this time

    def is_free(self, now: float) -> bool:
        return self.available_at <= now + TIME_EPS

    def move_to(self, net: GridNetwork, cell: CellId, now: float) -> float:
        """Leave for `cell` at `now`: the vehicle is next free on arrival.
        Returns the travel time. A vehicle still busy at `now` is refused."""
        if not self.is_free(now):
            raise InputError(f"{self.id} is not free at t={now}")
        travel = travel_time(net, self.cell, cell)
        self.cell = cell
        self.available_at = now + travel
        return travel
