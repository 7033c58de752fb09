"""Grid adjacency and link times by row and column arithmetic, and the road
graph built the plain way, for oracles that walk or search a grid."""
import numpy as np
from scipy.sparse import csr_matrix


def grid_neighbors(net, cell: int) -> list[int]:
    """The cells one link from `cell`: up, down, left, right."""
    r, c = divmod(cell, net.cols)
    out = []
    if r > 0:
        out.append(cell - net.cols)
    if r < net.rows - 1:
        out.append(cell + net.cols)
    if c > 0:
        out.append(cell - 1)
    if c < net.cols - 1:
        out.append(cell + 1)
    return out


def link_time(net, a: int, b: int) -> float:
    """The time of the link between neighbour cells `a` and `b`."""
    a, b = min(a, b), max(a, b)
    r, c = divmod(a, net.cols)
    if b == a + 1 and c < net.cols - 1:
        return float(net.east[r, c])
    assert b == a + net.cols, f"cells {a} and {b} are not neighbours"
    return float(net.south[r, c])


def links_by_scalar_draws(rows, cols, lo, hi, seed) -> dict:
    """build_grid's links drawn one scalar uniform at a time: row-major
    cells, each cell's east link then its south link, keyed (a, b), a < b."""
    rng = np.random.default_rng(seed)
    edge_time = {}
    for r in range(rows):
        for c in range(cols):
            a = r * cols + c
            if c < cols - 1:
                edge_time[(a, a + 1)] = float(rng.uniform(lo, hi))
            if r < rows - 1:
                edge_time[(a, a + cols)] = float(rng.uniform(lo, hi))
    return edge_time


def coo_graph(edge_time: dict, n_cells: int) -> csr_matrix:
    """The road graph from a link dict: every link in both directions,
    through scipy's COO to CSR conversion."""
    ends = np.array(list(edge_time), dtype=np.intp)
    both = np.concatenate([ends, ends[:, ::-1]])
    times = np.tile(np.fromiter(edge_time.values(), dtype=float), 2)
    return csr_matrix((times, (both[:, 0], both[:, 1])), shape=(n_cells, n_cells))
