"""Grid network: shortest-path oracle equivalence, metric properties, rows."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from grid_oracle import coo_graph, grid_neighbors, link_time, links_by_scalar_draws
from timdcop.errors import InputError
from timdcop.network import (
    GridNetwork,
    build_grid,
    travel_matrices,
    travel_rows,
    travel_time,
)
from timdcop.scenarios import Scenario


# --------------------------------------------------------------- oracle
# Written before the module code: exhaustive enumeration of every simple
# path between two cells. Exponential, so only for grids up to 4x4.


def best_simple_path_time(net: GridNetwork, start: int, goal: int) -> float:
    best = math.inf
    stack = [(start, 0.0, {start})]
    while stack:
        node, cost, seen = stack.pop()
        if cost >= best:
            continue
        if node == goal:
            best = cost
            continue
        for nxt in grid_neighbors(net, node):
            if nxt not in seen:
                link = link_time(net, node, nxt)
                stack.append((nxt, cost + link, seen | {nxt}))
    return 0.0 if start == goal else best


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4)])
@pytest.mark.parametrize("seed", [0, 7])
def test_shortest_path_matches_enumeration(rows, cols, seed):
    net = build_grid(rows, cols, (0.1, 1.5), seed=seed)
    for a in range(net.n_cells):
        for b in range(net.n_cells):
            assert travel_time(net, a, b) == pytest.approx(
                best_simple_path_time(net, a, b), rel=1e-12
            )


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 9), (9, 2), (5, 7), (40, 40)])
@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_link_times_match_scalar_draws_in_key_order(rows, cols, seed):
    net = build_grid(rows, cols, (0.2, 1.3), seed=seed)
    want = links_by_scalar_draws(rows, cols, 0.2, 1.3, seed)
    assert [link_time(net, a, b) for a, b in want] == list(want.values())
    assert net.east.shape == (rows, cols - 1) and net.south.shape == (rows - 1, cols)
    assert net.east.dtype == net.south.dtype == np.float64
    # shared by every run on the world: no reader may write to them
    assert not net.east.flags.writeable and not net.south.flags.writeable


# every source on the small grids, a sample of sources on 40x40
@pytest.mark.parametrize("rows,cols,n_sources", [
    (2, 2, None), (2, 9, None), (9, 2, None), (5, 7, None), (10, 10, None),
    (40, 40, 60)])
@pytest.mark.parametrize("seed", [0, 7])
def test_rows_and_graph_match_the_coo_built_graph(rows, cols, n_sources, seed):
    net = build_grid(rows, cols, seed=seed)
    oracle = coo_graph(links_by_scalar_draws(rows, cols, 0.1, 1.5, seed),
                       rows * cols)
    sources = list(range(rows * cols))
    if n_sources is not None:
        sources = np.random.default_rng(seed).choice(
            sources, n_sources, replace=False).tolist()
    got = [row.tolist() for row in travel_rows(net, sources)]
    want = dijkstra(oracle, directed=True, indices=sources).tolist()
    assert got == want  # bit for bit
    for name in ("indptr", "indices", "data"):
        ours, theirs = getattr(net._graph, name), getattr(oracle, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name


# ------------------------------------------------------------ invariants


def n_links(net) -> int:
    return net.east.size + net.south.size


def test_edge_count_formula():
    for rows, cols in [(2, 2), (3, 5), (10, 10)]:
        net = build_grid(rows, cols, seed=1)
        assert n_links(net) == 2 * rows * cols - rows - cols
    assert build_grid(10, 10, seed=3).n_cells == 100
    assert n_links(build_grid(10, 10, seed=3)) == 180


def test_degenerate_uniform_range_all_weights_equal():
    net = build_grid(2, 2, (1.0, 1.0), seed=5)
    assert n_links(net) == 4
    assert (net.east == 1.0).all() and (net.south == 1.0).all()


def test_uniform_half_grid_corner_to_corner():
    net = build_grid(3, 3, (0.5, 0.5), seed=0)
    assert travel_time(net, 0, 8) == pytest.approx(2.0)


def test_adjacent_cells_direct_edge():
    # uniform weights: any detour needs >= 3 edges, so the link itself wins
    net = build_grid(2, 2, (0.7, 0.7), seed=2)
    assert travel_time(net, 0, 1) == pytest.approx(0.7)


def test_zero_on_diagonal_and_symmetry_1000_pairs():
    import numpy as np

    net = build_grid(10, 10, seed=11)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        a, b = (int(x) for x in rng.integers(0, net.n_cells, 2))
        assert travel_time(net, a, a) == 0.0
        assert travel_time(net, a, b) == pytest.approx(
            travel_time(net, b, a), rel=1e-12
        )


def test_triangle_inequality_sampled():
    import numpy as np

    net = build_grid(6, 6, seed=4)
    rng = np.random.default_rng(1)
    for _ in range(300):
        a, b, c = (int(x) for x in rng.integers(0, net.n_cells, 3))
        assert travel_time(net, a, c) <= (
            travel_time(net, a, b) + travel_time(net, b, c) + 1e-12
        )


def test_edge_weights_within_range():
    lo, hi = 0.2, 0.9
    net = build_grid(5, 5, (lo, hi), seed=9)
    for link in (net.east, net.south):
        assert ((lo <= link) & (link <= hi)).all()


def test_raising_one_edge_never_shortens_any_path():
    net = build_grid(3, 3, seed=13)
    base = {
        (a, b): travel_time(net, a, b)
        for a in range(net.n_cells)
        for b in range(net.n_cells)
    }
    for link in ("east", "south"):
        heavier = getattr(net, link).copy()
        heavier[0, 0] += 5.0  # the link of cell 0
        net2 = GridNetwork(rows=3, cols=3, **{
            "east": net.east, "south": net.south, link: heavier})
        for pair, t in base.items():
            assert travel_time(net2, *pair) >= t - 1e-12


def test_build_is_deterministic_per_seed():
    a = build_grid(4, 4, seed=21)
    b = build_grid(4, 4, seed=21)
    c = build_grid(4, 4, seed=22)
    for link in ("east", "south"):
        assert np.array_equal(getattr(a, link), getattr(b, link))
        assert not np.array_equal(getattr(a, link), getattr(c, link))


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(2, 4),
    cols=st.integers(2, 4),
    seed=st.integers(0, 10_000),
)
def test_metric_properties_hold_everywhere(rows, cols, seed):
    net = build_grid(rows, cols, seed=seed)
    cells = list(range(net.n_cells))
    for a in cells:
        assert travel_time(net, a, a) == 0.0
        for b in cells:
            assert travel_time(net, a, b) == pytest.approx(
                travel_time(net, b, a), rel=1e-12
            )
            assert travel_time(net, a, b) > 0 or a == b


# ---------------------------------------------------------------- errors


# build_grid takes its size and edge range from a Scenario, which refuses a
# grid under 2x2 and an edge range build_grid cannot draw from


@pytest.mark.parametrize("rows,cols", [(1, 5), (5, 1), (0, 0)])
def test_rejects_degenerate_dimensions(rows, cols):
    key, value = ("grid.rows", rows) if rows < 2 else ("grid.cols", cols)
    with pytest.raises(InputError, match=f"^{key} must be ≥ 2, got {value}$"):
        Scenario(seed=0, rows=rows, cols=cols)


@pytest.mark.parametrize("rng_pair", [(0.0, 1.0), (-0.2, 0.5), (1.0, 0.5)])
def test_rejects_bad_edge_range(rng_pair):
    with pytest.raises(InputError) as refused:
        Scenario(seed=0, edge_time_range=rng_pair)
    assert str(refused.value) == ("grid.edge_time_range must be two finite "
                                  f"numbers 0 < lo ≤ hi, got {rng_pair}")


def test_rejects_out_of_range_cells():
    net = build_grid(2, 2)
    with pytest.raises(InputError):
        travel_time(net, 0, 4)
    with pytest.raises(InputError):
        travel_time(net, -1, 0)


# ------------------------------------------------------------------ rows


def test_travel_row_is_the_cached_row_travel_time_reads():
    net = build_grid(3, 4, seed=17)
    row = travel_rows(net, [5])[0]
    assert row is travel_rows(net, [5])[0]  # built once, then cached
    assert len(net._dist_cache) == 1
    times = [travel_time(net, 5, b) for b in range(net.n_cells)]
    assert row.tolist() == times
    assert all(type(t) is float for t in times)
    with pytest.raises(InputError):
        travel_rows(net, [12])


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 5), (10, 10), (40, 40)])
def test_batched_rows_equal_one_source_rows(rows, cols):
    rng = np.random.default_rng(rows * cols)
    sources = rng.integers(0, rows * cols, size=12).tolist()
    sources += sources[:3]  # repeats share one row
    batched = build_grid(rows, cols, seed=rows)
    single = build_grid(rows, cols, seed=rows)
    got = travel_rows(batched, sources)
    assert [row.tolist() for row in got] == [
        travel_rows(single, [s])[0].tolist() for s in sources]
    assert len(batched._dist_cache) == len(set(sources))
    assert all(got[i] is batched._dist_cache[s] for i, s in enumerate(sources))


def test_cached_rows_are_scipys_read_only_float64_arrays():
    net = build_grid(6, 5, seed=4)
    sources = [29, 0, 13]
    rows = travel_rows(net, sources)
    want = dijkstra(net._graph, directed=True, indices=sources)
    for s, row, w in zip(sources, rows, want):
        assert row is net._dist_cache[s]
        assert type(row) is np.ndarray and row.dtype == np.float64
        assert row.shape == (net.n_cells,) and not row.flags.writeable
        assert row.tobytes() == w.tobytes()  # bit for bit
    with pytest.raises(ValueError):
        rows[0][1] = 0.0  # a shared row cannot be written


def test_travel_rows_open_only_the_missing_rows_in_one_call(monkeypatch):
    from timdcop import network

    net = build_grid(4, 4, seed=3)
    first = travel_rows(net, [5])[0]
    calls = []
    dijkstra = network._dijkstra
    monkeypatch.setattr(network, "_dijkstra",
                        lambda n, s: calls.append(list(s)) or dijkstra(n, s))
    rows = travel_rows(net, [9, 5, 0, 9])
    assert calls == [[9, 0]]
    assert rows[1] is first and rows[0] is rows[3]
    assert sorted(net._dist_cache) == [0, 5, 9]
    assert travel_rows(net, [0, 5]) == [rows[2], first] and len(calls) == 1
    assert travel_rows(net, []) == [] and len(calls) == 1
    with pytest.raises(InputError):
        travel_rows(net, [0, 16])
    assert len(calls) == 1


def test_travel_matrices_gather_every_pair_from_one_call(monkeypatch):
    from timdcop import network

    net = build_grid(5, 4, (0.2, 1.3), seed=8)
    calls = []
    dijkstra = network._dijkstra
    monkeypatch.setattr(network, "_dijkstra",
                        lambda n, s: calls.append(list(s)) or dijkstra(n, s))
    # cell 7's only target is itself, so it opens no row; 3 opens one row
    # for both pairs; sources go in pair order, then cell order
    pairs = (([3, 7, 12], [7]), ([11, 3, 19], [0, 11]), ([7], [7]))
    got = travel_matrices(net, *pairs)
    assert calls == [[3, 12, 11, 19]]
    assert sorted(net._dist_cache) == [3, 11, 12, 19]
    for (cells, targets), m in zip(pairs, got):
        assert m.shape == (len(cells), len(targets)) and m.dtype == np.float64
        want = [[travel_time(net, c, t) for t in targets] for c in cells]
        assert m.tobytes() == np.array(want).tobytes()  # 0.0 on self-pairs
    # a pair whose only target is its own cell opens no row; an empty
    # target list opens none and gives shape (n, 0)
    [same], [empty] = travel_matrices(net, ([6], [6])), travel_matrices(net, ([1, 2], []))
    assert same.tolist() == [[0.0]] and empty.shape == (2, 0)
    assert len(calls) == 1 and 6 not in net._dist_cache


def test_same_cell_lookups_build_no_row():
    net = build_grid(3, 3, seed=2)
    assert travel_time(net, 4, 4) == 0.0
    assert net._dist_cache == {} and net._graph is None
