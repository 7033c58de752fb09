"""ERV stage problems: candidate pricing, look-ahead coverage, fleet bookkeeping."""
import math
from dataclasses import replace

import numpy as np
import pytest

from dcop_oracle import brute_force_optimum, plain
from erv_oracle import myopic_cost, relocation_weight, unary_cost
from hypothesis import given, settings
from hypothesis import strategies as st

from timdcop import network
from timdcop.dcop import assignment_problem
from timdcop.erv import (
    FUTURE_PARAMS,
    StageContext,
    apply_assignment,
    build_erv_problem,
    forecast_hotspots,
    relocation_candidates,
)
from timdcop.errors import InputError
from timdcop.forecast import DependencyKernel, Forecast, generate_field
from timdcop.incidents import (
    Incident,
    TrafficParams,
    expected_delay,
    reference_params,
    sample_params,
)
from timdcop.network import Vehicle, build_grid, travel_time
from timdcop.scenarios import Scenario, _run_stages, materialize

PARAMS = TrafficParams(
    s=1800.0, s1_mean=1100.0, s1_sd=200.0, q=1500.0, r_var=0.04, clearance=0.3
)


def zero_field(n_cells: int, n_stages: int = 6) -> np.ndarray:
    return np.zeros((n_stages, n_cells))


def make_ctx(net, field_=None, incidents=(), **kw) -> StageContext:
    defaults = dict(
        net=net,
        forecast=Forecast(
            field_ if field_ is not None else zero_field(net.n_cells),
            DependencyKernel(net.rows, net.cols),
        ),
        stage_time=0.0,
        stage_index=0,
        open_incidents=list(incidents),
        lookahead=0,
        relocation_k=3,
    )
    defaults.update(kw)
    return StageContext(**defaults)


def incident(id_, cell, report_time=0.0, params=PARAMS) -> Incident:
    return Incident(
        id=id_, location=cell, severity=2, report_time=report_time, params=params,
        hazard=3, sparsity=3,
    )


def built_cost(ctx, fleet, erv, cell):
    """The unary entry build_erv_problem gives `erv` on `cell`."""
    problem = build_erv_problem(ctx, fleet)
    return problem.unary[erv.id][problem.index[erv.id][cell]]


# ---------------------------------------------------------- cell pricing


def test_dispatch_cost_is_weighted_expected_delay():
    net = build_grid(3, 3, (0.4, 1.2), seed=5)
    inc = incident("i0", 4)
    ctx = make_ctx(net, incidents=[inc])
    erv = Vehicle(id="e0", cell=0)
    # the dispatch weight is 1: the entry is the expected delay itself
    want = expected_delay(inc.params, travel_time(net, 0, 4))
    assert built_cost(ctx, [erv], erv, 4) == want


def test_relocation_cost_of_hopeless_cell_is_full_weight():
    net = build_grid(2, 2, (0.5, 0.5), seed=0)
    ctx = make_ctx(net, relocation_k=4)  # zero field: probability 0
    erv = Vehicle(id="e", cell=0)
    # no open incident to scale from: w_r is 100 x the dispatch weight
    assert built_cost(ctx, [erv], erv, 3) == 100.0


def test_likelier_cells_are_cheaper_to_cover():
    net = build_grid(2, 3, (0.5, 0.5), seed=0)
    values = np.zeros((4, 6))
    values[1, 2] = 0.7   # stage u+1 drives this stage's relocation price
    values[1, 5] = 0.2
    ctx = make_ctx(net, field_=values)
    erv = Vehicle(id="e", cell=0)
    assert built_cost(ctx, [erv], erv, 2) == pytest.approx(30.0)
    assert built_cost(ctx, [erv], erv, 5) == pytest.approx(80.0)
    assert built_cost(ctx, [erv], erv, 2) < built_cost(ctx, [erv], erv, 5)


def test_relocation_candidates_rank_ties_and_exclusions():
    net = build_grid(3, 3, (0.5, 0.5), seed=0)
    values = np.zeros((3, 9))
    values[1, 2] = 0.4
    values[1, 5] = 0.4
    values[1, 7] = 0.6
    values[1, 8] = 0.9  # occupied by an incident: must be excluded
    ctx = make_ctx(
        net,
        field_=values,
        incidents=[incident("i0", 8)],
    )
    assert relocation_candidates(ctx, 3) == [7, 2, 5]  # tie 2/5 -> lower index
    assert relocation_candidates(ctx, 2) == [7, 2]
    # zero-probability tail falls back to index order
    assert relocation_candidates(ctx, 5) == [7, 2, 5, 0, 1]
    # plain ints, not numpy scalars: cells end up in the output files
    assert all(type(c) is int for c in relocation_candidates(ctx, 9))


@pytest.mark.parametrize("seed", range(20))
def test_relocation_candidates_match_a_scan_of_every_ranked_cell(seed):
    rng = np.random.default_rng(seed + 900)
    net = build_grid(4, 4, (0.5, 0.5), seed=0)
    # coarse values: many ties; incidents often sit on top-ranked cells
    values = rng.integers(0, 3, size=(3, 16)) / 10
    cells = rng.choice(16, size=int(rng.integers(0, 10)), replace=False)
    incidents = [incident(f"i{n}", int(c)) for n, c in enumerate(cells)]
    ctx = make_ctx(net, field_=values,
                   incidents=incidents)
    ranked = np.argsort(-ctx.forecast.row(1), kind="stable").tolist()
    for k in range(17):
        assert relocation_candidates(ctx, k) == [
            c for c in ranked if c not in set(cells.tolist())][:k]


def test_forecast_hotspots_drop_zero_probability_cells():
    net = build_grid(2, 2, (0.5, 0.5), seed=0)
    values = np.zeros((4, 4))
    values[2, 1] = 0.3
    ctx = make_ctx(net, field_=values)
    assert forecast_hotspots(ctx, 2, 4) == [(1, 0.3)]
    assert forecast_hotspots(ctx, 1, 4) == []
    [(c, p)] = forecast_hotspots(ctx, 2, 4)
    assert type(c) is int and type(p) is float


def test_incident_at_returns_oldest_then_lowest_id():
    net = build_grid(2, 2, (0.5, 0.5), seed=0)
    a = incident("i-late", 1, report_time=0.5)
    b = incident("i-b", 1, report_time=0.0)
    c = incident("i-a", 1, report_time=0.0)
    d = incident("i-d", 3, report_time=0.5)
    # the open list comes in the world's (report time, id) order, as the
    # stage loop keeps it: earliest report, then lexicographic id
    in_world_order = [c, b, d, a]
    assert in_world_order == sorted([a, b, c, d], key=lambda i: (i.report_time, i.id))
    ctx = make_ctx(net, incidents=in_world_order)
    # a cell with no incident is absent
    assert ctx.oldest == {1: c, 3: d}
    assert ctx.oldest[1] is c and 2 not in ctx.oldest
    # a served incident leaves the open list, and the next one takes the cell
    assert make_ctx(net, incidents=[b, d, a]).oldest[1] is b
    # the context trusts the order it is given: it sorts nothing
    assert make_ctx(net, incidents=[a, b]).oldest[1] is a


# ------------------------------------------------------------- look-ahead


def coverage_of(problem, ctx, erv):
    """Per candidate cell: the look-ahead share of the built unary costs."""
    row = problem.unary[erv.id]
    w_r = relocation_weight(ctx, [erv])
    return {
        cell: row[j] - myopic_cost(ctx, erv, cell, w_r)
        for j, cell in enumerate(problem.domains[erv.id])
    }


@pytest.mark.parametrize("seed", range(5))
def test_built_costs_add_expected_delay_to_forecast_hotspots(seed):
    net = build_grid(4, 4, (0.3, 1.0), seed=seed)
    field_ = generate_field(16, 6, seed=seed + 40)
    inc = Incident("i0", 5, 3, 0.0, sample_params(3, np.random.default_rng(seed)), 3, 3)
    erv = Vehicle(id="e0", cell=0)
    ctx = make_ctx(net, field_=field_, incidents=[inc], lookahead=2,
                   relocation_k=4, stage_index=1)
    problem = build_erv_problem(ctx, [erv])
    hotspots = [
        hit for t in (1, 2) for hit in forecast_hotspots(ctx, 1 + t, 4)
    ]
    assert hotspots
    for cell, got in coverage_of(problem, ctx, erv).items():
        want = sum(
            p * expected_delay(FUTURE_PARAMS, travel_time(net, cell, c))
            for c, p in hotspots
        )
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    ctx0 = replace(ctx, lookahead=0)
    myopic = build_erv_problem(ctx0, [erv])
    assert all(v == 0.0 for v in coverage_of(myopic, ctx0, erv).values())


def test_coverage_is_cheaper_nearer_the_hotspot():
    net = build_grid(3, 3, (0.5, 0.5), seed=0)
    values = np.zeros((3, 9))
    values[2, 4] = 0.9  # centre cell, two stages out
    ctx = make_ctx(net, field_=values,
                   lookahead=2, relocation_k=3)
    erv = Vehicle(id="e", cell=0)
    problem = build_erv_problem(ctx, [erv])
    # zero next-stage field: the candidates are the first cells by index
    assert problem.domains["e"] == [0, 1, 2]
    cover = coverage_of(problem, ctx, erv)
    # cell 1 is one hop from the centre, cells 0 and 2 two hops
    assert 0.0 < cover[1] < cover[0]
    assert cover[0] == pytest.approx(cover[2])
    assert cover[1] == pytest.approx(0.9 * expected_delay(FUTURE_PARAMS, 0.5))


def test_built_entry_prices_the_oldest_uncleared_incident_on_a_cell():
    net = build_grid(4, 4, (0.3, 1.0), seed=2)
    field_ = generate_field(16, 6, seed=41)
    slow = replace(PARAMS, s1_mean=700.0)
    # an older incident on the cell was served: it is not in the open list
    first = incident("i-first", 5, report_time=0.2)
    later = incident("i-later", 5, report_time=0.4, params=slow)
    erv = Vehicle(id="e0", cell=0)
    ctx = make_ctx(net, field_=field_, incidents=[first, later],
                   lookahead=2, relocation_k=4, stage_index=1)
    problem = build_erv_problem(ctx, [erv])
    assert ctx.oldest == {5: first}
    cover = 0.0
    for t in (1, 2):
        for c, p in forecast_hotspots(ctx, 1 + t, 4):
            cover += p * expected_delay(FUTURE_PARAMS, travel_time(net, 5, c))
    assert cover > 0.0
    j = problem.domains["e0"].index(5)
    dispatch = expected_delay(first.params, travel_time(net, 0, 5))
    assert problem.unary["e0"][j] == dispatch + cover
    assert dispatch != expected_delay(slow, travel_time(net, 0, 5))
    # the one open cell is also the costliest dispatch behind w_r
    w_r = 100.0 * (dispatch + cover)
    assert problem.unary["e0"].tolist() == [
        unary_cost(ctx, erv, c, w_r) for c in problem.domains["e0"]]


def test_build_past_the_forecast_horizon_opens_only_dispatch_rows():
    net = build_grid(3, 3, (0.5, 0.9), seed=1)
    ctx = make_ctx(net, field_=generate_field(9, 3, seed=2),
                   incidents=[incident("i0", 8)], lookahead=2,
                   relocation_k=3, stage_index=5)
    assert [forecast_hotspots(ctx, 5 + t, 3) for t in (1, 2)] == [[], []]
    fleet = [Vehicle(id="e0", cell=0), Vehicle(id="e1", cell=4)]
    problem = build_erv_problem(ctx, fleet)
    assert problem.domains["e0"] == [8, 0, 1, 2]
    # rows from the vehicles to the incident, none for the coverage term
    assert sorted(net._dist_cache) == [0, 4]


# ------------------------------------------------- array build vs oracle


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lookahead=st.sampled_from([0, 1, 2]))
def test_built_stage_equals_the_scalar_oracle(seed, lookahead):
    """Every unary entry, w_r included, equals the per-cell scalar pricing
    bit for bit, and the build opens the rows the oracle opens, in at most
    one Dijkstra call."""
    rng = np.random.default_rng(seed)
    rows, cols = (int(x) for x in rng.integers(2, 6, size=2))
    n = rows * cols
    net = build_grid(rows, cols, (0.1, 1.5), seed=seed)
    field_ = generate_field(n, 6, seed=seed)
    incidents = []
    for j in range(int(rng.integers(0, 5))):
        severity, cell = int(rng.integers(1, 5)), int(rng.integers(0, n))
        inc = Incident(f"i{j}", cell, severity, float(rng.integers(0, 3)) / 2,
                       sample_params(severity, rng), 3, 3)
        if rng.random() >= 0.2:  # one in five was served: not open
            incidents.append(inc)
    # the open list in the world's (report time, id) order
    incidents.sort(key=lambda i: (i.report_time, i.id))
    fleet = [
        Vehicle(id=f"e{j}", cell=int(rng.integers(0, n)),
                available_at=float(rng.random() < 0.2))
        for j in range(int(rng.integers(1, 5)))
    ]
    fleet[0].available_at = 0.0
    ctx = make_ctx(
        net, field_=field_, incidents=incidents, lookahead=lookahead,
        relocation_k=int(rng.integers(0, 6)), stage_index=int(rng.integers(0, 5)),
    )
    # the stage loop hands the builder only the vehicles free at its time
    free = [e for e in fleet if e.is_free(0.0)]

    calls = []
    dijkstra = network._dijkstra

    def counted(net_, sources):
        calls.append(list(sources))
        return dijkstra(net_, sources)

    network._dijkstra = counted
    try:
        problem = build_erv_problem(ctx, free)
    finally:
        network._dijkstra = dijkstra
    assert len(calls) <= 1

    scalar_net = build_grid(rows, cols, (0.1, 1.5), seed=seed)
    scalar = replace(ctx, net=scalar_net)
    w_r = relocation_weight(scalar, free)
    for e in free:
        got = problem.unary[e.id].tolist()
        assert got == [unary_cost(scalar, e, c, w_r) for c in problem.domains[e.id]]
    agents = [e.id for e in sorted(free, key=lambda e: e.id)]
    assert plain(problem) == plain(assignment_problem(
        agents, problem.domains[agents[0]], [problem.unary[a] for a in agents], "min"))
    assert sorted(net._dist_cache) == sorted(scalar_net._dist_cache)
    assert all(net._dist_cache[s].tolist() == row.tolist()
               for s, row in scalar_net._dist_cache.items())


# ------------------------------------------------------------ stage DCOPs


def test_two_ervs_one_incident_sends_exactly_one():
    net = build_grid(3, 3, (0.4, 1.0), seed=3)
    inc = incident("i0", 4)
    ctx = make_ctx(net, incidents=[inc])
    fleet = [Vehicle(id="e0", cell=0), Vehicle(id="e1", cell=8)]
    problem = build_erv_problem(ctx, fleet)
    assert problem.agents == ["e0", "e1"]
    best, _ = brute_force_optimum(problem)
    assert sum(1 for cell in best.values() if cell == 4) == 1
    assert len(set(best.values())) == 2


def test_one_erv_two_incidents_takes_the_cheaper_delay():
    net = build_grid(3, 3, (0.4, 1.0), seed=4)
    rng = np.random.default_rng(11)
    a = Incident("a", 2, 3, 0.0, sample_params(3, rng), 3, 3)
    b = Incident("b", 7, 3, 0.0, sample_params(3, rng), 3, 3)
    ctx = make_ctx(net, incidents=[a, b])
    erv = Vehicle(id="e0", cell=1)
    problem = build_erv_problem(ctx, [erv])
    assert problem.binary == [] and len(problem.unary) == 1
    best, _ = brute_force_optimum(problem)
    want = min(
        (expected_delay(i.params, travel_time(net, 1, i.location)), i.location)
        for i in (a, b)
    )[1]
    assert best == {"e0": want}


@pytest.mark.parametrize("algorithm", ["mgm", "dsa"])
def test_stage_objective_counts_each_vehicle_once(algorithm):
    from timdcop.solvers import solve

    net = build_grid(3, 3, (0.3, 1.0), seed=8)
    field_ = generate_field(9, 6, seed=19)
    rng = np.random.default_rng(3)
    incidents = [
        Incident(f"i{j}", c, 2, 0.0, sample_params(2, rng), 3, 3)
        for j, c in enumerate((2, 6))
    ]
    fleet = [Vehicle(id=f"e{i}", cell=c) for i, c in enumerate((0, 4, 8))]
    ctx = make_ctx(net, field_=field_, incidents=incidents)
    problem = build_erv_problem(ctx, fleet)
    assert len(problem.binary) == 3
    sc = Scenario(seed=0, algorithm=algorithm, iterations=20, dsa_threshold=0.9)
    trace = solve(problem, sc, 1)
    chosen = trace.final_assignment
    assert len(set(chosen.values())) == 3
    # lookahead 0: each unary entry is exactly the vehicle's myopic cost
    w_r = relocation_weight(ctx, fleet)
    want = sum(myopic_cost(ctx, e, chosen[e.id], w_r) for e in fleet)
    assert trace.final_cost == pytest.approx(want, rel=1e-12)
    assert trace.final_cost == sum(
        problem.unary[e.id][problem.index[e.id][chosen[e.id]]] for e in fleet
    )


def test_idle_fleet_spreads_over_top_probability_cells():
    net = build_grid(3, 3, (0.5, 0.5), seed=0)
    values = np.zeros((3, 9))
    values[1] = [0.05, 0.3, 0.0, 0.6, 0.1, 0.0, 0.45, 0.0, 0.2]
    ctx = make_ctx(net, field_=values, relocation_k=3)
    fleet = [Vehicle(id=f"e{i}", cell=i) for i in range(3)]
    problem = build_erv_problem(ctx, fleet)
    best, _ = brute_force_optimum(problem)
    assert set(best.values()) == {3, 6, 1}  # the three likeliest cells
    # no dispatches to scale from: w_r is 100 on each miss probability
    assert problem.unary["e0"] == pytest.approx(
        [100.0 * (1.0 - values[1][c]) for c in problem.domains["e0"]])


def test_busy_vehicles_are_left_out_of_the_stage_problem():
    # the stage loop finds the free vehicles; the builder makes an agent of
    # each vehicle it is given, in id order
    sc = Scenario(seed=0, schedule=(0, 0, 0), rows=2, cols=2, n_ervs=2)
    w = materialize(sc)
    fleet = [
        Vehicle(id="e1", cell=3, available_at=0.9),
        Vehicle(id="e0", cell=0, available_at=5.0),
    ]
    agents = []

    def step(stage, t, open_inc, free):
        if free:
            ctx = make_ctx(w.net, stage_time=t, stage_index=stage)
            agents.append((t, build_erv_problem(ctx, free).agents))
        return [], {"erv_assignments": []}

    _run_stages(sc, w, fleet, step)
    assert agents == [(1.0, ["e1"])]
    ctx = make_ctx(w.net, stage_time=5.0)
    assert build_erv_problem(ctx, fleet).agents == ["e0", "e1"]


def test_auto_weight_is_hundredfold_worst_dispatch():
    net = build_grid(3, 3, (0.4, 1.2), seed=9)
    a, b = incident("a", 2), incident("b", 6)
    ctx = make_ctx(net, incidents=[a, b])
    fleet = [Vehicle(id="e0", cell=0), Vehicle(id="e1", cell=4)]
    problem = build_erv_problem(ctx, fleet)
    worst = max(
        expected_delay(i.params, travel_time(net, e.cell, i.location))
        for e in fleet for i in (a, b)
    )
    # zero field, no look-ahead: a relocation entry is w_r itself
    assert problem.domains["e0"][:2] == [2, 6]
    assert problem.unary["e0"][2:] == pytest.approx([100.0 * worst] * 3, rel=1e-12)


@pytest.mark.parametrize("seed", range(50))
def test_open_incidents_outrank_relocation_under_auto_weight(seed):
    rng = np.random.default_rng(seed)
    net = build_grid(3, 3, (0.3, 1.0), seed=seed)
    field_ = generate_field(9, 6, seed=seed + 400)
    n_open = int(rng.integers(1, 3))
    n_free = int(rng.integers(n_open, 4))
    cells = rng.choice(9, size=n_open + n_free, replace=False)
    incidents = []
    for j in range(n_open):
        severity = int(rng.integers(1, 5))
        incidents.append(Incident(f"i{j}", int(cells[j]), severity, 0.0,
                                  sample_params(severity, rng), 3, 3))
    fleet = [
        Vehicle(id=f"e{j}", cell=int(cells[n_open + j])) for j in range(n_free)
    ]
    ctx = make_ctx(net, field_=field_, incidents=incidents, relocation_k=2)
    problem = build_erv_problem(ctx, fleet)
    best, cost = brute_force_optimum(problem)
    assert math.isfinite(cost)
    chosen = set(best.values())
    assert len(chosen) == n_free  # the conflict constraint held
    for inc in incidents:
        assert inc.location in chosen  # every open incident gets a vehicle


def test_context_validation():
    # a context's lookahead comes from its Scenario, which checks it
    assert FUTURE_PARAMS == reference_params()


# ---------------------------------------------------------- bookkeeping


def test_dispatch_bookkeeping_and_record():
    net = build_grid(3, 3, (0.5, 0.5), seed=0)
    inc = incident("i0", 1, report_time=0.0)
    ctx = make_ctx(net, incidents=[inc], stage_time=1.0)
    erv = Vehicle(id="e0", cell=0)
    records = apply_assignment(ctx, [erv], {"e0": 1})
    assert len(records) == 1
    rec = records[0]
    assert rec.incident is inc and rec.erv_id == "e0"
    assert rec.response_h == pytest.approx(1.5)  # waited 1.0 + travel 0.5
    assert erv.cell == 1
    assert erv.available_at == pytest.approx(1.8)  # 1.0 + 0.5 + 0.3 clearance
    assert not erv.is_free(1.7)
    assert erv.is_free(1.8)


def test_relocation_bookkeeping_clears_nothing():
    net = build_grid(3, 3, (0.5, 0.5), seed=0)
    inc = incident("i0", 8)
    ctx = make_ctx(net, incidents=[inc], stage_time=2.0)
    erv = Vehicle(id="e0", cell=0)
    records = apply_assignment(ctx, [erv], {"e0": 4})
    assert records == []  # the open incident on cell 8 is not served
    assert erv.cell == 4
    assert erv.available_at == pytest.approx(3.0)  # 2.0 + two 0.5 edges


def test_apply_assignment_rejects_a_busy_vehicle():
    net = build_grid(2, 2, (0.5, 0.5), seed=0)
    ctx = make_ctx(net)
    with pytest.raises(InputError):
        apply_assignment(
            ctx, [Vehicle(id="e0", cell=0, available_at=9.0)], {"e0": 1}
        )


def test_two_stage_cycle_frees_the_vehicle_again():
    net = build_grid(2, 2, (0.5, 0.5), seed=0)
    inc0 = incident("i0", 1, report_time=0.0)
    inc1 = incident("i1", 2, report_time=0.5)
    erv = Vehicle(id="e0", cell=0)
    ctx0 = make_ctx(net, incidents=[inc0], stage_time=0.0)
    apply_assignment(ctx0, [erv], {"e0": 1})
    assert erv.available_at == pytest.approx(0.8)
    # busy at the next stage boundary, so the stage loop does not task it
    assert not erv.is_free(0.5)
    # one stage later it is free and can clear the backlog (auto weight
    # keeps the dispatch ahead of any relocation cell)
    ctx2 = make_ctx(net, incidents=[inc1], stage_time=1.0)
    problem = build_erv_problem(ctx2, [erv])
    best, _ = brute_force_optimum(problem)
    assert best == {"e0": 2}
    records = apply_assignment(ctx2, [erv], best)
    assert records[0].response_h == pytest.approx(
        (1.0 - 0.5) + travel_time(net, 1, 2)
    )
