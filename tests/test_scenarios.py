"""End-to-end policy runs: accounting identities, orderings, reproducibility."""
import csv
import dataclasses
import itertools
import json
import math
import random
import re
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import conventional_oracle
import params_oracle
from exact_oracle import price_legs, steepest_descent
from result_oracle import result_to_dict

from timdcop import forecast, scenarios
from timdcop.errors import CapExceededError, InputError
from timdcop.incidents import Incident, TrafficParams, expected_delay
from timdcop.scenarios import (
    IncidentOutcome,
    RunResult,
    Scenario,
    StageOutcome,
    materialize,
    result_to_json,
    run_conventional,
    run_opt,
    run_policy,
    run_proactive,
    scenario_from_dict,
    scenario_to_dict,
    write_incident_csv,
    write_stage_csv,
)
from timdcop.solvers import MAX_ITERATIONS
from timdcop.uav import AssimilationRecord

POLICIES = ("conventional", "pdronetim", "opt")
PARAMS = TrafficParams(
    s=1800.0, s1_mean=1100.0, s1_sd=200.0, q=1500.0, r_var=0.04, clearance=0.3
)


def small(seed, schedule, **kw) -> Scenario:
    defaults = dict(rows=4, cols=4, n_ervs=2)
    defaults.update(kw)
    return Scenario(seed=seed, schedule=tuple(schedule), **defaults)


# ------------------------------------------------------------- degenerate


def test_one_vehicle_one_request_all_policies_agree():
    sc = small(301, (1,), n_ervs=1)
    world = materialize(sc)
    results = [run_policy(sc, p, world) for p in POLICIES]
    delays = [r.total_delay_veh_h for r in results]
    responses = [r.total_response_min for r in results]
    # a single mandatory dispatch leaves no room for policy differences
    assert delays[0] == pytest.approx(delays[1], abs=1e-9)
    assert delays[0] == pytest.approx(delays[2], abs=1e-9)
    assert responses[0] == pytest.approx(responses[1], abs=1e-9)
    assert responses[0] == pytest.approx(responses[2], abs=1e-9)
    assert all(len(r.incidents) == 1 for r in results)


def test_request_free_world_costs_nothing():
    sc = small(306, (0, 0, 0))
    world = materialize(sc)
    assert world.incidents == []
    conv = run_conventional(sc, world)
    pro = run_proactive(sc, world)
    opt = run_opt(sc, world)
    for r in (conv, pro, opt):
        assert r.total_delay_veh_h == 0.0
        assert r.total_response_min == 0.0
        assert r.incidents == []
    # every scheduled stage still runs; the proactive fleet keeps relocating
    assert [s.stage for s in pro.stages] == [0, 1, 2]
    kinds = {a[2] for s in pro.stages for a in s.erv_assignments}
    assert kinds == {"relocate"}
    assert all(s.erv_assignments == [] for s in conv.stages)
    assert opt.opt_nodes == 0


# ------------------------------------------------------------- accounting


@pytest.mark.parametrize("policy", POLICIES)
def test_totals_are_sums_over_incident_outcomes(policy):
    sc = small(310, (2, 1, 2), n_ervs=2, n_uavs=1)
    res = run_policy(sc, policy)
    assert res.policy == policy
    assert res.total_delay_veh_h == pytest.approx(
        sum(o.delay_veh_h for o in res.incidents), rel=1e-12
    )
    assert res.total_response_min == pytest.approx(
        60.0 * sum(o.response_h for o in res.incidents), rel=1e-12
    )


def test_totals_are_plain_adds_in_outcome_order():
    # a plain loop gives 0.0 here and a compensated sum (sum() from Python
    # 3.12) gives 1.0; on 3.11 sum() is a plain loop too, so there the two
    # read alike
    outcomes = [
        IncidentOutcome(incident=Incident(f"i{k}", 0, 1, 0.0, PARAMS, 1, 1),
                        erv_id="erv0", response_h=x, delay_veh_h=x,
                        delay_var=0.0, cooperating=False)
        for k, x in enumerate([1e16, 1.0, -1e16])
    ]
    res = scenarios._finish("conventional", small(1, (3,)), [], outcomes, [])
    assert res.total_delay_veh_h == 0.0
    assert res.total_response_min == 0.0
    assert repr(scenarios._finish("conventional", small(1, (0,)), [], [], [])
                .total_delay_veh_h) == "0.0"


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [311, 312, 313])
def test_every_request_is_served_exactly_once(policy, seed):
    sc = small(seed, (2, 2, 1), n_ervs=2)
    world = materialize(sc)
    res = run_policy(sc, policy, world)
    assert sorted(o.incident.id for o in res.incidents) == sorted(
        i.id for i in world.incidents
    )
    for o in res.incidents:
        assert o.response_h >= 0.0
        assert math.isfinite(o.delay_veh_h) and o.delay_veh_h >= 0.0
        assert math.isfinite(o.delay_var) and o.delay_var >= 0.0
        # an outcome carries the world's own incident
        assert o.incident is next(i for i in world.incidents if i.id == o.incident.id)


def test_busy_vehicle_leaves_later_requests_waiting():
    sc = small(302, (1, 1), n_ervs=1)
    res = run_proactive(sc)
    assert res.stages[0].n_free_ervs == 1
    assert res.stages[1].n_free_ervs == 0  # still serving the first request
    assert res.stages[1].n_open == 1
    # the queue drains eventually and both requests are served
    assert len(res.incidents) == 2
    second = next(o for o in res.incidents if o.incident.id == "i001")
    assert second.response_h > 0.5  # it provably waited past its stage


@pytest.mark.parametrize("sc", [
    # dispatch-dense sized: 10 stages of 10 on a 10x10 grid, 9 ERVs
    Scenario(seed=1, schedule=(10,) * 10, n_ervs=9, n_uavs=4),
    # past i999 with 12 ERVs: ids stop sorting like indices, for incidents
    # and for vehicles
    Scenario(seed=5, schedule=(10,) * 101, n_ervs=12, n_uavs=2),
], ids=["dispatch-dense", "past-i999"])
def test_the_stage_loop_hands_the_erv_stage_its_free_vehicles_in_world_order(sc):
    open_keys, builds = [], []
    build_erv_problem = scenarios.build_erv_problem

    class Recorded(scenarios.StageContext):
        def __post_init__(self):
            # the open list as the context gets it (the loop appends later)
            open_keys.append([(i.report_time, i.id) for i in self.open_incidents])
            super().__post_init__()

    def build(ctx, free):
        # whether each vehicle is free now, before the stage commits
        builds.append((ctx.stage_index, [e.id for e in free],
                       [e.is_free(ctx.stage_time) for e in free]))
        return build_erv_problem(ctx, free)

    with mock.patch.object(scenarios, "StageContext", Recorded), \
            mock.patch.object(scenarios, "build_erv_problem", build):
        res = scenarios._run_proactive(sc, materialize(sc))
    assert len(open_keys) == len(builds) > 0
    for keys in open_keys:
        assert keys == sorted(keys)
    n_free = {s.stage: s.n_free_ervs for s in res.stages}
    for stage, ids, is_free in builds:
        assert all(is_free)
        # every free vehicle, each once
        assert len(set(ids)) == len(ids) == n_free[stage]
    # some stage found a vehicle busy and left it out
    assert min(len(ids) for _, ids, _ in builds) < sc.n_ervs


# -------------------------------------------------------------- orderings


def test_exact_baseline_never_loses_to_either_policy():
    # the exact search starts from both realized policies replayed with
    # direct motion, so its total can never exceed theirs
    for seed in range(320, 330):
        sc = small(seed, (1, 1, 1), n_ervs=2)
        world = materialize(sc)
        opt = run_opt(sc, world).total_delay_veh_h
        assert opt <= run_proactive(sc, world).total_delay_veh_h + 1e-9
        assert opt <= run_conventional(sc, world).total_delay_veh_h + 1e-9


def test_policy_ordering_on_a_busy_week():
    sc = Scenario(seed=303, schedule=(1, 1, 1, 1, 1), rows=5, cols=5, n_ervs=2)
    world = materialize(sc)
    opt = run_opt(sc, world).total_delay_veh_h
    pro = run_proactive(sc, world).total_delay_veh_h
    conv = run_conventional(sc, world).total_delay_veh_h
    assert opt <= pro + 1e-9
    assert pro < conv  # relocation + look-ahead beat depot returns here


def test_route_scouting_cannot_hurt():
    sc = small(304, (1, 1, 1), n_ervs=2, n_uavs=2)
    on = run_proactive(sc)
    off = run_proactive(replace(sc, cooperation=False))
    assert sum(o.cooperating for o in on.incidents) >= 1
    assert not any(o.cooperating for o in off.incidents)
    assert on.total_delay_veh_h <= off.total_delay_veh_h + 1e-12
    # scouting changes the accounting, not the trajectories
    assert [o.incident.id for o in on.incidents] == [
        o.incident.id for o in off.incidents
    ]
    for a, b in zip(on.incidents, off.incidents):
        assert a.erv_id == b.erv_id
        assert a.response_h <= b.response_h + 1e-12
        if not a.cooperating:
            assert a.response_h == pytest.approx(b.response_h, rel=1e-12)


# ---------------------------------------------------------- reproducibility


def test_runs_are_pure_functions_of_the_scenario():
    sc = small(314, (2, 1), n_ervs=2, n_uavs=1)
    for policy in POLICIES:
        assert result_to_json(run_policy(sc, policy)) == result_to_json(
            run_policy(sc, policy)
        )
    changed = replace(sc, seed=315)
    assert result_to_json(run_proactive(sc)) != result_to_json(
        run_proactive(changed)
    )


def test_shared_world_is_never_mutated_by_a_run():
    sc = small(316, (2, 2), n_ervs=2)
    world = materialize(sc)
    before = [dataclasses.astuple(i) for i in world.incidents]
    first = run_proactive(sc, world).total_delay_veh_h
    run_conventional(sc, world)
    run_opt(sc, world)
    assert [dataclasses.astuple(i) for i in world.incidents] == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        world.incidents[0].report_time = 0.0
    # a later call on this world returns the stored run, so compare it with
    # a run on a freshly built world
    assert run_proactive(sc, materialize(sc)).total_delay_veh_h == first


def test_opt_on_a_world_that_already_ran_both_policies():
    sc = small(325, (2, 2, 1), n_ervs=2)
    ran = materialize(sc)
    run_conventional(sc, ran)
    run_proactive(sc, ran)
    assert result_to_json(run_opt(sc, ran)) == result_to_json(
        run_opt(sc, materialize(sc))
    )


def test_stored_runs_are_keyed_by_the_whole_scenario():
    sc = small(326, (2, 2), n_ervs=2)
    mgm = replace(sc, algorithm="mgm")
    world = materialize(sc)
    assert run_proactive(sc, world) is run_proactive(sc, world)
    # same world, a scenario that differs only in its solver
    other = run_proactive(mgm, world)
    assert other is not run_proactive(sc, world)
    assert result_to_json(other) == result_to_json(
        run_proactive(mgm, materialize(mgm))
    )


def test_a_pdronetim_run_computes_each_stage_row_it_reads_once(monkeypatch):
    calls = []
    real = forecast.expected_probability

    def counting(fld, kernel, stage):
        calls.append(stage)
        return real(fld, kernel, stage)

    monkeypatch.setattr(forecast, "expected_probability", counting)
    sc = small(328, (3, 2, 2), n_ervs=2)
    res = run_proactive(sc)
    solved = [s.stage for s in res.stages if s.erv_cost is not None]
    assert len(solved) > 3
    # a stage solve reads the next stage (relocation) and the look-ahead
    # stages; from two stages past the field horizon on, every stage reads
    # the one all-zero row
    zero = len(materialize(sc).forecast.field_) + 2
    read = {u + t for u in solved for t in range(1, sc.lookahead + 1)}
    assert max(read) > zero
    assert sorted(calls) == sorted({min(u, zero) for u in read})


def test_a_conventional_run_opens_its_rows_in_one_call(monkeypatch):
    from timdcop import network

    calls = []
    real = network._dijkstra
    monkeypatch.setattr(network, "_dijkstra",
                        lambda n, s: calls.append(list(s)) or real(n, s))
    sc = small(329, (3, 2, 2), n_ervs=3)
    w = materialize(sc)
    assert calls == [] and w.net._dist_cache == {}
    res = run_conventional(sc, w)
    assert len(res.incidents) == 7
    want = sorted(set(w.erv_cells) | {i.location for i in w.incidents})
    assert len(calls) == 1 and sorted(calls[0]) == want
    assert sorted(w.net._dist_cache) == want


# 1,001 incidents: i994 to i1000 are all reported at 71.0 h, where the
# (report time, id) order puts "i1000" first and generation order last
THOUSAND = Scenario(seed=3, schedule=(7,) * 143, rows=5, cols=5, n_ervs=3,
                    n_uavs=2)


def generation_order_json(sc, w, policy):
    """`policy` run on `w` in generation order, conventional by the oracle."""
    g = conventional_oracle.generation_order(w)
    if policy == "conventional":
        return result_to_json(conventional_oracle.run_conventional(sc, g))
    return result_to_json(run_proactive(sc, g))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_ervs=st.integers(1, 3),
       n_uavs=st.integers(0, 2),
       schedule=st.lists(st.integers(0, 6), min_size=1, max_size=5),
       stage_gap=st.sampled_from([0.1, 0.25, 0.5]))
def test_runs_equal_the_sort_and_rescan_oracle(seed, n_ervs, n_uavs, schedule,
                                               stage_gap):
    sc = small(seed, schedule, n_ervs=n_ervs, n_uavs=n_uavs, stage_gap=stage_gap)
    w = materialize(sc)
    for policy in ("conventional", "pdronetim"):
        assert (result_to_json(run_policy(sc, policy, w))
                == generation_order_json(sc, w, policy))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_ervs=st.integers(1, 3),
       n_uavs=st.integers(1, 4),
       schedule=st.lists(st.integers(0, 6), min_size=1, max_size=4),
       algorithm=st.sampled_from(["mgm", "dsa"]))
def test_every_uav_stage_has_a_finite_utility(seed, n_ervs, n_uavs, schedule,
                                              algorithm):
    # a UAV solve starts conflict-free, since the idle slot is always free,
    # and its best cost only ever falls: no stage's utility is a sentinel
    sc = small(seed, schedule, n_ervs=n_ervs, n_uavs=n_uavs, algorithm=algorithm)
    res = run_proactive(sc)
    utilities = [s.uav_utility for s in res.stages if s.uav_utility is not None]
    assert all(math.isfinite(u) for u in utilities)
    assert math.isfinite(res.total_uav_utility)


@pytest.mark.parametrize("policy", ["conventional", "pdronetim"])
def test_runs_past_i999_equal_the_sort_and_rescan_oracle(policy):
    w = materialize(THOUSAND)
    report = {i.id: i.report_time for i in w.incidents}
    assert report["i999"] == report["i1000"] == 71.0
    assert (result_to_json(run_policy(THOUSAND, policy, w))
            == generation_order_json(THOUSAND, w, policy))


def test_list_fields_are_stored_as_tuples():
    sc = Scenario(seed=327, schedule=[2, 2], rows=4, cols=4, n_ervs=2,
                  edge_time_range=[0.1, 1.5], prob_range=[0.0, 0.15])
    assert sc.schedule == (2, 2)
    assert sc.edge_time_range == (0.1, 1.5)
    assert sc.prob_range == (0.0, 0.15)
    assert sc == small(327, (2, 2)) and hash(sc) == hash(small(327, (2, 2)))
    world = materialize(sc)
    for policy in POLICIES:
        assert len(run_policy(sc, policy, world).incidents) == 4


# opt_nodes and the exact total of three criterion-05 instances: a change in
# the floor or the polish that shifts a float can change what the search
# prunes, and these pin it
@pytest.mark.parametrize("seed, schedule, nodes, total", [
    (5001, (2, 2, 2, 3, 2), 506, "98371.13834148693"),
    (5005, (1, 4, 1, 3, 1), 172, "137840.5687468344"),
    (5008, (2, 3, 1, 3, 1), 304, "64632.321136301514"),
])
def test_exact_search_is_pinned(seed, schedule, nodes, total):
    res = run_opt(Scenario(seed=seed, schedule=schedule, n_ervs=3, n_uavs=0))
    assert res.opt_nodes == nodes
    assert repr(res.total_delay_veh_h) == total


def best_completion(search, remaining, pos, free_at, last_start) -> float:
    """Brute force: the cheapest way to serve `remaining` from a search state,
    over every split into per-vehicle service orders whose starts are all at
    or after last_start (inf when there is none)."""
    # per vehicle: the cheapest cost of serving exactly a subset, over orders
    cheapest = [{} for _ in pos]

    def extend(e, at, free, served, cost):
        if cost < cheapest[e].get(served, math.inf):
            cheapest[e][served] = cost
        for i in remaining - served:
            inc = search.incidents[i]
            start = max(inc.report_time, free + search.tt[at][inc.location])
            if start >= last_start:
                extend(e, inc.location, start + inc.params.clearance,
                       served | {i},
                       cost + expected_delay(inc.params, start - inc.report_time))

    for e in range(len(pos)):
        extend(e, pos[e], free_at[e], frozenset(), 0.0)
    order = sorted(remaining)
    best = math.inf
    for owners in itertools.product(range(len(pos)), repeat=len(order)):
        best = min(best, sum(
            cheapest[e].get(frozenset(i for i, o in zip(order, owners) if o == e),
                            math.inf)
            for e in range(len(pos))))
    return best


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_ervs=st.integers(1, 3),
       schedule=st.lists(st.integers(0, 3), min_size=1, max_size=3)
       .filter(lambda s: 1 <= sum(s) <= 7),
       side=st.integers(3, 5))
def test_exact_floor_never_exceeds_the_best_completion(seed, n_ervs, schedule, side):
    states = []

    class Recording(scenarios._ExactSearch):
        def floor(self, remaining, pos, free_at, last_start, need):
            value = super().floor(remaining, pos, free_at, last_start, need)
            states.append((self, remaining, pos, free_at, last_start, value))
            return value

    sc = small(seed, schedule, rows=side, cols=side, n_ervs=n_ervs)
    with mock.patch.object(scenarios, "_ExactSearch", Recording):
        run_opt(sc)
    # the root and a sample of the states the search reached
    picked = states[:1] + random.Random(seed).sample(states[1:],
                                                     min(len(states) - 1, 12))
    for search, remaining, pos, free_at, last_start, value in picked:
        best = best_completion(search, remaining, pos, free_at, last_start)
        # the floor and the true cost round differently: allow a few ulps
        assert value <= best + 1e-9 * max(1.0, best)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_ervs=st.integers(1, 3),
       schedule=st.lists(st.integers(0, 4), min_size=1, max_size=3)
       .filter(lambda s: 1 <= sum(s) <= 9),
       side=st.integers(3, 5))
def test_the_floor_stops_only_at_the_verdict_of_the_full_floor(
        seed, n_ervs, schedule, side):
    states = []

    class Recording(scenarios._ExactSearch):
        def floor(self, remaining, pos, free_at, last_start, need):
            value = super().floor(remaining, pos, free_at, last_start, need)
            states.append((self, remaining, pos, free_at, last_start, need, value))
            return value

    sc = small(seed, schedule, rows=side, cols=side, n_ervs=n_ervs)
    with mock.patch.object(scenarios, "_ExactSearch", Recording):
        run_opt(sc)
    picked = random.Random(seed).sample(states, min(len(states), 40))
    for search, remaining, pos, free_at, last_start, need, value in picked:
        full = scenarios._ExactSearch.floor(search, remaining, pos, free_at,
                                            last_start, math.inf)
        assert (value >= need) == (full >= need)
        assert value <= full


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_ervs=st.integers(1, 3),
       schedule=st.lists(st.integers(0, 5), min_size=1, max_size=3)
       .filter(lambda s: 1 <= sum(s) <= 10),
       side=st.integers(3, 5))
def test_shared_polish_equals_a_plain_descent(seed, n_ervs, schedule, side):
    sc = small(seed, schedule, rows=side, cols=side, n_ervs=n_ervs)
    w = materialize(sc)
    search = scenarios._ExactSearch(w)
    # in run_opt's order, so later descents can land on recorded ones
    for cost, seqs in (search.greedy(),
                       search.replay(run_conventional(sc, w)),
                       search.replay(run_proactive(sc, w))):
        got_cost, got = search.polish(cost, seqs)
        want_cost, want = steepest_descent(search, cost, seqs)
        assert repr(got_cost) == repr(want_cost) and got == want
    for (e, seq), legs in search.legs.items():
        assert list(legs) == price_legs(search, e, seq)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n_ervs=st.integers(1, 3),
       schedule=st.lists(st.integers(0, 3), min_size=1, max_size=3)
       .filter(lambda s: 1 <= sum(s) <= 7),
       side=st.integers(3, 5))
def test_the_exact_baseline_equals_the_brute_force_optimum(
        seed, n_ervs, schedule, side):
    sc = small(seed, schedule, rows=side, cols=side, n_ervs=n_ervs)
    w = materialize(sc)
    search = scenarios._ExactSearch(w)
    best = best_completion(search, frozenset(range(len(search.incidents))),
                           tuple(search.erv_cells), (0.0,) * n_ervs, 0.0)
    assert run_opt(sc, w).total_delay_veh_h == pytest.approx(best, rel=1e-12)


def test_evaluation_cap_stops_the_exact_search(monkeypatch):
    sc = small(305, (3, 3, 3), n_ervs=2)
    world = materialize(sc)
    full = run_opt(sc, world)
    assert full.opt_nodes > 10
    monkeypatch.setattr(scenarios, "OPT_EVAL_CAP", 10)
    with pytest.raises(CapExceededError):
        run_opt(sc, world)


def test_unknown_policy_is_rejected():
    with pytest.raises(InputError):
        run_policy(small(0, (1,)), "greedy")


# ------------------------------------------------------------ materialize


def test_materialized_world_matches_the_schedule():
    sc = Scenario(
        seed=317, schedule=(3, 0, 2), rows=5, cols=5, n_ervs=3, n_uavs=2,
        stage_gap=0.25,
    )
    w = materialize(sc)
    assert len(w.incidents) == 5
    assert [i.id for i in w.incidents] == [f"i{k:03d}" for k in range(5)]
    by_stage = {}
    for inc in w.incidents:
        stage = round(inc.report_time / sc.stage_gap)
        assert inc.report_time == pytest.approx(stage * 0.25)
        by_stage.setdefault(stage, []).append(inc)
        assert inc.severity in (1, 2, 3, 4)
        assert inc.hazard in (1, 2, 3, 4, 5)
        assert inc.sparsity in (1, 2, 3, 4, 5)
    assert sorted(by_stage) == [0, 2]
    assert len(by_stage[0]) == 3 and len(by_stage[2]) == 2
    for stage, incs in by_stage.items():
        cells = [i.location for i in incs]
        assert len(cells) == len(set(cells))  # one request per cell per stage
    assert len(w.erv_cells) == 3 and len(w.uav_cells) == 2
    assert all(0 <= c < 25 for c in w.erv_cells + w.uav_cells)


def test_world_order_is_report_time_then_id_after_the_draws():
    sc = THOUSAND
    w = materialize(sc)
    keys = [(i.report_time, i.id) for i in w.incidents]
    assert keys == sorted(keys)
    generated = conventional_oracle.generation_order(w).incidents
    assert [i.id for i in generated] == [f"i{k:03d}" for k in range(1001)]
    assert [i.id for i in generated] != [i.id for i in w.incidents]
    # (hazard, sparsity) are the attribute stream's scalar draws, in
    # generation order
    rng = scenarios._rng(sc.seed, scenarios._ATTRS)
    for inc in generated:
        assert inc.hazard == int(rng.integers(1, 6))
        assert inc.sparsity == int(rng.integers(1, 6))


def assert_params_equal_the_oracle_redraw(sc):
    generated = conventional_oracle.generation_order(materialize(sc)).incidents
    want = params_oracle.incident_stream(sc)
    assert len(generated) == len(want)
    for inc, (id_, cell, severity, params) in zip(generated, want):
        assert (inc.id, inc.location, inc.severity) == (id_, cell, severity)
        assert (params_oracle.field_reprs(inc.params)
                == params_oracle.field_reprs(params))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32),
       schedule=st.lists(st.integers(0, 16), min_size=1, max_size=6))
def test_incident_params_equal_the_six_uniform_redraw(seed, schedule):
    assert_params_equal_the_oracle_redraw(small(seed, schedule))


def test_incident_params_equal_the_six_uniform_redraw_past_i999():
    assert_params_equal_the_oracle_redraw(THOUSAND)


def test_forecast_skill_lifts_true_incident_cells():
    sc = small(318, (2, 2), forecast_signal=0.4)
    w = materialize(sc)
    for inc in w.incidents:
        stage = round(inc.report_time / sc.stage_gap)
        assert w.forecast.field_[stage, inc.location] >= min(1.0, 0.4)


def test_zero_signal_keeps_the_field_inside_its_range():
    sc = small(319, (2, 2), forecast_signal=0.0, prob_range=(0.0, 0.15))
    w = materialize(sc)
    assert float(w.forecast.field_.min()) >= 0.0
    assert float(w.forecast.field_.max()) <= 0.15


def test_materialize_is_deterministic():
    sc = small(321, (2, 1), n_uavs=1)
    a, b = materialize(sc), materialize(sc)
    assert (a.forecast.field_ == b.forecast.field_).all()
    assert [i.id for i in a.incidents] == [i.id for i in b.incidents]
    assert [i.location for i in a.incidents] == [i.location for i in b.incidents]
    assert a.erv_cells == b.erv_cells and a.uav_cells == b.uav_cells
    assert ([(i.hazard, i.sparsity) for i in a.incidents]
            == [(i.hazard, i.sparsity) for i in b.incidents])


def test_scenario_validation():
    # the rules that span keys (one rule key at a time: see REFUSED below)
    with pytest.raises(InputError, match="17 UAVs on a 4x4 grid"):
        Scenario(seed=0, rows=4, cols=4, n_uavs=17)
    Scenario(seed=0, rows=4, cols=4, n_uavs=16)  # one per cell is allowed
    with pytest.raises(InputError, match="17 incidents on 16 cells"):
        Scenario(seed=0, schedule=(17,), rows=4, cols=4)  # caught at load
    # ints too large for a float are not finite numbers
    for bad in (dict(kappa=10**400), dict(stage_gap=10**400),
                dict(field_budget=10**400), dict(edge_time_range=(0.1, 10**400))):
        with pytest.raises(InputError):
            Scenario(**{"seed": 0, **bad})


# file key -> values its rule refuses, each one the file's reader accepts
REFUSED = {
    "seed": (-1,),
    "schedule": ((), (1, -1)),
    "grid.rows": (1,),
    "grid.cols": (0,),
    "grid.edge_time_range": ((0.0, 1.0), (0.5, 0.4), (0.5,), (0.1, math.inf)),
    "fleet.ervs": (0, 1001),
    "fleet.uavs": (-1, 1001),
    "stage_gap_h": (0.0, math.nan, math.inf),
    "solver.algorithm": ("tabu",),
    "solver.iterations": (0, MAX_ITERATIONS + 1),
    "solver.dsa_threshold": (1.0001,),
    "forecast.prob_range": ((0.5, 1.5), (0.0, math.inf), (0.0, 0.1, 0.2)),
    "forecast.budget": (0.0, -1.0, math.nan, math.inf),
    "forecast.signal": (1.5,),
    "lookahead": (-1, 3),
    "relocation_k": (-1, 1001),
    "kappa": (0.0, -0.5, math.nan, math.inf, 1e308, math.nextafter(1e6, math.inf)),
}


def test_every_rule_has_refused_values():
    assert list(REFUSED) == [key for key, (_, _, rule, _)
                             in scenarios.SCENARIO_FIELDS.items() if rule]


@pytest.mark.parametrize("key", REFUSED)
def test_the_scenario_refuses_what_each_rule_refuses(key):
    attr, _, rule, _ = scenarios.SCENARIO_FIELDS[key]
    section, _, name = key.rpartition(".")
    for value in REFUSED[key]:
        as_json = list(value) if isinstance(value, tuple) else value
        doc = {"seed": 0, "schedule": [1],
               **({section: {name: as_json}} if section else {name: as_json})}
        for make in (lambda: Scenario(**{"seed": 0, attr: value}),
                     lambda: scenario_from_dict(doc)):
            with pytest.raises(InputError) as refused:
                make()
            assert str(refused.value) == f"{key} must be {rule}, got {value!r}"


def test_stage_bound_and_rounds_have_a_ceiling_at_load():
    # a large world at the default gap stays well under the stage and
    # horizon ceilings
    big = Scenario(seed=0, schedule=(1000,), rows=100, cols=100)
    assert 1e6 < scenarios._stage_bound(big) < scenarios.MAX_STAGES
    assert 5e5 < scenarios._stage_bound(big) * big.stage_gap < scenarios.MAX_HORIZON_H
    # at the horizon ceiling a float still tells instants TIME_EPS apart
    assert math.ulp(scenarios.MAX_HORIZON_H) < scenarios.TIME_EPS
    # a gap so long that the loop's clock would swallow a dispatch's busy
    # time (or overflow): refused, whatever the stage count
    for schedule, gap in (((1,) * 21, 1e307), ((1, 2), 1e300), ((1,), 4e6)):
        with pytest.raises(InputError, match=(
                f"^stage gap {re.escape(str(gap))} h allows a stage loop "
                "longer than 4,000,000 h on this grid and schedule$")):
            Scenario(seed=1, schedule=schedule, n_ervs=1, stage_gap=gap)
    # a stage problem's domain: open cells plus max(relocation_k, ERVs)
    # candidates, within the grid; checked after every other rule
    replace(big, relocation_k=1000, schedule=(10,))  # 1,010 cells
    replace(big, n_ervs=1000, schedule=(1,))  # 1,001 cells
    replace(big, schedule=(2990,))  # 3,000 cells
    for schedule, domain in (((2991,), "3,001"), ((6000,), "6,010"),
                             ((2000, 2000), "4,010")):
        with pytest.raises(InputError, match=(
                f"^a stage problem may hold {domain} candidate cells, more "
                "than 3,000$")):
            replace(big, schedule=schedule)
    with pytest.raises(InputError, match="^stage gap 4000000.0 h allows"):
        replace(big, schedule=(6000,), stage_gap=4e6)
    # a world of more than 1e5 incidents, even on a short horizon
    Scenario(seed=1, schedule=(4,) * 25_000, rows=2, cols=2,
             edge_time_range=(0.001, 0.001), stage_gap=1.0)
    for schedule in ((4,) * 25_001, (4,) * 300_000):
        with pytest.raises(InputError, match=(
                f"^the schedule requests {4 * len(schedule):,} incidents, "
                "more than 100,000$")):
            Scenario(seed=1, schedule=schedule, rows=2, cols=2,
                     edge_time_range=(0.001, 0.001), stage_gap=1.0)
    # a 100x100 grid is the largest world a scenario may build, and its
    # field may span 997 schedule stages plus the lookahead window
    assert scenarios.MAX_CELLS == 100 * 100
    for rows, cols in ((5000, 5000), (101, 100), (2, 5001), (10**400, 2)):
        with pytest.raises(InputError, match=f"^a {rows}x{cols} grid has more "
                                             "than 10,000 cells$"):
            Scenario(seed=1, rows=rows, cols=cols)
    replace(big, schedule=(1,) * 997)
    for schedule, lookahead in (((1,) * 998, 2), ((1,) * 999, 1), ((0,) * 10**6, 0)):
        with pytest.raises(InputError, match=(
                f"^{len(schedule)} stages and lookahead {lookahead} on 10,000 "
                "cells need more than 10,000,000 forecast field entries$")):
            replace(big, schedule=schedule, lookahead=lookahead)
    tiny = dict(seed=1, schedule=(2,), rows=3, cols=3, n_ervs=1)
    for gap in (1e-9, 5e-324):  # about 3e10 stages; an infinite bound
        with pytest.raises(InputError, match="stages"):
            Scenario(**tiny, stage_gap=gap)
    sc = Scenario(**tiny)
    most = MAX_ITERATIONS
    assert replace(sc, iterations=most).iterations == most
    with pytest.raises(InputError,
                       match=r"^solver\.iterations must be 1 to 10,000, got 10001$"):
        replace(sc, iterations=most + 1)


# ---------------------------------------------------------- serialization


def test_scenario_round_trips_through_its_dict_form():
    sc = Scenario(
        seed=99, schedule=(2, 0, 1), rows=6, cols=5,
        edge_time_range=(0.2, 1.1), n_ervs=4, n_uavs=2, stage_gap=0.75,
        prob_range=(0.01, 0.2), normalize_field=True, field_budget=0.9,
        lookahead=1, relocation_k=6, cooperation=False, kappa=0.25,
        forecast_signal=0.5, name="roundtrip",
    )
    assert scenario_from_dict(scenario_to_dict(sc)) == sc


def test_the_field_table_states_the_whole_format():
    attrs = [attr for attr, *_ in scenarios.SCENARIO_FIELDS.values()]
    # each field exactly once
    assert sorted(attrs) == sorted(f.name for f in dataclasses.fields(Scenario))
    assert all(kind in scenarios.READERS
               for _, kind, *_ in scenarios.SCENARIO_FIELDS.values())
    # a file with only the required keys takes every default
    assert scenario_from_dict({"seed": 4, "schedule": [2, 1]}) == Scenario(
        seed=4, schedule=(2, 1))
    with pytest.raises(InputError, match="schedule"):
        scenario_from_dict({"seed": 4})  # schedule stays required in a file


def test_scenario_dict_rejects_garbage():
    with pytest.raises(InputError):
        scenario_from_dict({})  # no seed
    with pytest.raises(InputError):
        scenario_from_dict({"seed": 1, "schedule": "many"})
    with pytest.raises(InputError):
        scenario_from_dict({"seed": 1, "schedule": [1], "stage_gap_h": "soon"})
    with pytest.raises(InputError):
        scenario_from_dict({"seed": 1, "schedule": [1, -2]})
    with pytest.raises(InputError):
        scenario_from_dict([{"seed": 1, "schedule": [1]}])  # not an object
    for section in ("grid", "fleet", "solver", "forecast"):
        with pytest.raises(InputError):
            scenario_from_dict({"seed": 1, "schedule": [1], section: [1]})
    # a key the table does not have is named, not ignored
    for bad, key in (({"extra_key": 3}, "'extra_key'"),
                     ({"grid": {"rowz": 4}}, "'grid.rowz'"),
                     ({"solver": {"seed": 4}}, "'solver.seed'"),
                     ({"grid.rows": 4}, "'grid.rows'")):
        with pytest.raises(InputError, match=f"unknown scenario key {key}"):
            scenario_from_dict({"seed": 1, "schedule": [1], **bad})
    # whole numbers are counts; a fraction, a string or a bool is not
    assert scenario_from_dict({"seed": 1.0, "schedule": [2.0]}).schedule == (2,)
    for bad in ({"seed": 2.5}, {"seed": "1"}, {"schedule": [True]},
                {"lookahead": 1.5}, {"relocation_k": math.inf},
                {"solver": {"iterations": math.nan}}, {"grid": {"cols": 4.2}},
                {"fleet": {"uavs": 0.5}}):
        with pytest.raises(InputError):
            scenario_from_dict({"seed": 1, "schedule": [1], **bad})


def test_result_dict_structure():
    sc = small(322, (1, 1), n_ervs=2, n_uavs=1)
    d = json.loads(result_to_json(run_proactive(sc)))
    assert d["policy"] == "pdronetim"
    assert d["seed"] == 322
    assert set(d["totals"]) == {"delay_veh_h", "response_min", "uav_utility"}
    assert {o["id"] for o in d["incidents"]} == {"i000", "i001"}
    assert all(
        set(s) == {
            "stage", "time_h", "open", "free_ervs", "erv_assignments",
            "erv_cost", "erv_messages", "erv_moves", "uav_assignments",
            "uav_utility",
        }
        for s in d["stages"]
    )
    for rec in d["assimilation"]:
        assert set(rec) == {
            "incident_id", "uav_id", "prior_mean", "prior_var", "obs_mean",
            "obs_var", "beta", "post_mean", "post_var",
        }


def oracle_json(res) -> str:
    return json.dumps(result_to_dict(res), sort_keys=True, indent=2) + "\n"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), rows=st.integers(2, 4),
       cols=st.integers(2, 4), n_ervs=st.integers(1, 3),
       n_uavs=st.integers(0, 3), algorithm=st.sampled_from(["mgm", "dsa"]),
       schedule=st.lists(st.integers(0, 3), min_size=1, max_size=3)
       .filter(lambda s: sum(s) <= 5))
def test_result_json_equals_the_oracle_on_generated_runs(
        seed, rows, cols, n_ervs, n_uavs, algorithm, schedule):
    sc = small(seed, schedule, rows=rows, cols=cols, n_ervs=n_ervs,
               n_uavs=n_uavs, algorithm=algorithm)
    world = materialize(sc)
    for policy in POLICIES:
        res = run_policy(sc, policy, world)
        assert result_to_json(res) == oracle_json(res)


def test_result_json_equals_the_oracle_on_odd_values():
    nan, inf = math.nan, math.inf
    outcome = dict(erv_id="erv\"0", response_h=inf, delay_veh_h=nan,
                   delay_var=-inf)
    res = RunResult(
        policy="pdronetim", seed=7,
        stages=[
            StageOutcome(stage=0, time_h=0.0, n_open=2, n_free_ervs=1,
                         erv_assignments=[]),
            StageOutcome(stage=1, time_h=0.5, n_open=0, n_free_ervs=2,
                         erv_assignments=[("erv0", 4, "dispatch"),
                                          ("erv\u00e9", 5, "relocate")],
                         erv_cost=inf, erv_messages=6, erv_moves=1,
                         uav_assignments=[("uav\u2603", 4)],
                         uav_utility=-inf),
            StageOutcome(stage=2, time_h=1.0, n_open=0, n_free_ervs=2,
                         erv_assignments=[("erv0", 1, "relocate")],
                         erv_cost=nan, uav_utility=-0.0),
        ],
        incidents=[
            IncidentOutcome(incident=Incident("i\"000", 3, 2, 0.1, PARAMS, 1, 1),
                            cooperating=True, **outcome),
            IncidentOutcome(incident=Incident("i\u00fc01", 3, 2, 0.1, PARAMS, 1, 1),
                            cooperating=False,
                            **{**outcome, "response_h": 1e-300,
                               "delay_veh_h": 1e16, "delay_var": 0.0}),
        ],
        assimilation=[
            AssimilationRecord(incident_id="i\"000", uav_id="uav\\0",
                               prior_mean=1.5, prior_var=nan, obs_mean=-inf,
                               obs_var=inf, beta=0.0, post_mean=2.0 / 3.0,
                               post_var=5e-324),
        ],
        total_delay_veh_h=nan, total_response_min=inf,
        total_uav_utility=-inf, opt_nodes=12,
    )
    assert result_to_json(res) == oracle_json(res)
    empty = RunResult(policy="opt", seed=0, stages=[], incidents=[],
                      assimilation=[], total_delay_veh_h=0.0,
                      total_response_min=0.0, total_uav_utility=0.0)
    assert result_to_json(empty) == oracle_json(empty)


# ------------------------------------------------------------- CSV export


def test_stage_csv_schema_and_exact_floats(tmp_path):
    sc = small(323, (2, 1), n_ervs=2, n_uavs=1)
    res = run_proactive(sc)
    path = tmp_path / "stages.csv"
    write_stage_csv(res, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "stage", "time_h", "open", "free_ervs", "dispatches", "relocations",
        "erv_cost", "erv_messages", "erv_moves", "uav_tasked", "uav_utility",
    ]
    assert len(rows) == len(res.stages) + 1
    for row, s in zip(rows[1:], res.stages):
        assert int(row[0]) == s.stage
        assert float(row[1]) == s.time_h  # repr round-trip
        kinds = [a[2] for a in s.erv_assignments]
        assert int(row[4]) == kinds.count("dispatch")
        assert int(row[5]) == kinds.count("relocate")
        if s.erv_cost is None:
            assert row[6] == ""
        else:
            assert float(row[6]) == s.erv_cost


def test_incident_csv_schema_and_exact_floats(tmp_path):
    sc = small(324, (2, 1), n_ervs=2)
    res = run_conventional(sc)
    path = tmp_path / "incidents.csv"
    write_incident_csv(res, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "incident_id", "cell", "severity", "report_h", "erv",
        "response_h", "delay_veh_h", "delay_var", "cooperating",
    ]
    assert len(rows) == len(res.incidents) + 1
    for row, o in zip(rows[1:], res.incidents):
        assert row[0] == o.incident.id
        assert float(row[5]) == o.response_h
        assert float(row[6]) == o.delay_veh_h
        assert int(row[8]) == int(o.cooperating)
