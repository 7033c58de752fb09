"""Local search: move rules, anytime property, determinism."""
import functools
import hashlib
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcop_oracle
from dcop_oracle import brute_force_optimum
from solver_oracle import reference_solve
from timdcop import solvers
from timdcop.dcop import (
    BinaryConstraint,
    DcopProblem,
    all_different_table,
    total_cost,
)
from timdcop.erv import StageContext, build_erv_problem
from timdcop.network import Vehicle
from timdcop.scenarios import Scenario, materialize
from timdcop.solvers import MAX_ITERATIONS, solve
from timdcop.uav import build_uav_problem


def random_table_problem(seed: int, n_agents=3, n_values=4) -> DcopProblem:
    rng = random.Random(seed)
    agents = [f"a{i}" for i in range(n_agents)]
    costs = {(a, v): rng.uniform(0, 10) for a in agents for v in range(n_values)}
    binary = []
    for i, a in enumerate(agents):
        for b in agents[i + 1:]:
            table = np.array([
                [math.inf if va == vb else costs[(a, va)] + costs[(b, vb)]
                 for vb in range(n_values)]
                for va in range(n_values)
            ])
            binary.append(BinaryConstraint(a=a, b=b, table=table))
    # a lone agent's costs are its unary row; pairs carry them otherwise
    unary = {a: np.zeros(n_values) for a in agents}
    if n_agents == 1:
        unary[agents[0]] = np.array([costs[(agents[0], v)] for v in range(n_values)])
    return DcopProblem(
        agents=agents,
        domains={a: list(range(n_values)) for a in agents},
        unary=unary,
        binary=binary,
    )


def scenario(algorithm: str, iterations: int, dsa_threshold: float = 0.9) -> Scenario:
    """The solver settings of a checked Scenario; the rest stays default."""
    return Scenario(seed=0, algorithm=algorithm, iterations=iterations,
                    dsa_threshold=dsa_threshold)


def padded(trace, iterations: int):
    """The trace filled out to `iterations` rounds with its last best cost and
    0 moves, the form the pins below and tests/solver_oracle.py report."""
    rest = iterations - len(trace.moves)
    return replace(trace, best_costs=trace.best_costs + trace.best_costs[-1:] * rest,
                   moves=trace.moves + [0] * rest)


def forced_collision_problem() -> DcopProblem:
    """'b' draws first; whenever it takes c1, 'a' must collide with it."""
    return DcopProblem(
        agents=["b", "a"],
        domains={"b": ["c1", "c2"], "a": ["c1"]},
        unary={"b": np.zeros(2), "a": np.zeros(1)},
        binary=[BinaryConstraint(a="b", b="a", table=np.array([[math.inf], [1.0]]))],
    )


# -------------------------------------------------------------- move rules


@pytest.mark.parametrize("algorithm", ["mgm", "dsa"])
@pytest.mark.parametrize("seed", range(10))
def test_conflict_escape(algorithm, seed):
    trace = solve(forced_collision_problem(), scenario(algorithm, 5), seed)
    if algorithm == "mgm":
        # b's escape gain is infinite, so it wins round 1 outright, and
        # round 2 at the latest is the fixed point
        assert math.isfinite(trace.best_costs[0])
        assert len(trace.moves) <= 2
    assert math.isfinite(trace.best_costs[-1])
    assert trace.final_assignment == {"b": "c2", "a": "c1"}
    assert trace.final_cost == pytest.approx(1.0)


@pytest.mark.parametrize("algorithm", ["mgm", "dsa"])
def test_lone_agent_moves_to_the_first_cheapest_value(algorithm):
    p = DcopProblem(agents=["a"], domains={"a": list("wxyz")},
                    unary={"a": np.array([3.0, 1.0, 2.0, 1.0])})
    # seed 4 starts at "y"; the tied best values are "x" and "z"
    trace = solve(p, scenario(algorithm, 3, 1.0), 4)
    assert trace.moves == [1, 0]  # the trace ends at the fixed-point round
    assert trace.last_assignment == {"a": "x"}
    assert trace.final_cost == 1.0
    # a value tied with the best never moves: "z" stays put under seed 0
    stay = solve(p, scenario(algorithm, 3, 1.0), 0)
    assert stay.moves == [0] and stay.last_assignment == {"a": "z"}


def test_dsa_threshold_zero_never_moves():
    p = random_table_problem(3)
    trace = solve(p, scenario("dsa", 20, 0.0), 1)
    assert trace.moves == [0] * 20
    assert trace.last_assignment == trace.final_assignment
    assert trace.final_cost == pytest.approx(total_cost(p, trace.last_assignment))


def test_mgm_best_costs_never_increase():
    for seed in range(20):
        trace = solve(random_table_problem(seed), scenario("mgm", 30), seed)
        for earlier, later in zip(trace.best_costs, trace.best_costs[1:]):
            assert later <= earlier + 1e-12


def test_mgm_single_mover_per_round_on_complete_graph():
    for seed in range(20):
        trace = solve(random_table_problem(seed, n_agents=4, n_values=6),
                      scenario("mgm", 25), seed)
        assert all(m <= 1 for m in trace.moves)


def test_mgm_terminal_state_is_its_best_state():
    # every accepted move strictly improves, so the loop ends at the best
    for seed in range(10):
        p = random_table_problem(seed)
        trace = solve(p, scenario("mgm", 30), seed)
        assert total_cost(p, trace.last_assignment) == pytest.approx(
            trace.final_cost
        )


def test_mgm_termination_is_one_local_optimum():
    for seed in range(15):
        p = random_table_problem(seed, n_agents=3, n_values=5)
        trace = solve(p, scenario("mgm", 40), seed)
        final = trace.last_assignment
        base = total_cost(p, final)
        for agent in p.agents:
            for v in p.domains[agent]:
                assert total_cost(p, {**final, agent: v}) >= base - 1e-12


def test_dsa_reported_best_is_anytime():
    for seed in range(10):
        trace = solve(random_table_problem(seed), scenario("dsa", 30, 0.7), seed)
        for earlier, later in zip(trace.best_costs, trace.best_costs[1:]):
            assert later <= earlier + 1e-12


def test_solutions_never_beat_brute_force():
    for seed in range(20):
        p = random_table_problem(seed, n_agents=3, n_values=5)
        _, opt = brute_force_optimum(p)
        for sc in (scenario("mgm", 30), scenario("dsa", 30, 0.9)):
            assert solve(p, sc, seed).final_cost >= opt - 1e-9


def test_maximize_problems_are_searched_uphill():
    p = DcopProblem(
        agents=["u", "v"],
        domains={"u": [0, 1, 2], "v": [0, 1, 2]},
        unary={"u": np.zeros(3), "v": np.zeros(3)},
        binary=[BinaryConstraint(a="u", b="v", table=np.array([
            [-math.inf if a == b else float(a + 2 * b) for b in range(3)]
            for a in range(3)
        ]))],
        sense="max",
    )
    trace = solve(p, scenario("dsa", 25), 4)
    _, best = brute_force_optimum(p)
    assert trace.final_cost <= best + 1e-12
    for earlier, later in zip(trace.best_costs, trace.best_costs[1:]):
        assert later >= earlier - 1e-12  # anytime flips direction under max
    # single-agent stationary points of this landscape score 4 or 5
    assert trace.final_cost >= 4.0 - 1e-12


# ------------------------------------------------------- fixed-point stop

# sha256 prefixes of the MGM, DSA(0.1), DSA(0.5) and DSA(0.9) traces of each
# pinned problem, taken from the loop that always ran every round
PINNED_TRACES = [
    "94ba65fc8602", "3c5c75e92dfe", "5641e25393df", "ec715bbf4318",
    "32e8c0412d84", "db2f3947109a", "96170dda21e1", "1d2854b99fde",
    "478138527c47", "e98540949e84", "d2620e5367b3", "2a9bdc5d6972",
    "818a5ca8301b", "283b9ac5e08c", "f921b2dcf5ef", "dd543bc5fb89",
    "eeca29002cac", "4739c6f7ef88", "8b51b1f6deff", "9f964bee1907",
    "9d5a9bfed9d4", "0179f09ce200", "085ec621eb83", "3145feec70a4",
    "87caae9d913b", "7d7317afa6dd", "1e097fef42fa", "84724082930d",
    "4cf1bca0b08c", "ce71f02c9b34", "3099528bfe0e", "dfd2612e7e6c",
    "10cba75ee4c3", "9adc2dd4b18f", "4fc4e6ce6f9b", "c5584cafbee4",
    "272708964842", "f97808313198", "b0b0c4b0a626", "46daa2e11b62",
    "8a97bfb03409", "6f16f8468a12", "e0f329913a02", "2734f8bcfa22",
    "b5d6a77174be", "015c7edc60f5", "8fe20df05dcd", "ccc40359f1a1",
    "eb033af5a7bd", "3a23ef1a803b",
]


def test_traces_match_the_full_length_loop():
    # 1 to 4 agents over 3 to 6 values; a DSA round can have positive gains
    # and no mover, so a stop keyed on "no movers" changes these traces
    mismatched = []
    for seed, want in enumerate(PINNED_TRACES):
        p = random_table_problem(seed, n_agents=1 + seed % 4,
                                 n_values=3 + seed // 4 % 4)
        h = hashlib.sha256()
        for algorithm, threshold in (("mgm", 0.9), ("dsa", 0.1), ("dsa", 0.5),
                                     ("dsa", 0.9)):
            t = padded(solve(p, scenario(algorithm, 30, threshold), seed), 30)
            # the pins hash a per-round message list; every round sends
            # the same count, so it is rebuilt from the total
            per_round = [t.messages // len(t.moves)] * len(t.moves)
            h.update(repr((
                t.best_costs, t.moves, per_round, t.messages,
                sorted(t.final_assignment.items()),
                sorted(t.last_assignment.items()),
            )).encode())
        if h.hexdigest()[:12] != want:
            mismatched.append(seed)
    assert mismatched == []


@pytest.mark.parametrize("algorithm", ["mgm", "dsa"])
def test_lone_agent_stops_at_its_fixed_point(algorithm, monkeypatch):
    calls = []

    def counted(p, assignment):
        calls.append(1)
        return total_cost(p, assignment)

    monkeypatch.setattr(solvers, "total_cost", counted)
    p = DcopProblem(agents=["a"], domains={"a": list("wxyz")},
                    unary={"a": np.array([3.0, 1.0, 2.0, 1.0])})
    # seed 4 starts at "y": one move to "x", then a fixed point
    trace = solve(p, scenario(algorithm, 45, 1.0), 4)
    assert len(calls) <= 3
    assert trace.moves == [1, 0]
    assert trace.best_costs == [1.0, 1.0]
    assert trace.messages == 0  # no neighbours to message


def test_a_huge_round_budget_costs_only_the_rounds_run():
    p = DcopProblem(agents=["a"], domains={"a": list("wxyz")},
                    unary={"a": np.array([3.0, 1.0, 2.0, 1.0])})
    t0 = time.perf_counter()
    trace = solve(p, scenario("dsa", MAX_ITERATIONS, 1.0), 4)
    elapsed = time.perf_counter() - t0
    assert len(trace.best_costs) == len(trace.moves) <= 2
    assert trace.final_cost == 1.0
    assert elapsed < 0.5  # milliseconds on an idle core


# ------------------------------------------------------- reference loop

# (settings, stage seed) pairs
configs = st.tuples(
    st.builds(scenario,
              algorithm=st.sampled_from(["mgm", "dsa"]),
              iterations=st.integers(1, 30),
              dsa_threshold=st.sampled_from([0.0, 0.5, 0.9, 1.0])),
    st.integers(0, 2**32 - 1),
)
# small whole costs tie often, which exercises the first-lowest and rank rules
costs = st.one_of(st.integers(0, 3).map(float),
                  st.sampled_from([-2.5, 0.1, 0.2, 0.30000000000000004, 1e300]))


@st.composite
def table_problems(draw) -> DcopProblem:
    """1-9 agents, either one domain list and one table shared by every pair
    or a domain and a table of their own; min or max; drawn unary vectors on
    some agents, zero rows on the rest; sometimes one pair joined twice; the
    hard sentinel is +inf under min and -inf under max."""
    sense = draw(st.sampled_from(["min", "max"]))
    hard = math.inf if sense == "min" else -math.inf
    agents = [f"a{i}" for i in range(draw(st.integers(1, 9)))]
    cells = st.lists(st.one_of(st.integers(0, 12), st.none()), min_size=1,
                     max_size=6, unique=True)
    shared = draw(st.booleans())
    if shared:
        dom = draw(cells)
        domains = dict.fromkeys(agents, dom)
        table = all_different_table(dom, sense) + draw(
            st.lists(costs, min_size=len(dom) ** 2, max_size=len(dom) ** 2)
            .map(lambda xs: np.reshape(xs, (len(dom), len(dom)))))
    else:
        domains = {a: draw(cells) for a in agents}

    def vector(n):
        return draw(st.lists(st.one_of(costs, st.just(hard)),
                             min_size=n, max_size=n))

    unary = {a: np.array(vector(len(domains[a]))) if draw(st.booleans())
             else np.zeros(len(domains[a])) for a in agents}
    binary = []
    for i, a in enumerate(agents):
        for b in agents[i + 1:]:
            if shared:
                binary.append(BinaryConstraint(a=a, b=b, table=table))
            elif draw(st.booleans()):
                rows = [vector(len(domains[b])) for _ in domains[a]]
                binary.append(BinaryConstraint(a=a, b=b, table=np.array(rows)))
    if binary and draw(st.booleans()):
        # a second constraint on one joined pair, declared the other way round
        c = draw(st.sampled_from(binary))
        rows = [vector(len(domains[c.a])) for _ in domains[c.b]]
        binary.append(BinaryConstraint(a=c.b, b=c.a, table=np.array(rows)))
    return DcopProblem(agents=agents, domains=domains, unary=unary,
                       binary=binary, sense=sense)


@st.composite
def crowded_problems(draw) -> DcopProblem:
    """2-6 agents on domains of their own over at most four cells, with an
    all-different table on every pair and finite unary vectors; min or max.
    A later agent often finds every value of its domain taken, so initial
    states hold conflicts: infinite local costs, some of which a move can
    leave and some of which no move can."""
    sense = draw(st.sampled_from(["min", "max"]))
    cells = range(draw(st.integers(1, 4)))
    agents = [f"a{i}" for i in range(draw(st.integers(2, 6)))]
    domains = {a: draw(st.lists(st.sampled_from(cells), min_size=1,
                                max_size=len(cells), unique=True))
               for a in agents}
    unary = {a: np.array(draw(st.lists(costs, min_size=len(dom),
                                       max_size=len(dom))))
             for a, dom in domains.items()}
    binary = [BinaryConstraint(a=a, b=b, table=dcop_oracle.all_different_table(
                  domains[a], domains[b], sense))
              for i, a in enumerate(agents) for b in agents[i + 1:]]
    return DcopProblem(agents=agents, domains=domains, unary=unary,
                       binary=binary, sense=sense)


@functools.lru_cache(maxsize=None)
def small_world(seed: int):
    return materialize(Scenario(seed=seed, schedule=(3, 3), rows=4, cols=4))


@st.composite
def erv_problems(draw) -> DcopProblem:
    w = small_world(draw(st.integers(0, 3)))
    cell = st.integers(0, w.net.n_cells - 1)
    open_ids = {i.id for i in draw(st.lists(st.sampled_from(w.incidents),
                                            max_size=4, unique_by=lambda i: i.id))}
    ctx = StageContext(
        net=w.net, forecast=w.forecast, stage_time=0.0,
        stage_index=draw(st.integers(0, 1)),
        # in the world's order, as the stage loop keeps it
        open_incidents=[i for i in w.incidents if i.id in open_ids],
        lookahead=draw(st.integers(0, 2)), relocation_k=draw(st.integers(0, 4)),
    )
    fleet = [Vehicle(id=f"erv{i}", cell=c)
             for i, c in enumerate(draw(st.lists(cell, min_size=1, max_size=9)))]
    return build_erv_problem(ctx, fleet)


@st.composite
def uav_problems(draw) -> DcopProblem:
    w = small_world(draw(st.integers(0, 3)))
    cell = st.integers(0, w.net.n_cells - 1)
    uavs = [Vehicle(id=f"uav{i}", cell=c)
            for i, c in enumerate(draw(st.lists(cell, min_size=1, max_size=9)))]
    benefits = draw(st.dictionaries(cell, st.integers(2, 40).map(float),
                                    min_size=1, max_size=5))
    return build_uav_problem(w.net, uavs, benefits)


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(table_problems(), crowded_problems(), erv_problems(),
                   uav_problems()),
       cfg=configs)
def test_solve_matches_the_reference_loop(p, cfg):
    sc, seed = cfg
    trace = solve(p, sc, seed)
    assert len(trace.moves) <= sc.iterations
    assert padded(trace, sc.iterations) == reference_solve(p, sc, seed)


# ------------------------------------------------------------ bookkeeping


def test_message_accounting_per_round():
    p = random_table_problem(0, n_agents=3, n_values=4)
    # complete graph on 3 agents: 6 directed neighbour links
    dsa = solve(p, scenario("dsa", 7), 0)
    assert dsa.messages == 6 * 7
    mgm = solve(p, scenario("mgm", 7), 0)
    # value broadcast plus gain broadcast
    assert mgm.messages == 12 * 7


def test_trace_metadata_and_length():
    p = random_table_problem(1)
    trace = solve(p, scenario("dsa", 9, 0.5), 2)
    # round 1 is already a fixed point, so the trace holds that round only
    assert len(trace.best_costs) == len(trace.moves) == 1
    assert trace.messages == 6 * 9  # every configured round counts


def test_identical_seeds_give_bit_identical_traces():
    p = random_table_problem(6)
    sc = scenario("dsa", 25, 0.8)
    one, two = solve(p, sc, 123), solve(p, sc, 123)
    assert one == two
    assert solve(p, scenario("mgm", 25), 5) == solve(p, scenario("mgm", 25), 5)
