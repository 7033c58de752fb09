"""Constraint-problem container and the exhaustive optimum oracle."""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dcop_oracle
from dcop_oracle import brute_force_optimum, search_space
from timdcop.dcop import (
    BinaryConstraint,
    DcopProblem,
    all_different_table,
    assignment_problem,
    total_cost,
)
from timdcop.errors import CapExceededError


def table_problem(costs: dict, agents, domains, sense="min") -> DcopProblem:
    """Complete-graph problem: each pair table adds both endpoints' costs
    and forbids equal values."""
    binary = []
    for i, a in enumerate(agents):
        for b in agents[i + 1:]:
            table = [
                [costs[(a, va)] + costs[(b, vb)] if va != vb else math.inf
                 for vb in domains]
                for va in domains
            ]
            binary.append(BinaryConstraint(a=a, b=b, table=table))
    return DcopProblem(
        agents=list(agents),
        domains={a: list(domains) for a in agents},
        binary=binary,
        sense=sense,
    )


# ------------------------------------------------------------- total_cost


def test_total_cost_matches_hand_summed_table():
    costs = {("x", 0): 2.0, ("x", 1): 7.0,
             ("y", 0): 1.0, ("y", 1): 3.0,
             ("z", 0): 4.0, ("z", 1): 0.5}
    p = table_problem(costs, ["x", "y", "z"], [0, 1])
    # x=0, y=1, z=0 is infeasible (x and z collide)
    assert total_cost(p, {"x": 0, "y": 1, "z": 0}) == math.inf
    # all-distinct is impossible with 2 values and 3 agents; use 2 agents
    p2 = table_problem(costs, ["x", "y"], [0, 1])
    # single pair constraint: cost(x=0) + cost(y=1) = 2.0 + 3.0
    assert total_cost(p2, {"x": 0, "y": 1}) == pytest.approx(5.0)
    assert total_cost(p2, {"x": 1, "y": 0}) == pytest.approx(8.0)


def test_total_cost_sums_unary_and_binary():
    p = DcopProblem(
        agents=["a", "b"],
        domains={"a": [0, 1], "b": [0, 1]},
        unary={"a": [0.0, 10.0]},
        binary=[BinaryConstraint(a="a", b="b", table=[[0.0, 1.0], [1.0, 2.0]])],
    )
    assert total_cost(p, {"a": 1, "b": 1}) == pytest.approx(12.0)
    assert total_cost(p, {"a": 0, "b": 1}) == pytest.approx(1.0)


def test_total_cost_is_constraint_order_invariant():
    rng = random.Random(5)
    agents = ["a", "b", "c"]
    vals = [1, 2, 3]
    unary = []
    for a in agents:
        s = rng.random()
        unary.append((a, [s * v for v in vals]))

    def table(fn):
        return [[fn(x, y) for y in vals] for x in vals]

    binary = [
        BinaryConstraint(a="a", b="b", table=table(lambda x, y: x * 2 + y)),
        BinaryConstraint(a="b", b="c", table=table(lambda x, y: x - y)),
        BinaryConstraint(a="a", b="c", table=table(lambda x, y: x + 3 * y)),
    ]
    asg = {"a": 1, "b": 2, "c": 3}
    p1 = DcopProblem(agents=agents, domains={a: list(vals) for a in agents},
                     unary=dict(unary), binary=list(binary))
    shuffled_u, shuffled_b = list(unary), list(binary)
    rng.shuffle(shuffled_u)
    rng.shuffle(shuffled_b)
    p2 = DcopProblem(agents=agents, domains={a: list(vals) for a in agents},
                     unary=dict(shuffled_u), binary=shuffled_b)
    assert total_cost(p1, asg) == pytest.approx(total_cost(p2, asg))


def test_conflict_is_absorbing_in_both_senses():
    p = table_problem({("a", 0): 1.0, ("b", 0): 1.0}, ["a", "b"], [0])
    assert total_cost(p, {"a": 0, "b": 0}) == math.inf
    pmax = DcopProblem(
        agents=["a", "b"],
        domains={"a": [0], "b": [0]},
        binary=[BinaryConstraint(
            a="a", b="b", table=all_different_table([0], sense="max"),
        )],
        sense="max",
    )
    assert total_cost(pmax, {"a": 0, "b": 0}) == -math.inf


def test_single_agent_without_constraints_costs_zero():
    p = DcopProblem(agents=["solo"], domains={"solo": [4, 5]})
    assert total_cost(p, {"solo": 4}) == 0.0


# ----------------------------------------------------------- brute force


def test_symmetric_tie_breaks_lexicographically():
    p = table_problem({("a", 0): 1.0, ("a", 1): 1.0,
                       ("b", 0): 1.0, ("b", 1): 1.0}, ["a", "b"], [0, 1])
    best, cost = brute_force_optimum(p)
    # both distinct-cell assignments tie at 2.0; first in agent-order,
    # domain-order enumeration wins
    assert best == {"a": 0, "b": 1}
    assert cost == pytest.approx(2.0)


def test_single_agent_unary_lifted_choice():
    p = DcopProblem(
        agents=["a"],
        domains={"a": ["c1", "c2"]},
        unary={"a": [5.0, 3.0]},
    )
    best, cost = brute_force_optimum(p)
    assert best == {"a": "c2"}
    assert cost == pytest.approx(3.0)


def test_brute_force_beats_every_assignment():
    rng = random.Random(17)
    costs = {(a, v): rng.uniform(0, 10) for a in "abc" for v in range(5)}
    p = table_problem(costs, ["a", "b", "c"], list(range(5)))
    _, best_cost = brute_force_optimum(p)
    import itertools
    for combo in itertools.product(range(5), repeat=3):
        asg = dict(zip("abc", combo))
        assert best_cost <= total_cost(p, asg) + 1e-12


def test_maximize_sense_flips_the_comparison():
    p = DcopProblem(
        agents=["u"],
        domains={"u": [0, 1, 2]},
        unary={"u": [0.0, 1.0, 2.0]},
        sense="max",
    )
    best, cost = brute_force_optimum(p)
    assert best == {"u": 2}
    assert cost == pytest.approx(2.0)


def test_search_space_and_cap():
    p = DcopProblem(
        agents=["a", "b"],
        domains={"a": list(range(100)), "b": list(range(100))},
    )
    assert search_space(p) == 10_000
    with pytest.raises(CapExceededError):
        brute_force_optimum(p, cap=9_999)
    # at the cap it still runs
    best, cost = brute_force_optimum(p, cap=10_000)
    assert cost == 0.0 and best == {"a": 0, "b": 0}


# ------------------------------------------------------------- indexing


def test_a_table_shared_by_many_pairs_is_converted_once():
    # a float table, like the builders' all-different table, is not copied
    dom = [0, 1, 2]
    pairs = [("a", "b"), ("a", "c"), ("b", "c")]
    shared = np.zeros((3, 3))
    p = DcopProblem(agents=["a", "b", "c"], domains=dict.fromkeys("abc", dom),
                    binary=[BinaryConstraint(a, b, shared) for a, b in pairs])
    assert all(c.table is shared for c in p.binary)


def test_agents_sharing_a_domain_list_share_its_index():
    dom = ["c1", "c2", None]
    p = DcopProblem(agents=["a", "b", "c"],
                    domains={"a": dom, "b": dom, "c": ["c2", "c1", None]})
    assert p.index["a"] is p.index["b"]
    assert p.index["a"] == {"c1": 0, "c2": 1, None: 2}
    assert p.index["c"] == {"c2": 0, "c1": 1, None: 2}


def test_all_different_table_marks_equal_values_only():
    t = all_different_table([3, 5, None])
    assert t.shape == (3, 3)
    assert t[0, 0] == t[1, 1] == math.inf
    assert np.count_nonzero(t) == 2  # None never conflicts, even with None
    assert all_different_table([1, None], sense="max")[0, 0] == -math.inf


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.integers(0, 60), max_size=12, unique=True),
       idle=st.one_of(st.none(), st.integers(0, 12)),
       sense=st.sampled_from(["min", "max"]))
def test_the_one_domain_table_equals_the_two_domain_loop(cells, idle, sense):
    # a builder domain: distinct cells, with or without the idle slot None
    domain = list(cells)
    if idle is not None:
        domain.insert(min(idle, len(domain)), None)
    want = dcop_oracle.all_different_table(domain, domain, sense)
    got = all_different_table(domain, sense)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sense, sentinel", [("min", math.inf), ("max", -math.inf)])
def test_assignment_problem_joins_every_pair_with_one_shared_table(sense, sentinel):
    domain = [4, 7, None]
    p = assignment_problem(["x", "y", "z"], domain,
                           [[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [5.0, 6.0, 0.0]], sense)
    assert p.sense == sense
    assert all(p.domains[a] is domain for a in p.agents)
    assert p.unary["y"].tolist() == [3.0, 4.0, 0.0]
    assert [(c.a, c.b) for c in p.binary] == [("x", "y"), ("x", "z"), ("y", "z")]
    table = p.binary[0].table
    assert all(c.table is table for c in p.binary)
    # the None column (and row) never conflicts, not even with itself
    assert table.tolist() == [[sentinel, 0.0, 0.0], [0.0, sentinel, 0.0], [0.0, 0.0, 0.0]]
    assert total_cost(p, {"x": None, "y": None, "z": 4}) == 5.0
    assert total_cost(p, {"x": 4, "y": 4, "z": None}) == sentinel
