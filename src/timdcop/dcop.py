"""Constraint-optimization problem container.

A problem holds one variable per agent, each with a finite domain of distinct
values, plus float arrays of costs indexed by domain position: a unary row per
agent (one cost per value of its own domain) and binary tables of shape
(len(domains[a]), len(domains[b])). math.inf (or -inf under maximize) is the
hard-conflict sentinel; float arithmetic makes it absorbing for free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

AgentId = Hashable
Value = Hashable  # cell id, or None for an idle slot
Assignment = dict  # AgentId -> Value


@dataclass
class BinaryConstraint:
    a: AgentId
    b: AgentId
    table: np.ndarray  # [position in domains[a], position in domains[b]]


@dataclass
class DcopProblem:
    agents: list
    domains: dict            # AgentId -> list[Value]
    unary: dict = field(default_factory=dict)   # AgentId -> float row
    binary: list[BinaryConstraint] = field(default_factory=list)
    sense: str = "min"       # "min" or "max"
    # AgentId -> {value: position in its domain}
    index: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # builders make every problem well formed (a float row per agent,
        # float tables), so nothing is checked here. One value -> position
        # map per distinct domain list, shared by every agent that holds it
        # (builders pass one domain list to all)
        self.index = {}
        by_list: dict[int, dict] = {}
        for a in self.agents:
            dom = self.domains[a]
            index = by_list.get(id(dom))
            if index is None:
                index = by_list[id(dom)] = {v: i for i, v in enumerate(dom)}
            self.index[a] = index


def all_different_table(domain: list, sense: str = "min") -> np.ndarray:
    """Conflict table of two agents over one domain of distinct values: the
    hard sentinel where both take one non-None value, 0 elsewhere (None is an
    idle slot that never conflicts)."""
    table = np.zeros((len(domain), len(domain)))
    np.fill_diagonal(table, math.inf if sense == "min" else -math.inf)
    if None in domain:  # at most once: the values are distinct
        idle = domain.index(None)
        table[idle, idle] = 0.0
    return table


def assignment_problem(agents: list, domain: list, unary, sense: str) -> DcopProblem:
    """Every agent takes a distinct value of one shared domain (None, an
    idle slot, may repeat). The agents share the domain list and one
    all-different table, which joins every pair in agent order; `unary`
    holds one cost row per agent, in agent order."""
    conflict = all_different_table(domain, sense)
    return DcopProblem(
        agents=agents,
        domains=dict.fromkeys(agents, domain),
        unary=dict(zip(agents, unary)),
        binary=[BinaryConstraint(a=a, b=b, table=conflict)
                for i, a in enumerate(agents) for b in agents[i + 1:]],
        sense=sense,
    )


def total_cost(p: DcopProblem, assignment: Assignment) -> float:
    """Objective value of a complete assignment."""
    pos = {a: p.index[a][assignment[a]] for a in p.agents}
    total = 0.0
    for a, vec in p.unary.items():
        total += vec[pos[a]]
    for c in p.binary:
        total += c.table[pos[c.a], pos[c.b]]
    return float(total)

