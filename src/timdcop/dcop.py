"""Constraint-optimization problem container.

A problem holds one variable per agent, each with a finite domain of distinct
values, plus cost tables indexed by domain position: a unary vector per agent
(one cost per value of its own domain; an agent without one costs 0) and
binary tables of shape (len(domains[a]), len(domains[b])). math.inf (or -inf
under maximize) is the hard-conflict sentinel; float arithmetic makes it
absorbing for free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from .errors import InputError

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
    unary: dict = field(default_factory=dict)   # AgentId -> np.ndarray
    binary: list[BinaryConstraint] = field(default_factory=list)
    sense: str = "min"       # "min" or "max"
    # AgentId -> {value: position in its domain}
    index: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.sense not in ("min", "max"):
            raise InputError(f"sense must be min or max, got {self.sense!r}")
        if len(set(self.agents)) != len(self.agents):
            raise InputError("duplicate agent ids")
        # one value -> position map per distinct domain list, shared by every
        # agent that holds that list (builders pass one list to every agent)
        self.index = {}
        by_list: dict[int, dict] = {}
        for a in self.agents:
            dom = self.domains.get(a)
            if not dom:
                raise InputError(f"agent {a!r} has an empty domain")
            index = by_list.get(id(dom))
            if index is None:
                index = by_list[id(dom)] = {v: i for i, v in enumerate(dom)}
                if len(index) != len(dom):
                    raise InputError(f"agent {a!r} has repeated domain values")
            self.index[a] = index
        for a in self.unary:
            if a not in self.index:
                raise InputError(f"unary costs for undeclared agent {a!r}")
        self.unary = {
            a: _shaped(vec, (len(self.domains[a]),), f"unary[{a!r}]")
            for a, vec in self.unary.items()
        }
        # one check per distinct table and shape, shared by every pair that
        # holds that table (builders pass one all-different table to all)
        by_table: dict[tuple, np.ndarray] = {}
        for c in self.binary:
            if c.a not in self.index or c.b not in self.index:
                raise InputError("binary constraint on undeclared agent")
            if c.a == c.b:
                raise InputError("binary constraint must join two distinct agents")
            shape = (len(self.domains[c.a]), len(self.domains[c.b]))
            key = (id(c.table), shape)
            if key not in by_table:
                by_table[key] = _shaped(c.table, shape, f"binary table {c.a!r}-{c.b!r}")
            c.table = by_table[key]


def _shaped(costs, shape: tuple, what: str) -> np.ndarray:
    arr = np.asarray(costs, dtype=float)
    if arr.shape != shape:
        raise InputError(f"{what} has shape {arr.shape}, domains need {shape}")
    return arr


def all_different_table(dom_a: list, dom_b: list, sense: str = "min") -> np.ndarray:
    """Conflict table: the hard sentinel where both agents take one non-None
    value, 0 elsewhere (None is an idle slot that never conflicts).

    The values of dom_b are distinct, as in every problem domain.
    """
    pos_b = {v: j for j, v in enumerate(dom_b) if v is not None}
    table = np.zeros((len(dom_a), len(dom_b)))
    for i, va in enumerate(dom_a):
        j = pos_b.get(va)
        if j is not None:
            table[i, j] = math.inf if sense == "min" else -math.inf
    return table


def assignment_problem(agents: list, domain: list, unary, sense: str) -> DcopProblem:
    """Every agent takes a distinct value of one shared domain (None, an
    idle slot, may repeat). The agents share the domain list and one
    all-different table, which joins every pair in agent order; `unary`
    holds one cost row per agent, in agent order."""
    conflict = all_different_table(domain, domain, sense)
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
    pos = {}
    for a in p.agents:
        if a not in assignment:
            raise InputError(f"assignment missing agent {a!r}")
        i = p.index[a].get(assignment[a])
        if i is None:
            raise InputError(f"{assignment[a]!r} is outside {a!r}'s domain")
        pos[a] = i
    total = 0.0
    for a, vec in p.unary.items():
        total += vec[pos[a]]
    for c in p.binary:
        total += c.table[pos[c.a], pos[c.b]]
    return float(total)

