"""Synchronous local search over a DcopProblem: MGM and DSA.

Both run the same barrier-round loop:

  1. seeded random initial assignment (conflict-avoiding when possible)
  2. agents exchange current values with neighbours
  3. each agent computes its local cost vector under the snapshot: its unary
     vector plus, for each binary table it is in, the column (or row) at the
     neighbour's current value
  4. its best unilateral change is the first lowest entry of that vector,
     kept only when strictly better than its current value's entry
  5. move rule -- MGM: move iff own gain > 0 and strictly largest among
     neighbours (ties to the lowest agent id); DSA: move iff gain > 0 and
     an independent uniform draw falls below the activation threshold
  6. repeat until the first round in which no agent has a positive gain (a
     fixed point: no agent moves in it or in any later round), or for the
     configured iteration count; the trace ends at the fixed-point round,
     recorded with 0 moves, and the message total still counts every
     configured round (a synchronous protocol keeps exchanging values)

The DSA rule moves on a positive gain only, which is DSA-A's rule in Zhang et
al. (2005). DSA-B also moves on a zero gain while the agent is in conflict, to
an equal-cost alternative. On ERV stage problems that move cannot arise: an
agent sharing a cell has infinite cost and a free cell to move to (the domain
holds distinct cells, at least one per free vehicle), so its gain is positive.
A probe of the 100 stage problems of acceptance criterion 03 found 0 of
60,000 random agent-states, and 0 of the 27,000 states MGM and DSA(0.9)
visit, with a zero gain and an equal-cost alternative.

Moves within a round are computed against the same snapshot and applied
together. The trace records the best-known objective after every round, so
the result is an anytime one: MGM's sequence never worsens, DSA's current
assignment may oscillate but the reported best cannot.

A round runs over agent indices with tables prepared once per solve: unary
rows and binary tables are multiplied by the sense sign once (IEEE negation
is exact and commutes with addition, so -(u + c) == (-u) + (-c)), each table
is laid out in both orientations so that a neighbour's current position
selects a contiguous row (a table several pairs share, like the builders'
all-different table, is laid out once), and the same pass collects each
agent's distinct neighbours in order of first appearance. The move rules,
the random stream (one draw per agent per DSA round, in agent order) and
every trace field are those of the plain dict-per-round loop in
tests/solver_oracle.py, which fills a stopped trace out to `iterations`
rounds with the best cost and 0 moves.

The settings come from a Scenario, which has checked them, and the seed is
the stage's own stream, so a solve checks neither.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dcop import Assignment, DcopProblem, total_cost

if TYPE_CHECKING:
    from .scenarios import Scenario


# ceiling on the rounds of one solve, checked by Scenario
MAX_ITERATIONS = 10_000


@dataclass
class SolveTrace:
    best_costs: list[float]      # best-known objective after each round run
    final_assignment: Assignment  # best assignment seen (the answer)
    last_assignment: Assignment   # raw assignment when the loop stopped
    moves: list[int]             # moves applied per round run
    messages: int                # total over every configured round

    @property
    def final_cost(self) -> float:
        return self.best_costs[-1]


def _initial_assignment(
    p: DcopProblem, rng: np.random.Generator
) -> Assignment:
    # uniform per agent, avoiding already-taken cells when any remain
    out: Assignment = {}
    taken: set = set()
    for a in p.agents:
        dom = p.domains[a]
        free = [v for v in dom if v is None or v not in taken]
        pool = free if free else dom
        v = pool[int(rng.integers(len(pool)))]
        out[a] = v
        if v is not None:
            taken.add(v)
    return out


def solve(p: DcopProblem, sc: Scenario, seed: int) -> SolveTrace:
    """Run the scenario's local search (sc.algorithm, sc.dsa_threshold) for
    sc.iterations barrier rounds on the stream `seed`, stopping early at a
    fixed point (the trace ends at that round)."""
    rng = np.random.default_rng(seed)
    flip = 1.0 if p.sense == "min" else -1.0

    # agents by index; an index is also the tie-break rank (builders declare
    # agents sorted by id, so this is "lowest agent id")
    order = list(p.agents)
    at = {a: i for i, a in enumerate(order)}
    domains = [p.domains[a] for a in order]
    # costs carry the sense sign, so every agent minimizes
    unary = [flip * p.unary[a] for a in order]
    # per agent: (rows, neighbour index) for every binary table it is in, in
    # declaration order, where rows[k] is its cost vector with the neighbour
    # at position k; a table shared by several pairs is laid out once
    layouts: dict[int, tuple[list, list]] = {}
    tables: list[list] = [[] for _ in order]
    # per agent: distinct neighbours (dict keys) in order of first appearance
    neighbors: list[dict] = [{} for _ in order]
    for c in p.binary:
        i, j = at[c.a], at[c.b]
        laid = layouts.get(id(c.table))
        if laid is None:
            signed = flip * c.table
            laid = layouts[id(c.table)] = (
                list(np.ascontiguousarray(signed.T)),
                list(np.ascontiguousarray(signed)))
        tables[i].append((laid[0], j))
        tables[j].append((laid[1], i))
        neighbors[i][j] = neighbors[j][i] = None

    current = _initial_assignment(p, rng)
    pos = [p.index[a][current[a]] for a in order]
    best_assignment = dict(current)
    best = flip * total_cost(p, current)

    best_costs: list[float] = []
    moves_per_round: list[int] = []
    # per round, everyone broadcasts its value; MGM adds a gain broadcast
    msgs = sum(map(len, neighbors))
    if sc.algorithm == "mgm":
        msgs *= 2

    agents = range(len(order))
    proposals = [0] * len(order)
    gains = [0.0] * len(order)
    for _ in range(sc.iterations):
        for i in agents:
            local = unary[i]
            for table_rows, j in tables[i]:
                local = local + table_rows[pos[j]]
            cur_cost = local.item(pos[i])
            k = local.argmin()
            best_cost = local.item(k)
            # signed costs are finite or +inf, so a gain is positive, +inf
            # when a conflict can be left, or 0.0
            if best_cost < cur_cost:
                proposals[i], gains[i] = k, cur_cost - best_cost
            else:
                proposals[i], gains[i] = pos[i], 0.0

        if all(g <= 0.0 for g in gains):
            # fixed point: no agent moves now or in any later round
            best_costs.append(flip * best)
            moves_per_round.append(0)
            break

        if sc.algorithm == "mgm":
            movers = []
            for i in agents:
                g = gains[i]
                if g <= 0.0:
                    continue
                if all(g > gains[j] or (g == gains[j] and i < j)
                       for j in neighbors[i]):
                    movers.append(i)
        else:
            # one draw per agent, in agent order, mover or not: the same
            # doubles as one rng.random() per agent
            draws = rng.random(len(order)).tolist()
            movers = [i for i in agents
                      if draws[i] < sc.dsa_threshold and gains[i] > 0.0]

        for i in movers:
            pos[i] = proposals[i]
            current[order[i]] = domains[i][proposals[i]]

        cost = flip * total_cost(p, current)
        if cost < best:
            best = cost
            best_assignment = dict(current)
        best_costs.append(flip * best)
        moves_per_round.append(len(movers))

    return SolveTrace(
        best_costs=best_costs,
        final_assignment=best_assignment,
        last_assignment=current,
        moves=moves_per_round,
        messages=msgs * sc.iterations,
    )
