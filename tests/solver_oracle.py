"""The plain MGM/DSA loop that `timdcop.solvers.solve` must reproduce.

This is the dict-per-round loop the solver ran before it worked on agent
indices: every round snapshots the assignment, rebuilds each agent's local
cost vector from its unary vector and the table columns at its neighbours'
values, multiplies it by the sense sign, and picks the first lowest entry.
Tests compare every SolveTrace field of the two.
"""
import math

import numpy as np

from timdcop.dcop import AgentId, Assignment, DcopProblem, Value, total_cost
from timdcop.scenarios import Scenario
from timdcop.solvers import SolveTrace


def neighbors(p: DcopProblem, agent: AgentId) -> list:
    seen = []
    for c in p.binary:
        other = c.b if c.a == agent else c.a if c.b == agent else None
        if other is not None and other not in seen:
            seen.append(other)
    return seen


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


def _gain(cur: float, best: float) -> float:
    if cur == best:
        return 0.0
    if math.isinf(cur) and not math.isinf(best):
        return math.inf
    return cur - best


def reference_solve(p: DcopProblem, sc: Scenario, seed: int) -> SolveTrace:
    rng = np.random.default_rng(seed)
    flip = 1.0 if p.sense == "min" else -1.0

    order = list(p.agents)
    # tie-break rank: position in the declared agent order (builders declare
    # agents sorted by id, so this is "lowest agent id")
    rank = {a: i for i, a in enumerate(order)}
    nbrs = {a: neighbors(p, a) for a in order}
    # per agent: (table with its values on the rows, other agent) for every
    # binary constraint it is in, in declaration order
    tables: dict[AgentId, list] = {a: [] for a in order}
    for c in p.binary:
        tables[c.a].append((c.table, c.b))
        tables[c.b].append((c.table.T, c.a))

    current = _initial_assignment(p, rng)
    best_assignment = dict(current)
    best = flip * total_cost(p, current)

    best_costs: list[float] = []
    moves_per_round: list[int] = []
    # per round, everyone broadcasts its value; MGM adds a gain broadcast
    msgs = sum(len(nbrs[a]) for a in order)
    if sc.algorithm == "mgm":
        msgs *= 2

    for _ in range(sc.iterations):
        snapshot = dict(current)
        pos = {a: p.index[a][snapshot[a]] for a in order}

        proposals: dict[AgentId, Value] = {}
        gains: dict[AgentId, float] = {}
        for a in order:
            local = p.unary[a]
            for table, other in tables[a]:
                local = local + table[:, pos[other]]
            local = flip * local
            cur_cost = float(local[pos[a]])
            j = int(np.argmin(local))
            best_cost = float(local[j])
            if best_cost < cur_cost:
                proposals[a] = p.domains[a][j]
            else:
                proposals[a], best_cost = snapshot[a], cur_cost
            gains[a] = _gain(cur_cost, best_cost)

        if all(g <= 0.0 for g in gains.values()):
            # fixed point: no agent moves now or in any later round
            rest = sc.iterations - len(best_costs)
            best_costs += [flip * best] * rest
            moves_per_round += [0] * rest
            break

        if sc.algorithm == "mgm":
            movers = []
            for a in order:
                g = gains[a]
                if g <= 0.0:
                    continue
                wins = all(
                    g > gains[b] or (g == gains[b] and rank[a] < rank[b])
                    for b in nbrs[a]
                )
                if wins:
                    movers.append(a)
        else:
            draws = {a: rng.random() for a in order}
            movers = [
                a for a in order
                if gains[a] > 0.0 and draws[a] < sc.dsa_threshold
            ]

        for a in movers:
            current[a] = proposals[a]

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
