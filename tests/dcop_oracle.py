"""Exhaustive optimum of a DcopProblem, the oracle local search is tested against.

No production path solves a stage exactly by enumeration, so the oracle
lives with the tests that use it. `plain` puts a problem in a form that
compares with ==. `all_different_table` is the conflict table built by a loop
over two domains, which the one-domain diagonal of timdcop.dcop must equal.
"""
import itertools
import math

import numpy as np

from timdcop.dcop import Assignment, DcopProblem, total_cost
from timdcop.errors import CapExceededError

BRUTE_FORCE_CAP = 10**6


def plain(p: DcopProblem) -> tuple:
    """A problem as plain lists and dicts: agents, domains, unary rows,
    (a, b, table) per constraint, sense."""
    return (p.agents, p.domains, {a: v.tolist() for a, v in p.unary.items()},
            [(c.a, c.b, c.table.tolist()) for c in p.binary], p.sense)


def search_space(p: DcopProblem) -> int:
    return math.prod(len(p.domains[a]) for a in p.agents)


def brute_force_optimum(
    p: DcopProblem, cap: int = BRUTE_FORCE_CAP
) -> tuple[Assignment, float]:
    """Exhaustive optimum; first assignment in lexicographic order wins ties.

    Lexicographic means agents in declaration order, values in domain order.
    Refuses problems whose assignment space exceeds the cap.
    """
    space = search_space(p)
    if space > cap:
        raise CapExceededError(
            f"assignment space {space} exceeds cap {cap}"
        )
    better = (lambda x, y: x < y) if p.sense == "min" else (lambda x, y: x > y)
    best: Assignment | None = None
    best_cost = math.inf if p.sense == "min" else -math.inf
    doms = [p.domains[a] for a in p.agents]
    for combo in itertools.product(*doms):
        asg = dict(zip(p.agents, combo))
        cost = total_cost(p, asg)
        if best is None or better(cost, best_cost):
            best, best_cost = asg, cost
    assert best is not None
    return best, best_cost


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
