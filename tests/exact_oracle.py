"""Reference pricing and polish for scenarios._ExactSearch.

`price_legs` prices one vehicle's service order from its depot, with no
memo; `steepest_descent` is the plain polish: every relocation and exchange
is priced in full, in the search's sweep order, and no descent is shared.
The search's own `leg` and `polish` must match them bit for bit.
"""
from timdcop.incidents import expected_delay


def price_legs(search, e, seq):
    """Per-service (delay, start) of vehicle e serving seq from its depot."""
    out = []
    at, free = search.erv_cells[e], 0.0
    for i in seq:
        inc = search.incidents[i]
        start = max(inc.report_time, free + search.tt[at][inc.location])
        out.append((expected_delay(inc.params, start - inc.report_time), start))
        free = start + inc.params.clearance
        at = inc.location
    return out


def price(search, seqs):
    """A schedule's cost: plain adds in vehicle then service order."""
    total = 0.0
    for e, seq in enumerate(seqs):
        for d, _ in price_legs(search, e, seq):
            total += d
    return total


def steepest_descent(search, cost, seqs):
    n_erv = search.n_erv
    while True:
        step_cost, step = cost, None
        for a in range(n_erv):
            for p in range(len(seqs[a])):
                moved = seqs[a][p]
                rest_a = seqs[a][:p] + seqs[a][p + 1:]
                for b in range(n_erv):
                    into = rest_a if b == a else seqs[b]
                    for q in range(len(into) + 1):
                        if b == a and q == p:
                            continue
                        trial = list(seqs)
                        trial[a] = rest_a
                        trial[b] = into[:q] + (moved,) + into[q:]
                        c = price(search, trial)
                        if c < step_cost - 1e-9:
                            step_cost, step = c, trial
        slots = [(e, p) for e in range(n_erv) for p in range(len(seqs[e]))]
        for x in range(len(slots)):
            for y in range(x + 1, len(slots)):
                (a, p), (b, q) = slots[x], slots[y]
                u, v = seqs[a][p], seqs[b][q]
                trial = list(seqs)
                trial[a] = trial[a][:p] + (v,) + trial[a][p + 1:]
                trial[b] = trial[b][:q] + (u,) + trial[b][q + 1:]
                c = price(search, trial)
                if c < step_cost - 1e-9:
                    step_cost, step = c, trial
        if step is None:
            return cost, seqs
        cost, seqs = step_cost, step
