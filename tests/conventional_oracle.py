"""Reference reactive baseline for scenarios.run_conventional.

`generation_order(w)` is the world `w` with its incidents in the order
`materialize` generated them (`i000`, `i001`, ...), not in the world's
(report time, id) order. `run_conventional` is the plain baseline over such
a world: its own stage loop rebuilds the open list every stage, and each
stage sorts the waiting incidents by (report time, id) and scans the whole
fleet for free vehicles before every dispatch. `scenarios.run_conventional`
on the world as `materialize` returns it must give the same result JSON.
"""
import dataclasses

from timdcop import scenarios
from timdcop.network import TIME_EPS, travel_time
from timdcop.scenarios import StageOutcome


def generation_order(w):
    """`w` with its incidents in generation order and no stored runs."""
    return dataclasses.replace(
        w, incidents=sorted(w.incidents, key=lambda i: int(i.id[1:])))


def run_conventional(sc, w):
    fleet = scenarios._fleet(w)
    outcomes = []
    stages = []
    open_inc = []
    reported = stage = 0
    bound = scenarios._stage_bound(sc)
    while reported < len(w.incidents) or open_inc or stage < len(sc.schedule):
        assert stage <= bound
        t = stage * sc.stage_gap
        while (reported < len(w.incidents)
               and w.incidents[reported].report_time <= t + TIME_EPS):
            open_inc.append(w.incidents[reported])
            reported += 1
        n_free = sum(e.is_free(t) for e in fleet)
        assignments = []
        done = set()
        for inc in sorted(open_inc, key=lambda i: (i.report_time, i.id)):
            avail = [e for e in fleet if e.is_free(t)]
            if not avail:
                break
            erv = min(avail, key=lambda e: (travel_time(w.net, e.cell, inc.location), e.id))
            travel = travel_time(w.net, erv.cell, inc.location)
            outcomes.append(scenarios._served(inc, erv.id, (t - inc.report_time) + travel))
            done.add(inc.id)
            back = travel_time(w.net, inc.location, erv.cell)
            erv.available_at = t + travel + inc.params.clearance + back
            assignments.append((erv.id, inc.location, "dispatch"))
        open_inc = [i for i in open_inc if i.id not in done]
        stages.append(StageOutcome(stage=stage, time_h=t, n_open=len(open_inc),
                                   n_free_ervs=n_free, erv_assignments=assignments))
        stage += 1
    return scenarios._finish("conventional", sc, stages, outcomes, [])
