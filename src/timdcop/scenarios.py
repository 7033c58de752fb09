"""Scenario assembly, the per-stage planning loop, and the three policies.

A scenario seeds everything: grid, incident bodies, forecast field, initial
positions, per-stage solver streams and observation noise all derive from one
master seed, so a run is a pure function of its Scenario and re-runs are
byte-identical.

Policies:

* ``conventional`` -- closest available vehicle per incident, oldest incident
  first; vehicles return to their depot (initial cell) after service and the
  return leg occupies the availability clock; no relocation, no look-ahead,
  no UAVs.
* ``pdronetim`` -- the proactive stage loop: ingest requests, solve the ERV
  sub-team DCOP (dispatch + forecast-driven relocation + look-ahead), commit,
  solve the UAV sub-team for observation tasking, apply cooperation and data
  assimilation, advance the clock.
* ``opt`` -- clairvoyant baseline that knows the whole request sequence and
  searches service schedules exactly (branch and bound under an evaluation
  cap); it moves vehicles directly between commitments and ignores UAVs.

Total delay is the sum over incidents of the expected delay at the realized
response time (waiting since report + travel, after any cooperation
reduction). The loop keeps running past the last scheduled request until
every incident is served, so totals always cover the full request set.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .errors import CapExceededError, InputError
from .erv import (
    DispatchRecord,
    StageContext,
    apply_assignment,
    build_erv_problem,
)
from .forecast import DEFAULT_PROB_RANGE, Forecast, default_kernel, generate_field
from .incidents import (
    SEVERITY_RANGES,
    Incident,
    delay_variance,
    expected_delay,
    sample_params,
)
from .network import (
    DEFAULT_EDGE_RANGE,
    TIME_EPS,
    GridNetwork,
    Vehicle,
    build_grid,
    travel_rows,
    travel_time,
)
from .solvers import MAX_ITERATIONS, solve
from .uav import (
    DEFAULT_OBS_VAR_RATIO,
    AssimilationRecord,
    DelayBelief,
    apply_uav_assignment,
    assimilate,
    build_uav_problem,
    cooperation_effect,
    priority_benefit,
    simulate_observation,
)

POLICIES = ("conventional", "pdronetim", "opt")

OPT_EVAL_CAP = 10**6
# load-time ceilings on a scenario's size, the scale a run is planned for:
# - stages: a 100x100 grid with 1,000 requests at the default gap is bounded
#   by about 1.2e6 stages;
# - cells: a 100x100 grid, whose shortest-path rows are 80 KB each (a
#   5000x5000 grid's would be 200 MB each);
# - forecast field entries, (schedule stages + lookahead + 1) x cells: 80 MB
#   of primary field, and as much again in each of a run's cached stage rows
#   and rankings, so a 100x100 grid keeps a schedule of up to 997 stages;
# - horizon, the stage bound times the gap: a float's spacing at 4e6 h is
#   4.7e-10 h, below TIME_EPS, so every dispatch's busy time (at least a
#   clearance) still shows on the clock; the 100x100 grid above spans 6e5 h;
# - incidents, sum(schedule): a world holds about 0.8 KB per incident, and
#   1e5 of them build in about 1 s and 145 MiB;
# - fleets and relocation_k: a solve holds n(n-1)/2 pair constraints, and the
#   coverage matrix is (open cells + k) x lookahead * k;
# - kappa, times a delay variance of at most 7.2e12 (a response of two
#   horizons at a severity's worst corner): far from overflow;
# - an ERV stage problem's domain, open cells plus relocation candidates:
#   its all-different table holds domain^2 floats, 72 MB at the ceiling,
#   and solve holds two more copies of it (a UAV domain is smaller)
MAX_STAGES = 10**7
MAX_CELLS = 100 * 100
MAX_FIELD = 10**7
MAX_HORIZON_H = 4e6
MAX_INCIDENTS = 10**5
MAX_FLEET = 1000
MAX_RELOCATION_K = 1000
MAX_KAPPA = 1e6
MAX_DOMAIN = 3000
_MAX_CLEARANCE = max(r["clearance"][1] for r in SEVERITY_RANGES.values())

# sub-seed purpose codes (SeedSequence([master, code, ...]))
_NET, _INC, _FIELD, _ATTRS, _POS, _SOLVER, _UAVSOLVER, _OBS = range(8)


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's LSAP, imported on first use: only opt's floor refinement needs
    scipy.optimize (about 15 MiB and 0.3 s of import)."""
    from scipy.optimize import linear_sum_assignment as lsap
    return lsap(cost)


def _rng(master: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master, *key]))


def _int_seed(master: int, *key: int) -> int:
    return int(np.random.SeedSequence([master, *key]).generate_state(1)[0])


def _finite(x) -> bool:
    """A finite float, or an int that converts to one."""
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def _positive(x) -> bool:
    return _finite(x) and x > 0


def _unit(x) -> bool:
    return 0.0 <= x <= 1.0


def _any(x) -> bool:
    return True


# The scenario file format: file key -> (Scenario attribute, kind, rule,
# check). A dotted key names a field of a section object. A key a file leaves
# out keeps the field's default; only seed and schedule are required. The
# rule is the README's text for what `check` accepts, and Scenario is the one
# place that checks it.
SCENARIO_FIELDS = {
    "name": ("name", "text", "", _any),
    "seed": ("seed", "count", "≥ 0", lambda x: x >= 0),
    "schedule": ("schedule", "counts", "non-empty; each entry ≥ 0",
                 lambda x: len(x) > 0 and min(x) >= 0),
    "grid.rows": ("rows", "count", "≥ 2", lambda x: x >= 2),
    "grid.cols": ("cols", "count", "≥ 2", lambda x: x >= 2),
    "grid.edge_time_range": (
        "edge_time_range", "numbers", "two finite numbers 0 < lo ≤ hi",
        lambda x: len(x) == 2 and all(map(_finite, x)) and 0 < x[0] <= x[1]),
    "fleet.ervs": ("n_ervs", "count", f"1 to {MAX_FLEET:,}",
                   lambda x: 1 <= x <= MAX_FLEET),
    "fleet.uavs": ("n_uavs", "count", f"0 to {MAX_FLEET:,}",
                   lambda x: 0 <= x <= MAX_FLEET),
    "stage_gap_h": ("stage_gap", "number", "positive and finite", _positive),
    "solver.algorithm": ("algorithm", "text", '"mgm" or "dsa"',
                         lambda x: x in ("mgm", "dsa")),
    "solver.iterations": ("iterations", "count", f"1 to {MAX_ITERATIONS:,}",
                          lambda x: 1 <= x <= MAX_ITERATIONS),
    "solver.dsa_threshold": ("dsa_threshold", "number", "in [0, 1]", _unit),
    "forecast.prob_range": ("prob_range", "numbers", "two numbers 0 ≤ lo ≤ hi ≤ 1",
                            lambda x: len(x) == 2 and 0 <= x[0] <= x[1] <= 1),
    "forecast.normalize": ("normalize_field", "switch", "", _any),
    "forecast.budget": ("field_budget", "number", "positive and finite", _positive),
    "forecast.signal": ("forecast_signal", "number", "in [0, 1]", _unit),
    "lookahead": ("lookahead", "count", "0, 1 or 2", lambda x: x in (0, 1, 2)),
    "relocation_k": ("relocation_k", "count", f"0 to {MAX_RELOCATION_K:,}",
                     lambda x: 0 <= x <= MAX_RELOCATION_K),
    "cooperation": ("cooperation", "switch", "", _any),
    "kappa": ("kappa", "number", f"positive, at most {MAX_KAPPA:,.0f}",
              lambda x: 0 < x <= MAX_KAPPA),
}


@dataclass(frozen=True)
class Scenario:
    seed: int
    schedule: tuple[int, ...] = (1,)   # new requests per stage
    rows: int = 10
    cols: int = 10
    edge_time_range: tuple[float, float] = DEFAULT_EDGE_RANGE
    n_ervs: int = 3
    n_uavs: int = 0
    stage_gap: float = 0.5             # hours between request stages
    algorithm: str = "dsa"
    iterations: int = 45
    dsa_threshold: float = 0.9         # DSA's activation probability
    prob_range: tuple[float, float] = DEFAULT_PROB_RANGE
    normalize_field: bool = False
    field_budget: float = 1.0
    lookahead: int = 2
    relocation_k: int = 10
    cooperation: bool = True
    kappa: float = DEFAULT_OBS_VAR_RATIO  # observation variance ratio
    forecast_signal: float = 0.35      # probability lift at true incident cells
    name: str = ""

    def __post_init__(self) -> None:
        # a scenario keys the per-world run cache, so every field must hash
        for name in ("schedule", "edge_time_range", "prob_range"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for key, (attr, _, rule, check) in SCENARIO_FIELDS.items():
            value = getattr(self, attr)
            if not check(value):
                raise InputError(f"{key} must be {rule}, got {value!r}")
        cells = self.rows * self.cols
        if cells > MAX_CELLS:
            raise InputError(f"a {self.rows}x{self.cols} grid has more than "
                             f"{MAX_CELLS:,} cells")
        # the field materialize draws; with the cell ceiling, this keeps
        # every count in _stage_bound far below a float's range
        if (len(self.schedule) + self.lookahead + 1) * cells > MAX_FIELD:
            raise InputError(f"{len(self.schedule)} stages and lookahead "
                             f"{self.lookahead} on {cells:,} cells need more "
                             f"than {MAX_FIELD:,} forecast field entries")
        if self.n_ervs > cells:  # keeps all-different satisfiable
            raise InputError(f"{self.n_ervs} ERVs on a {self.rows}x{self.cols} "
                             "grid: at most one per cell")
        if self.n_uavs > cells:  # a UAV past one per cell only idles
            raise InputError(f"{self.n_uavs} UAVs on a {self.rows}x{self.cols} "
                             "grid: at most one per cell")
        if max(self.schedule) > cells:  # one incident per cell
            raise InputError(f"a stage requests {max(self.schedule)} incidents "
                             f"on {cells} cells")
        if sum(self.schedule) > MAX_INCIDENTS:
            raise InputError(f"the schedule requests {sum(self.schedule):,} "
                             f"incidents, more than {MAX_INCIDENTS:,}")
        bound = _stage_bound(self)
        if not bound <= MAX_STAGES:  # a NaN bound fails too
            raise InputError(
                f"stage gap {self.stage_gap} h allows more than {MAX_STAGES} "
                "stages on this grid and schedule")
        if not bound * self.stage_gap <= MAX_HORIZON_H:  # an overflow fails too
            raise InputError(
                f"stage gap {self.stage_gap} h allows a stage loop longer than "
                f"{MAX_HORIZON_H:,.0f} h on this grid and schedule")
        # open cells, at most one per incident, plus build_erv_problem's
        # max(relocation_k, free vehicles) candidates, within the grid
        domain = min(cells, min(cells, sum(self.schedule))
                     + max(self.relocation_k, self.n_ervs))
        if domain > MAX_DOMAIN:
            raise InputError(f"a stage problem may hold {domain:,} candidate "
                             f"cells, more than {MAX_DOMAIN:,}")


@dataclass
class World:
    """Materialized scenario state shared by every policy run.

    `incidents` is the full request sequence in (report time, id) order,
    the order in which every policy takes waiting incidents, so a stage
    loop that appends new reports and drops served ones keeps its open list
    in that order without sorting. Ids are `i000`, `i001`, ... in generation
    order, so past `i999` the order differs from generation order within a
    report time (`"i1000" < "i999"`).
    """

    net: GridNetwork
    forecast: Forecast
    incidents: list[Incident]
    erv_cells: list[int]
    uav_cells: list[int]
    # (policy, scenario) -> RunResult: a run is a pure function of both, so
    # run_opt replays the runs a caller already made on this world
    runs: dict[tuple[str, Scenario], RunResult] = field(
        default_factory=dict, init=False, compare=False, repr=False)


def materialize(sc: Scenario) -> World:
    """Build the world the scenario describes. Pure function of the seed."""
    net = build_grid(sc.rows, sc.cols, sc.edge_time_range,
                     seed=_int_seed(sc.seed, _NET))
    # field horizon covers the schedule plus the look-ahead window
    stages = len(sc.schedule) + sc.lookahead + 1
    field_ = generate_field(
        net.n_cells, stages, seed=_int_seed(sc.seed, _FIELD),
        prob_range=sc.prob_range, normalize=sc.normalize_field,
        budget=sc.field_budget,
    )

    # (hazard, sparsity) per incident in generation order, drawn in one
    # call: the same values as one scalar draw each, in that order
    attrs = _rng(sc.seed, _ATTRS).integers(1, 6, size=2 * sum(sc.schedule)).tolist()
    inc_rng = _rng(sc.seed, _INC)
    incidents: list[Incident] = []
    for stage, count in enumerate(sc.schedule):
        cells = inc_rng.choice(net.n_cells, size=count, replace=False)
        for cell in cells.tolist():
            n = len(incidents)
            # severity and parameters interleave on one stream: a scalar
            # severity draw, then one random(6) call for the parameters
            severity = int(inc_rng.integers(1, 5))
            incidents.append(Incident(
                f"i{n:03d}", cell, severity, stage * sc.stage_gap,
                sample_params(severity, inc_rng), attrs[2 * n], attrs[2 * n + 1],
            ))
            # the forecast has skill: lift the primary probability where and
            # when incidents will actually land (strength is a scenario knob;
            # 0 = noise)
            if sc.forecast_signal > 0:
                field_[stage, cell] = min(1.0, field_[stage, cell] + sc.forecast_signal)

    pos_rng = _rng(sc.seed, _POS)
    erv_cells = pos_rng.integers(0, net.n_cells, sc.n_ervs).tolist()
    uav_cells = pos_rng.integers(0, net.n_cells, sc.n_uavs).tolist()
    return World(
        net=net, forecast=Forecast(field_, default_kernel(net)),  # after the lift
        # the world order, after every draw that follows generation order
        incidents=sorted(incidents, key=lambda i: (i.report_time, i.id)),
        erv_cells=erv_cells, uav_cells=uav_cells,
    )


@dataclass
class IncidentOutcome:
    incident: Incident
    erv_id: str
    response_h: float
    delay_veh_h: float
    delay_var: float
    cooperating: bool


def _served(inc: Incident, erv_id: str, response: float,
            cooperating: bool = False) -> IncidentOutcome:
    """The outcome of `inc`, served by `erv_id` at `response` hours after
    its report, with its delay and delay variance priced once."""
    return IncidentOutcome(
        incident=inc, erv_id=erv_id, response_h=response,
        delay_veh_h=expected_delay(inc.params, response),
        delay_var=delay_variance(inc.params, response),
        cooperating=cooperating,
    )


@dataclass
class StageOutcome:
    stage: int
    time_h: float
    n_open: int
    n_free_ervs: int
    erv_assignments: list       # (erv_id, cell, kind)
    # a stage with no solve has no objective, messages, moves or UAV tasking
    erv_cost: float | None = None   # objective of the committed assignment
    erv_messages: int = 0
    erv_moves: int = 0
    uav_assignments: list = field(default_factory=list)  # (uav_id, cell)
    uav_utility: float | None = None


@dataclass
class RunResult:
    policy: str
    seed: int
    stages: list[StageOutcome]
    incidents: list[IncidentOutcome]
    assimilation: list[AssimilationRecord]
    total_delay_veh_h: float
    total_response_min: float
    total_uav_utility: float
    opt_nodes: int = 0


def _finish(policy: str, sc: Scenario, stages, outcomes, records,
            opt_nodes: int = 0) -> RunResult:
    outcomes = sorted(outcomes, key=lambda o: o.incident.id)
    # plain adds in outcome and stage order, not sum() (which compensates
    # from 3.12), so the totals do not depend on the interpreter
    delay_total = response_total = uav_total = 0.0
    for o in outcomes:
        delay_total += o.delay_veh_h
        response_total += o.response_h
    for s in stages:
        if s.uav_utility is not None:
            uav_total += s.uav_utility
    return RunResult(
        policy=policy,
        seed=sc.seed,
        stages=stages,
        incidents=outcomes,
        assimilation=records,
        total_delay_veh_h=delay_total,
        total_response_min=response_total * 60.0,
        total_uav_utility=uav_total,
        opt_nodes=opt_nodes,
    )


def _stage_bound(sc: Scenario) -> float:
    """Livelock bound on the stage loop, from the scenario alone, in floats.

    A shortest path crosses at most rows + cols - 2 links, each no slower
    than the top of the edge range. Even one vehicle serving incidents one
    at a time after the last request spends at most a leg already under
    way, a leg to the incident, the largest clearance of any severity and a
    leg back (or a relocation) per incident, plus the wait for the next
    stage. Each quotient gets + 1 for rounding its stage count up.
    """
    leg = (sc.rows + sc.cols - 2) * sc.edge_time_range[1]
    per_incident = (2 * leg + _MAX_CLEARANCE) / sc.stage_gap + 2
    return (len(sc.schedule) + leg / sc.stage_gap + 1
            + per_incident * sum(sc.schedule))


def _erv_id(e: int) -> str:
    return f"erv{e}"


def _cached_run(policy: str, run, sc: Scenario, world: World | None) -> RunResult:
    """The world's stored run of `policy` on `sc`, made by `run` on a miss."""
    w = world if world is not None else materialize(sc)
    res = w.runs.get((policy, sc))
    if res is None:
        res = w.runs[(policy, sc)] = run(sc, w)
    return res


def _run_stages(sc: Scenario, w: World, fleet: list[Vehicle], step) -> list[StageOutcome]:
    """The stage clock of the conventional and pdronetim policies.

    Each stage ingests the requests reported by its start, counts the free
    vehicles, and calls step(stage, t, open incidents, free vehicles), which
    serves what the policy serves and returns (the incidents it served, the
    policy's own StageOutcome fields); the served incidents then leave the
    open list. The open list stays in the world's (report time, id) order,
    and is rebuilt only after a stage that served something. The loop covers
    every scheduled stage (relocation duty even with no requests), then
    keeps draining until every incident is served.
    """
    incidents, reported = w.incidents, 0  # world order; frozen, so shared
    open_inc: list[Incident] = []
    stages: list[StageOutcome] = []
    stage = 0
    bound = _stage_bound(sc)
    while reported < len(incidents) or open_inc or stage < len(sc.schedule):
        if stage > bound:
            raise CapExceededError(
                f"stage loop failed to drain after {int(bound)} stages"
            )
        t = stage * sc.stage_gap
        while (reported < len(incidents)
               and incidents[reported].report_time <= t + TIME_EPS):
            open_inc.append(incidents[reported])
            reported += 1

        free = [e for e in fleet if e.is_free(t)]
        served, fields = step(stage, t, open_inc, free)
        if served:
            done = {i.id for i in served}
            open_inc = [i for i in open_inc if i.id not in done]
        stages.append(StageOutcome(
            stage=stage, time_h=t,
            n_open=len(open_inc), n_free_ervs=len(free), **fields,
        ))
        stage += 1
    return stages


def _fleet(w: World) -> list[Vehicle]:
    return [Vehicle(id=_erv_id(i), cell=c) for i, c in enumerate(w.erv_cells)]


# ---------------------------------------------------------------- proactive


def run_proactive(sc: Scenario, world: World | None = None) -> RunResult:
    return _cached_run("pdronetim", _run_proactive, sc, world)


def _run_proactive(sc: Scenario, w: World) -> RunResult:
    fleet = _fleet(w)
    uavs = [Vehicle(id=f"uav{i}", cell=c) for i, c in enumerate(w.uav_cells)]
    obs_rng = _rng(sc.seed, _OBS)
    outcomes: list[IncidentOutcome] = []
    assim: list[AssimilationRecord] = []

    def solved(problem, purpose: int, stage: int):
        # each sub-team solves on its own seeded stream of the stage
        return solve(problem, sc, _int_seed(sc.seed, purpose, stage))

    def step(stage: int, t: float, open_inc: list[Incident],
             free: list[Vehicle]) -> tuple[list[Incident], dict]:
        fields: dict = {"erv_assignments": []}
        records: list[DispatchRecord] = []
        # skip the solve when there is nothing to do: no open incidents and
        # nothing left to anticipate (past the forecast horizon)
        if free and (open_inc or stage + 1 < len(w.forecast.field_)):
            ctx = StageContext(
                net=w.net, forecast=w.forecast,
                stage_time=t, stage_index=stage, open_incidents=open_inc,
                lookahead=sc.lookahead, relocation_k=sc.relocation_k,
            )
            trace = solved(build_erv_problem(ctx, free), _SOLVER, stage)
            records = apply_assignment(ctx, free, trace.final_assignment)
            dispatched = {r.erv_id for r in records}
            fields.update(
                erv_assignments=[
                    (erv_id, cell,
                     "dispatch" if erv_id in dispatched else "relocate")
                    for erv_id, cell in sorted(trace.final_assignment.items())
                ],
                erv_cost=trace.final_cost,
                erv_messages=trace.messages,
                erv_moves=sum(trace.moves),
            )

        # UAV observation tasking for the incidents served this stage, at
        # most one per cell
        served = [r.incident for r in records]
        observed: dict[str, int] = {}
        free_uavs = [u for u in uavs if u.is_free(t)] if records else []
        if free_uavs:
            benefits = {
                inc.location: priority_benefit(inc.severity, inc.sparsity, inc.hazard)
                for inc in served
            }
            u_trace = solved(build_uav_problem(w.net, free_uavs, benefits),
                             _UAVSOLVER, stage)
            observed = apply_uav_assignment(
                w.net, free_uavs, u_trace.final_assignment, t
            )
            fields.update(
                uav_assignments=sorted(observed.items()),
                uav_utility=u_trace.final_cost,
            )

        # this stage's outcome per served cell, whose delay is the belief
        served_at: dict[int, IncidentOutcome] = {}
        for r in records:
            inc = r.incident
            coop = sc.cooperation and inc.location in observed.values()
            response = cooperation_effect(r.response_h, inc.hazard, coop)
            o = served_at[inc.location] = _served(inc, r.erv_id, response, coop)
            outcomes.append(o)

        # data assimilation for every overflight (UAVs observe served cells
        # only, at most one UAV per cell); a served incident's delay variance
        # is positive (incidents.py), so every prior can be updated
        for uid in sorted(observed):
            o = served_at[observed[uid]]
            prior = DelayBelief(o.delay_veh_h, o.delay_var)
            obs_mean, obs_var = simulate_observation(
                prior, prior.mean, obs_rng, kappa=sc.kappa
            )
            post, beta = assimilate(prior, obs_mean, obs_var)
            assim.append(AssimilationRecord(
                incident_id=o.incident.id, uav_id=uid,
                prior_mean=prior.mean, prior_var=prior.variance,
                obs_mean=obs_mean, obs_var=obs_var, beta=beta,
                post_mean=post.mean, post_var=post.variance,
            ))
        return served, fields

    stages = _run_stages(sc, w, fleet, step)
    return _finish("pdronetim", sc, stages, outcomes, assim)


# ------------------------------------------------------------- conventional


def run_conventional(sc: Scenario, world: World | None = None) -> RunResult:
    """Reactive baseline: closest available vehicle, then back to the depot."""
    return _cached_run("conventional", _run_conventional, sc, world)


def _run_conventional(sc: Scenario, w: World) -> RunResult:
    fleet = _fleet(w)  # a vehicle's cell never leaves its depot
    outcomes: list[IncidentOutcome] = []
    # every row the run reads, in one Dijkstra call: a depot's row prices
    # its vehicle on an incident, and an incident's row prices the way home
    travel_rows(w.net, [*w.erv_cells, *(i.location for i in w.incidents)])

    def step(stage: int, t: float, open_inc: list[Incident],
             free: list[Vehicle]) -> tuple[list[Incident], dict]:
        # the oldest waiting incident first: open_inc is in world order
        assignments: list = []
        served: list[Incident] = []
        avail = list(free)
        for inc in open_inc:
            if not avail:
                break
            erv = min(
                avail,
                key=lambda e: (travel_time(w.net, e.cell, inc.location), e.id),
            )
            travel = travel_time(w.net, erv.cell, inc.location)
            outcomes.append(_served(inc, erv.id, (t - inc.report_time) + travel))
            served.append(inc)
            # serve, then drive home; busy for the whole tour
            back = travel_time(w.net, inc.location, erv.cell)
            erv.available_at = t + travel + inc.params.clearance + back
            avail.remove(erv)  # busy for at least the clearance
            assignments.append((erv.id, inc.location, "dispatch"))
        return served, {"erv_assignments": assignments}

    stages = _run_stages(sc, w, fleet, step)
    return _finish("conventional", sc, stages, outcomes, [])


# ---------------------------------------------------------------------- opt


def run_opt(sc: Scenario, world: World | None = None) -> RunResult:
    """Clairvoyant exact baseline (see _ExactSearch).

    The search starts from the best of three polished incumbents -- a greedy
    schedule and both realized policies replayed with direct motion -- so it
    returns at or below either policy's cost by construction (on a world
    that already ran them, the stored runs are replayed). States surviving
    their own floor count as evaluations; exceeding OPT_EVAL_CAP raises
    CapExceededError.
    """
    w = world if world is not None else materialize(sc)
    search = _ExactSearch(w)
    incumbents = [search.greedy(), search.replay(run_conventional(sc, w)),
                  search.replay(run_proactive(sc, w))]
    cost, seqs = min((search.polish(cost, seqs) for cost, seqs in incumbents),
                     key=lambda t: t[0])
    plan, nodes = search.search(cost, seqs, OPT_EVAL_CAP)

    incidents = search.incidents
    outcomes = [_served(incidents[i], _erv_id(e), start - incidents[i].report_time)
                for i, e, start in plan]
    return _finish("opt", sc, [], outcomes, [], opt_nodes=nodes)


class _ExactSearch:
    """Branch and bound over every service schedule of a world.

    Incidents are indexed in the world's (report time, id) order. A schedule
    is one service order (a tuple of incident indices) per vehicle; a
    vehicle drives straight to its next commitment as soon as it is free,
    and service cannot start before the report. Incumbents pass between the
    methods as (cost, schedule); `plan` turns a schedule into (incident,
    vehicle, start) triples. The search enumerates services as one event
    sequence in nondecreasing (start, vehicle, incident) order, which names
    each schedule exactly once, and prunes a state by `floor`.

    Each piece of pricing and proof work is done once per search: `leg`
    extends a memoized prefix by one service, `polish` records every
    descent's local optimum for the descents that follow, and `floor` stops
    as soon as its prune verdict is settled.

    A delay is max(0, coef * ((response + clearance)^2 + r_var)) with
    coef = bracket / twice_gap, the delay model's constants per incident.
    """

    def __init__(self, w: World) -> None:
        self.incidents = w.incidents
        self.erv_cells = list(w.erv_cells)
        self.n_erv = n_erv = len(self.erv_cells)
        self.erv_index = {_erv_id(e): e for e in range(n_erv)}
        self.id_to_idx = {inc.id: i for i, inc in enumerate(self.incidents)}

        # travel rows for every position the search can reach, in one
        # Dijkstra call
        sources = sorted(set(self.erv_cells)
                         | {i.location for i in self.incidents})
        rows = travel_rows(w.net, sources)
        # plain-float copies for the scalar loops, so every cost is a float
        self.tt = tt = {s: row.tolist() for s, row in zip(sources, rows)}
        # the same rows as one matrix, for the refinement's broadcast
        self.tt_m = np.array(rows)
        self.row_of = {src: r for r, src in enumerate(sources)}

        params = [i.params for i in self.incidents]
        self.rep = np.array([i.report_time for i in self.incidents])
        self.loc = np.array([i.location for i in self.incidents])
        self.clr = np.array([p.clearance for p in params])
        self.var = np.array([p.r_var for p in params])
        self.coef = np.array([p.bracket / p.twice_gap for p in params])
        # plain-float copies for the per-incident direct floor
        self.rep_l, self.loc_l, self.clr_l, self.var_l, self.coef_l = (
            a.tolist() for a in (self.rep, self.loc, self.clr, self.var, self.coef)
        )
        # minimum inbound travel per incident: every service occupies its
        # vehicle for at least this plus the clearance (zero when a vehicle
        # could already stand on the cell)
        multi = {c for c in self.loc_l if self.loc_l.count(c) > 1}
        self.tin = np.array([
            0.0 if (c in self.erv_cells or c in multi)
            else min(tt[s][c] for s in sources if s != c)
            for c in self.loc_l
        ])
        # (vehicle, service order) -> per-service (delay, start), shared by
        # every replay and every polish trial of every incumbent; each order
        # is priced from its memoized prefix
        self.legs: dict[tuple[int, tuple[int, ...]], tuple[tuple[float, float], ...]]
        self.legs = {(e, ()): () for e in range(n_erv)}
        # schedule a polish descent stepped to -> the local optimum reached
        # from it, shared by the descents of every incumbent
        self.descents: dict[tuple[tuple[int, ...], ...],
                            tuple[float, list[tuple[int, ...]]]] = {}

    def floor(self, remaining: frozenset, pos: tuple, free_at: tuple,
              last_start: float, need: float) -> float:
        """Admissible bound on the cost of the unserved incidents, exact
        only as far as the verdict `floor(...) >= need` needs.

        Direct part: each incident costs at least the delay of the best
        direct arrival from some vehicle's current state (detours and later
        departures only lengthen the response), and no remaining service may
        start before the last scheduled one in the canonical order. Every
        term is >= 0, so once the running sum reaches `need` the whole sum
        would too: return it there, a value still at or below the full
        bound. Otherwise refine: an incident served r-th by vehicle e cannot
        start before the vehicle has absorbed r - 1 clearances (cheapest
        possible) and the connecting travel, which is at least the direct
        leg and at least the r cheapest inbound legs chained together; the
        cheapest one-to-one matching of incidents to (vehicle, rank) slots,
        priced in one broadcast over vehicles, is then still a lower bound.
        """
        n_erv, tt = self.n_erv, self.tt
        loc_l, rep_l, clr_l, var_l, coef_l = (
            self.loc_l, self.rep_l, self.clr_l, self.var_l, self.coef_l)
        base = last_start if last_start > 0.0 else 0.0
        states = [(free_at[e], tt[pos[e]]) for e in range(n_erv)]
        # plain floats, squared as x * x like numpy's ** 2 in the refinement
        direct = 0.0
        for i in remaining:
            c, r = loc_l[i], rep_l[i]
            arrive = math.inf
            for f, row in states:
                if f + row[c] < arrive:
                    arrive = f + row[c]
            x = max(arrive, r, base) - r + clr_l[i]
            d = coef_l[i] * (x * x + var_l[i])
            if d > 0.0:
                direct += d
                if direct >= need:
                    return direct
        k = len(remaining)
        if k <= n_erv or direct >= need:
            return direct

        idx = np.fromiter(remaining, dtype=int, count=k)
        locs, rep, tin = self.loc[idx], self.rep[idx], self.tin[idx]
        cf, cl, vr = self.coef[idx], self.clr[idx], self.var[idx]
        # prefix sums of the cheapest r - 1 clearances / inbound legs
        ccum = np.concatenate(([0.0], np.cumsum(np.sort(cl))))[:k]
        tcum = np.concatenate(([0.0], np.cumsum(np.sort(tin))))[:k]
        # (vehicle, rank, incident)
        tt_e = self.tt_m[[self.row_of[c] for c in pos]][:, locs]
        travel = np.maximum(tt_e[:, None, :], tcum[:, None] + tin)
        start = np.array(free_at)[:, None, None] + ccum[:, None] + travel
        start = np.maximum(np.maximum(start, rep), base)
        cost = cf * ((start - rep + cl) ** 2 + vr)
        costm = np.maximum(cost, 0.0).reshape(n_erv * k, k)
        rows, cols = linear_sum_assignment(costm.T)
        return max(direct, float(costm.T[rows, cols].sum()))

    def leg(self, e: int, seq: tuple[int, ...]) -> tuple[tuple[float, float], ...]:
        """Per-service (delay, start) of vehicle e serving seq in order.

        Priced from the longest memoized prefix, one service at a time, and
        every prefix on the way is memoized; a loop, not recursion, so a
        long replay cannot reach the recursion limit."""
        legs = self.legs
        out = legs.get((e, seq))
        if out is not None:
            return out
        n = len(seq) - 1
        while (e, seq[:n]) not in legs:  # (e, ()) is always there
            n -= 1
        out = legs[(e, seq[:n])]
        if n:
            prev = self.incidents[seq[n - 1]]
            at, free = prev.location, out[-1][1] + prev.params.clearance
        else:
            at, free = self.erv_cells[e], 0.0
        for m in range(n, len(seq)):
            inc = self.incidents[seq[m]]
            start = max(inc.report_time, free + self.tt[at][inc.location])
            out += ((expected_delay(inc.params, start - inc.report_time), start),)
            legs[(e, seq[:m + 1])] = out
            free = start + inc.params.clearance
            at = inc.location
        return out

    def cost(self, seqs) -> float:
        # plain adds in vehicle then service order, not sum() (which
        # compensates from Python 3.12): which trials pass the 1e-9 test in
        # polish, and so opt's answer, depends on these exact floats
        total = 0.0
        for e, seq in enumerate(seqs):
            for d, _ in self.leg(e, seq):
                total += d
        return total

    def plan(self, seqs) -> list[tuple[int, int, float]]:
        return [(i, e, start) for e, seq in enumerate(seqs)
                for i, (_, start) in zip(seq, self.leg(e, seq))]

    def greedy(self) -> tuple[float, list[tuple[int, ...]]]:
        """Report order, each incident to the vehicle that can start it
        first (lowest index on ties). The cost is added in report order as
        the schedule grows: the search prunes against this exact float."""
        pos = list(self.erv_cells)
        free_at = [0.0] * self.n_erv
        total = 0.0
        seqs: list[tuple[int, ...]] = [()] * self.n_erv
        for i, inc in enumerate(self.incidents):
            start, e = min(
                (max(free_at[e] + self.tt[pos[e]][inc.location], inc.report_time), e)
                for e in range(self.n_erv))
            total += expected_delay(inc.params, start - inc.report_time)
            free_at[e] = start + inc.params.clearance
            pos[e] = inc.location
            seqs[e] += (i,)
        return total, seqs

    def replay(self, result: RunResult) -> tuple[float, list[tuple[int, ...]]]:
        """A realized policy's per-vehicle service orders, run with direct
        motion. Skipping depot returns and relocation detours can only move
        each service start earlier (triangle inequality), so the schedule
        costs no more than the policy's realized total."""
        seqs: list[tuple[int, ...]] = [()] * self.n_erv
        for o in sorted(result.incidents, key=lambda o: (
                o.incident.report_time + o.response_h, o.incident.id)):
            seqs[self.erv_index[o.erv_id]] += (self.id_to_idx[o.incident.id],)
        return self.cost(seqs), seqs

    def polish(self, cost: float, seqs) -> tuple[float, list[tuple[int, ...]]]:
        """Steepest descent from schedule `seqs` of cost `cost` over
        single-incident relocations (any vehicle, any position) and pairwise
        exchanges until no move improves; returns the final cost and
        schedule.

        After its first step a descent's state is just its schedule, so each
        schedule it steps to is recorded with the local optimum it ends at,
        and a later descent that steps onto a recorded schedule returns that
        optimum. A sweep prices each neighbour once: a same-vehicle move one
        place back, and a same-vehicle adjacent exchange, are the move one
        place forward it has already priced. A repeat could not win anyway,
        since the best trial cost so far only falls. A trial is priced from
        the legs of the one or two vehicles it changes, and a schedule list
        is built only for the step taken."""
        n_erv, stepped = self.n_erv, []
        while True:
            step_cost, step = cost, None
            # a trial changes vehicles a and b only: price it from seqs'
            # running total before vehicle min(a, b) and the other vehicles'
            # legs, the same adds cost() would make
            cur = [self.leg(e, seq) for e, seq in enumerate(seqs)]
            before = [0.0]
            for out in cur[:-1]:
                total = before[-1]
                for d, _ in out:
                    total += d
                before.append(total)

            def price(a, out_a, b, out_b):
                first = a if a < b else b
                total = before[first]
                for e in range(first, n_erv):
                    for d, _ in (out_b if e == b else out_a if e == a else cur[e]):
                        total += d
                return total

            for a in range(n_erv):
                for p in range(len(seqs[a])):
                    moved = seqs[a][p]
                    rest_a = seqs[a][:p] + seqs[a][p + 1:]
                    for b in range(n_erv):
                        if b == a:
                            into, out_a = rest_a, None
                        else:
                            into, out_a = seqs[b], self.leg(a, rest_a)
                        for q in range(len(into) + 1):
                            if b == a and (q == p or q == p - 1):
                                continue
                            seq_b = into[:q] + (moved,) + into[q:]
                            c = price(a, out_a, b, self.leg(b, seq_b))
                            if c < step_cost - 1e-9:
                                step_cost, step = c, (a, rest_a, b, seq_b)
            slots = [(e, p) for e in range(n_erv) for p in range(len(seqs[e]))]
            for x in range(len(slots)):
                for y in range(x + 1, len(slots)):
                    (a, p), (b, q) = slots[x], slots[y]
                    u, v = seqs[a][p], seqs[b][q]
                    if a == b:
                        if q == p + 1:
                            continue
                        s = seqs[a]
                        seq_a = seq_b = s[:p] + (v,) + s[p + 1:q] + (u,) + s[q + 1:]
                        c = price(a, None, b, self.leg(b, seq_b))
                    else:
                        seq_a = seqs[a][:p] + (v,) + seqs[a][p + 1:]
                        seq_b = seqs[b][:q] + (u,) + seqs[b][q + 1:]
                        c = price(a, self.leg(a, seq_a), b, self.leg(b, seq_b))
                    if c < step_cost - 1e-9:
                        step_cost, step = c, (a, seq_a, b, seq_b)
            if step is None:
                found = cost, seqs
                break
            a, seq_a, b, seq_b = step
            seqs = list(seqs)
            seqs[a], seqs[b] = seq_a, seq_b
            cost = step_cost
            key = tuple(seqs)
            found = self.descents.get(key)
            if found is not None:
                break
            stepped.append(key)
        for key in stepped:
            self.descents[key] = found
        return found

    def _children(self, remaining: frozenset, pos: tuple, free_at: tuple,
                  last_event: tuple[float, int, int]) -> list[tuple[float, int, int]]:
        """Every (start, vehicle, incident) that may follow last_event in
        canonical order, earliest first; of vehicles in the same state, only
        the first is tried."""
        cands = []
        seen = set()
        for e in range(self.n_erv):
            state = (pos[e], free_at[e])
            if state in seen:  # interchangeable vehicles
                continue
            seen.add(state)
            row = self.tt[pos[e]]
            for i in remaining:
                start = max(free_at[e] + row[self.loc_l[i]], self.rep_l[i])
                if (start, e, i) <= last_event:
                    continue
                cands.append((start, e, i))
        cands.sort()  # early starts first: good incumbents appear quickly
        return cands

    def search(self, cost: float, seqs, cap: int
               ) -> tuple[list[tuple[int, int, float]], int]:
        """Depth-first search from the incumbent schedule `seqs` of cost
        `cost`; returns the best plan found and the number of evaluations
        (children that survived their own floor)."""
        incidents, floor, children_of = self.incidents, self.floor, self._children
        best_cost, best_plan = cost, self.plan(seqs)
        pos, free_at = tuple(self.erv_cells), (0.0,) * self.n_erv
        root = frozenset(range(len(incidents)))
        nodes = 0
        if not root or floor(root, pos, free_at, 0.0, best_cost) >= best_cost:
            return best_plan, nodes
        # one frame per expanded state: (untried children, state); every
        # frame above the root owns the last entry of plan
        plan: list[tuple[int, int, float]] = []
        frames = [(iter(children_of(root, pos, free_at, (-math.inf, -1, -1))),
                   root, pos, free_at, 0.0)]
        while frames:
            children, remaining, pos, free_at, partial = frames[-1]
            for start, e, i in children:
                inc = incidents[i]
                new_partial = partial + expected_delay(
                    inc.params, start - inc.report_time)
                if new_partial >= best_cost:
                    continue
                child = remaining - {i}
                if not child:
                    best_cost, best_plan = new_partial, [*plan, (i, e, start)]
                    continue
                child_pos = pos[:e] + (inc.location,) + pos[e + 1:]
                child_free = (free_at[:e] + (start + inc.params.clearance,)
                              + free_at[e + 1:])
                # survive both the floor's own verdict, which its early exit
                # keeps exact, and the rounded total; they differ only
                # within rounding of best_cost - new_partial
                need = best_cost - new_partial
                f = floor(child, child_pos, child_free, start, need)
                if f < need and new_partial + f < best_cost:
                    nodes += 1
                    if nodes > cap:
                        raise CapExceededError(
                            f"opt search exceeded {cap} evaluations")
                    plan.append((i, e, start))
                    frames.append((iter(children_of(
                        child, child_pos, child_free, (start, e, i))),
                        child, child_pos, child_free, new_partial))
                    break
            else:
                frames.pop()
                if plan:
                    plan.pop()
        return best_plan, nodes


def run_policy(sc: Scenario, policy: str, world: World | None = None) -> RunResult:
    if policy not in POLICIES:
        raise InputError(
            f"unknown policy {policy!r}; choose from {', '.join(POLICIES)}"
        )
    if policy == "conventional":
        return run_conventional(sc, world)
    if policy == "pdronetim":
        return run_proactive(sc, world)
    return run_opt(sc, world)


# ------------------------------------------------------------ serialization


def _object(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise InputError(f"{what} must be a JSON object, got {type(d).__name__}")
    return d


def known_keys(d: dict, keys, what: str) -> None:
    """Reject a key of `d` that is not one of `keys`, rather than ignore it."""
    for key in d:
        if key not in keys:
            raise InputError(f"unknown {what} key {key!r}")


def whole_number(x, what: str) -> int:
    """A count or seed: a whole number, never truncated."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or (
            isinstance(x, float) and not x.is_integer()):
        raise InputError(f"{what} must be a whole number, got {x!r}")
    return int(x)


def number(x, what: str) -> float:
    """A JSON number: an int or a float, never a boolean or a string."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InputError(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise InputError(f"{what} is too large, got {x!r}") from None


def string(x, what: str) -> str:
    """A JSON string, never a number or a structure converted to one."""
    if not isinstance(x, str):
        raise InputError(f"{what} must be a string, got {x!r}")
    return x


def _flag(x, what: str) -> bool:
    """A switch: JSON true or false, nothing that merely converts to one."""
    if not isinstance(x, bool):
        raise InputError(f"{what} must be true or false, got {x!r}")
    return x


def _listed(read):
    """A reader of a JSON list of values that `read` reads, as a tuple."""
    def read_list(x, what: str) -> tuple:
        if not isinstance(x, list):
            raise InputError(f"{what} must be a list, got {x!r}")
        return tuple(read(k, f"an entry of {what}") for k in x)
    return read_list


# field kind -> reader of a JSON value of that kind
READERS = {
    "count": whole_number,
    "number": number,
    "text": string,
    "switch": _flag,
    "counts": _listed(whole_number),
    "numbers": _listed(number),
}


_SECTIONS = frozenset(key.split(".")[0] for key in SCENARIO_FIELDS if "." in key)


def scenario_to_dict(sc: Scenario) -> dict:
    d: dict = {}
    for key, (attr, kind, *_) in SCENARIO_FIELDS.items():
        section, _, name = key.rpartition(".")
        value = getattr(sc, attr)
        (d.setdefault(section, {}) if section else d)[name] = (
            list(value) if kind in ("counts", "numbers") else value)
    return d


def scenario_from_dict(d: dict) -> Scenario:
    flat: dict = {}  # file key -> JSON value
    for top, value in _object(d, "a scenario").items():
        if top in _SECTIONS:
            for name, v in _object(value, top).items():
                flat[f"{top}.{name}"] = v
        elif "." in top:
            raise InputError(f"unknown scenario key {top!r}: a dotted key "
                             "is a field of its section object")
        else:
            flat[top] = value
    known_keys(flat, SCENARIO_FIELDS, "scenario")
    for key in ("seed", "schedule"):
        if key not in flat:
            raise InputError(f"a scenario needs {key}")
    return Scenario(**{attr: READERS[kind](flat[key], key)
                       for key, (attr, kind, *_) in SCENARIO_FIELDS.items()
                       if key in flat})


# The result JSON, written from one %-template per record kind with the keys
# in sorted order and the indentation fixed: the bytes equal those the json
# module writes with sort_keys=True and indent=2 (plus a final newline) for
# the result's dict form, which tests/result_oracle.py builds and the tests
# compare against.

_TOP = """{
  "assimilation": %s,
  "incidents": %s,
  "opt_nodes": %d,
  "policy": %s,
  "seed": %d,
  "stages": %s,
  "totals": {
    "delay_veh_h": %s,
    "response_min": %s,
    "uav_utility": %s
  }
}
"""
_INCIDENT = """    {
      "cell": %d,
      "cooperating": %s,
      "delay_var": %s,
      "delay_veh_h": %s,
      "erv": %s,
      "id": %s,
      "report_h": %s,
      "response_h": %s,
      "severity": %d
    }"""
_STAGE = """    {
      "erv_assignments": %s,
      "erv_cost": %s,
      "erv_messages": %d,
      "erv_moves": %d,
      "free_ervs": %d,
      "open": %d,
      "stage": %d,
      "time_h": %s,
      "uav_assignments": %s,
      "uav_utility": %s
    }"""
_ERV_PAIR = """        [
          %s,
          %d,
          %s
        ]"""
_UAV_PAIR = """        [
          %s,
          %d
        ]"""
_ASSIMILATION = """    {
      "beta": %s,
      "incident_id": %s,
      "obs_mean": %s,
      "obs_var": %s,
      "post_mean": %s,
      "post_var": %s,
      "prior_mean": %s,
      "prior_var": %s,
      "uav_id": %s
    }"""
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_float_repr = float.__repr__


def _num(x: float | None) -> str:
    """A float as the json module writes it: its repr when finite, NaN,
    Infinity or -Infinity when not, and null for None."""
    if x is None:
        return "null"
    text = _float_repr(x)
    return _NONFINITE.get(text, text)


def _array(items: list[str], indent: str) -> str:
    """A JSON list of already indented items; `indent` is the bracket's."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def result_to_json(res: RunResult) -> str:
    incidents = [
        _INCIDENT % (
            o.incident.location, "true" if o.cooperating else "false",
            _num(o.delay_var), _num(o.delay_veh_h), _quote(o.erv_id),
            _quote(o.incident.id), _num(o.incident.report_time),
            _num(o.response_h), o.incident.severity,
        )
        for o in res.incidents
    ]
    stages = [
        _STAGE % (
            _array([_ERV_PAIR % (_quote(e), c, _quote(k))
                    for e, c, k in s.erv_assignments], "      "),
            _num(s.erv_cost), s.erv_messages, s.erv_moves, s.n_free_ervs,
            s.n_open, s.stage, _num(s.time_h),
            _array([_UAV_PAIR % (_quote(u), c)
                    for u, c in s.uav_assignments], "      "),
            _num(s.uav_utility),
        )
        for s in res.stages
    ]
    assimilation = [
        _ASSIMILATION % (
            _num(r.beta), _quote(r.incident_id), _num(r.obs_mean),
            _num(r.obs_var), _num(r.post_mean), _num(r.post_var),
            _num(r.prior_mean), _num(r.prior_var), _quote(r.uav_id),
        )
        for r in res.assimilation
    ]
    return _TOP % (
        _array(assimilation, "  "), _array(incidents, "  "), res.opt_nodes,
        _quote(res.policy), res.seed, _array(stages, "  "),
        _num(res.total_delay_veh_h), _num(res.total_response_min),
        _num(res.total_uav_utility),
    )


def write_stage_csv(res: RunResult, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([
            "stage", "time_h", "open", "free_ervs", "dispatches",
            "relocations", "erv_cost", "erv_messages", "erv_moves",
            "uav_tasked", "uav_utility",
        ])
        for s in res.stages:
            kinds = [a[2] for a in s.erv_assignments]
            w.writerow([
                s.stage, repr(s.time_h), s.n_open, s.n_free_ervs,
                kinds.count("dispatch"), kinds.count("relocate"),
                "" if s.erv_cost is None else repr(s.erv_cost),
                s.erv_messages, s.erv_moves,
                len(s.uav_assignments),
                "" if s.uav_utility is None else repr(s.uav_utility),
            ])


def write_incident_csv(res: RunResult, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([
            "incident_id", "cell", "severity", "report_h", "erv",
            "response_h", "delay_veh_h", "delay_var", "cooperating",
        ])
        for o in res.incidents:
            inc = o.incident
            w.writerow([
                inc.id, inc.location, inc.severity, repr(inc.report_time),
                o.erv_id, repr(o.response_h), repr(o.delay_veh_h),
                repr(o.delay_var), int(o.cooperating),
            ])
