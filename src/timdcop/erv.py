"""Emergency response vehicle sub-team: stage problem builder and bookkeeping.

Each planning stage, free ERVs become DCOP agents. A candidate cell is either
an open-incident cell (dispatch, weight w_d on the expected incident delay)
or a forecast-ranked relocation cell (weight w_r on one minus the expected
incident probability next stage). Each free ERV gets a unary cost vector over
the candidate cells, and one shared all-different table on every pair forbids
two ERVs on one cell.

w_r defaults to 100x the largest current-stage dispatch cost so every open
incident is served before any vehicle relocates.

A two-stage look-ahead augments every candidate cell with the expected cost
of responding, from that cell, to forecast incidents one and two stages out:
sum over the top-K forecast cells c of E[tau(c, u+t)] * delay_ref(travel from
the candidate to c). Future incidents have no sampled parameters yet, so the
delay uses the severity-averaged reference parameter set.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dcop import BinaryConstraint, DcopProblem, all_different_table
from .errors import InputError
from .forecast import Forecast
from .incidents import Incident, TrafficParams, expected_delay, reference_params
from .network import CellId, GridNetwork, travel_row, travel_time

DEFAULT_DISPATCH_WEIGHT = 1.0
RELOCATION_WEIGHT_FACTOR = 100.0
DEFAULT_RELOCATION_K = 10
AVAIL_EPS = 1e-9


@dataclass
class ErvState:
    id: str
    cell: CellId
    available_at: float = 0.0           # free for tasking at/after this time
    initial_cell: CellId | None = None  # depot for the conventional policy
    log: list = field(default_factory=list)  # (stage_time, cell, kind)

    def __post_init__(self) -> None:
        if self.initial_cell is None:
            self.initial_cell = self.cell

    def is_free(self, now: float) -> bool:
        return self.available_at <= now + AVAIL_EPS


@dataclass
class StageContext:
    """Everything a stage solve needs to price candidate cells."""

    net: GridNetwork
    forecast: Forecast
    stage_time: float            # hours
    stage_index: int             # forecast stage u
    open_incidents: list[Incident]
    w_d: float = DEFAULT_DISPATCH_WEIGHT
    w_r: float | None = None     # None -> auto (100 x max dispatch cost)
    lookahead: int = 2
    relocation_k: int = DEFAULT_RELOCATION_K
    stage_gap: float = 0.5       # hours between request stages
    future_params: TrafficParams | None = None  # None -> reference set

    def __post_init__(self) -> None:
        if self.w_d <= 0:
            raise InputError("dispatch weight must be positive")
        if self.w_r is not None and self.w_r <= self.w_d:
            raise InputError("relocation weight must exceed dispatch weight")
        if self.lookahead < 0 or self.lookahead > 2:
            raise InputError("lookahead must be 0, 1 or 2")
        if self.future_params is None:
            self.future_params = reference_params()


def incident_at(ctx: StageContext, cell: CellId) -> Incident | None:
    """Oldest open incident on a cell, if any (that one gets served first)."""
    hits = [i for i in ctx.open_incidents if i.location == cell and not i.cleared]
    if not hits:
        return None
    return min(hits, key=lambda i: (i.report_time, i.id))


def unary_cost(ctx: StageContext, erv: ErvState, cell: CellId) -> float:
    """Myopic weighted cost of sending one ERV to one cell this stage."""
    if ctx.w_r is None:
        raise InputError("unary_cost needs a resolved relocation weight")
    return _priced(ctx, erv, cell, incident_at(ctx, cell),
                   ctx.forecast.row(ctx.stage_index + 1))


def _priced(ctx: StageContext, erv: ErvState, cell: CellId,
            inc: Incident | None,
            p_next: list[float] | np.ndarray | None) -> float:
    """unary_cost given the cell's incident and the next-stage row."""
    if inc is not None:
        response = travel_time(ctx.net, erv.cell, cell)
        return ctx.w_d * expected_delay(inc.params, response)
    return ctx.w_r * (1.0 - float(p_next[cell]))


def relocation_candidates(ctx: StageContext, k: int) -> list[CellId]:
    """Top-k non-incident cells by next-stage expected probability.

    Ties break toward the lower cell index so candidate sets are stable.
    """
    occupied = {i.location for i in ctx.open_incidents if not i.cleared}
    # at most len(occupied) of the first k + len(occupied) ranked cells drop out
    ranked = ctx.forecast.ranking(ctx.stage_index + 1)[:k + len(occupied)]
    return [c for c in ranked.tolist() if c not in occupied][:k]


def forecast_hotspots(ctx: StageContext, stage: int, k: int) -> list[tuple[CellId, float]]:
    """Top-k (cell, probability) pairs for a future stage, ties to the lower cell."""
    top = ctx.forecast.ranking(stage)[:k]
    return [(c, p) for c, p in zip(top.tolist(), ctx.forecast.row(stage)[top].tolist())
            if p > 0.0]


def _coverage_term(ctx: StageContext, cell: CellId,
                   hotspots: list[list[tuple[CellId, float]]]) -> float:
    """Expected response cost from `cell` to anticipated future incidents."""
    total = 0.0
    row = None  # opened on the first hotspot away from the cell itself
    for stage_hits in hotspots:
        for c, p in stage_hits:
            if c == cell:
                response = 0.0
            else:
                if row is None:
                    row = travel_row(ctx.net, cell)
                response = row[c]
            total += p * expected_delay(ctx.future_params, response)
    return total


def build_erv_problem(ctx: StageContext, fleet: list[ErvState]) -> tuple[DcopProblem, StageContext]:
    """Stage DCOP for the free part of the fleet.

    Returns the problem plus a context copy whose w_r is resolved, so cost
    audits use exactly the weights the constraints saw.
    """
    free = sorted(
        (e for e in fleet if e.is_free(ctx.stage_time)), key=lambda e: e.id
    )
    if not free:
        raise InputError("no free ERVs at this stage")

    # per open cell, the incident incident_at would pick: the oldest uncleared
    oldest: dict[CellId, Incident] = {}
    for i in ctx.open_incidents:
        if not i.cleared:
            held = oldest.get(i.location)
            if held is None or (i.report_time, i.id) < (held.report_time, held.id):
                oldest[i.location] = i
    open_cells = sorted(oldest)
    k = max(ctx.relocation_k, len(free))  # keep the conflict graph satisfiable
    domain = open_cells + relocation_candidates(ctx, k)

    hotspots = []
    if ctx.lookahead >= 1:
        per_stage_k = max(ctx.relocation_k, 1)
        hotspots = [
            forecast_hotspots(ctx, ctx.stage_index + t, per_stage_k)
            for t in range(1, ctx.lookahead + 1)
        ]

    # a cell's look-ahead coverage is the same for every vehicle: price it once
    coverage = {cell: _coverage_term(ctx, cell, hotspots) for cell in domain} \
        if hotspots else {cell: 0.0 for cell in domain}

    resolved = ctx
    if ctx.w_r is None:
        # dispatch must dominate relocation: scale off the costliest dispatch
        worst = 0.0
        for e in free:
            for cell in open_cells:
                c = _priced(ctx, e, cell, oldest[cell], None) + coverage[cell]
                worst = max(worst, c)
        w_r = RELOCATION_WEIGHT_FACTOR * (worst if worst > 0 else ctx.w_d)
        resolved = replace(ctx, w_r=w_r)

    # unary_cost from the incident map and one read of the next-stage row
    p_next = resolved.forecast.row(resolved.stage_index + 1).tolist()
    agents = [e.id for e in free]
    unary = {
        e.id: [
            _priced(resolved, e, cell, oldest.get(cell), p_next) + coverage[cell]
            for cell in domain
        ]
        for e in free
    }
    conflict = all_different_table(domain, domain)
    problem = DcopProblem(
        agents=agents,
        domains={eid: list(domain) for eid in agents},
        unary=unary,
        binary=[
            BinaryConstraint(a=ea, b=eb, table=conflict)
            for i, ea in enumerate(agents) for eb in agents[i + 1:]
        ],
        sense="min",
    )
    return problem, resolved


@dataclass
class DispatchRecord:
    incident_id: str
    erv_id: str
    travel_h: float
    response_h: float  # waiting since report + travel


def apply_assignment(
    ctx: StageContext,
    fleet: list[ErvState],
    assignment: dict[str, CellId],
) -> list[DispatchRecord]:
    """Commit a solved stage assignment to the fleet.

    Dispatched vehicles hold until response + clearance has elapsed and their
    incident is marked cleared; relocating vehicles hold for the travel time.
    Returns one record per served incident.
    """
    by_id = {e.id: e for e in fleet}
    records: list[DispatchRecord] = []
    for erv_id, cell in assignment.items():
        erv = by_id.get(erv_id)
        if erv is None:
            raise InputError(f"assignment names unknown ERV {erv_id!r}")
        if not erv.is_free(ctx.stage_time):
            raise InputError(f"ERV {erv_id} is not free at t={ctx.stage_time}")
        inc = incident_at(ctx, cell)
        travel = travel_time(ctx.net, erv.cell, cell)
        if inc is not None:
            waited = ctx.stage_time - inc.report_time
            response = waited + travel
            inc.cleared = True
            erv.available_at = ctx.stage_time + travel + inc.params.clearance
            erv.cell = cell
            erv.log.append((ctx.stage_time, cell, "dispatch"))
            records.append(DispatchRecord(
                incident_id=inc.id, erv_id=erv_id,
                travel_h=travel, response_h=response,
            ))
        else:
            erv.available_at = ctx.stage_time + travel
            erv.cell = cell
            erv.log.append((ctx.stage_time, cell, "relocate"))
    return records
