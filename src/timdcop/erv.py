"""Emergency response vehicle sub-team: stage problem builder and bookkeeping.

Each planning stage, free ERVs become DCOP agents. A candidate cell is either
an open-incident cell (dispatch, priced at the expected incident delay) or a
forecast-ranked relocation cell (weight w_r on one minus the expected
incident probability next stage). Each free ERV gets a unary cost vector over
the candidate cells, and one shared all-different table on every pair forbids
two ERVs on one cell.

w_r is 100x the largest current-stage dispatch cost (100 when no incident is
open), so every open incident is served before any vehicle relocates.

A two-stage look-ahead augments every candidate cell with the expected cost
of responding, from that cell, to forecast incidents one and two stages out:
sum over the top-K forecast cells c of E[tau(c, u+t)] * delay_ref(travel from
the candidate to c). Future incidents have no sampled parameters yet, so the
delay uses the severity-averaged reference parameter set.

A stage problem is built from a few array operations: one (candidate x
hotspot) and one (vehicle x open cell) response matrix, gathered together
by one `travel_matrices` call and each priced by one `expected_delays` call.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dcop import DcopProblem, assignment_problem
from .forecast import Forecast
from .incidents import Incident, expected_delays, reference_params
from .network import CellId, GridNetwork, Vehicle, travel_matrices

RELOCATION_WEIGHT_FACTOR = 100.0
FUTURE_PARAMS = reference_params()  # prices forecast (not yet sampled) incidents


@dataclass
class StageContext:
    """Everything a stage solve needs to price candidate cells.
    `open_incidents` is in the world's (report time, id) order, as the stage
    loop keeps it, so `oldest`, which maps each open cell to the incident a
    vehicle sent there serves, takes the first incident listed per cell."""

    net: GridNetwork
    forecast: Forecast
    stage_time: float            # hours
    stage_index: int             # forecast stage u
    open_incidents: list[Incident]
    lookahead: int
    relocation_k: int
    oldest: dict[CellId, Incident] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.oldest = {}
        for i in self.open_incidents:
            self.oldest.setdefault(i.location, i)


def relocation_candidates(ctx: StageContext, k: int) -> list[CellId]:
    """Top-k non-incident cells by next-stage expected probability.

    Ties break toward the lower cell index so candidate sets are stable.
    """
    # at most one ranked cell per open cell drops out
    ranked = ctx.forecast.ranking(ctx.stage_index + 1)[:k + len(ctx.oldest)]
    return [c for c in ranked.tolist() if c not in ctx.oldest][:k]


def forecast_hotspots(ctx: StageContext, stage: int, k: int) -> list[tuple[CellId, float]]:
    """Top-k (cell, probability) pairs for a future stage, ties to the lower cell."""
    top = ctx.forecast.ranking(stage)[:k]
    return [(c, p) for c, p in zip(top.tolist(), ctx.forecast.row(stage)[top].tolist())
            if p > 0.0]


def build_erv_problem(ctx: StageContext, free: list[Vehicle]) -> DcopProblem:
    """Stage DCOP for the vehicles free at the stage time (the stage loop
    builds one only when a vehicle is free). The agents are in id order,
    which differs from fleet order from erv10 on."""
    free = sorted(free, key=lambda e: e.id)

    open_cells = sorted(ctx.oldest)
    k = max(ctx.relocation_k, len(free))  # keep the conflict graph satisfiable
    domain = open_cells + relocation_candidates(ctx, k)

    hot_cells: list[CellId] = []
    hot_p: list[float] = []
    for t in range(1, ctx.lookahead + 1):
        for c, p in forecast_hotspots(ctx, ctx.stage_index + t,
                                      max(ctx.relocation_k, 1)):
            hot_cells.append(c)
            hot_p.append(p)

    to_open, to_hot = travel_matrices(
        ctx.net, ([e.cell for e in free], open_cells), (domain, hot_cells))

    # a cell's look-ahead coverage is the same for every vehicle; p * delay
    # summed left to right in hotspot order
    coverage = np.zeros(len(domain))
    if hot_cells:
        delays = expected_delays([FUTURE_PARAMS] * len(hot_cells), to_hot)
        coverage = np.cumsum(np.array(hot_p) * delays, axis=1)[:, -1]

    # (vehicle x open cell) dispatch costs, priced once for w_r and the unary
    n_open = len(open_cells)
    dispatch = expected_delays([ctx.oldest[c].params for c in open_cells],
                               to_open) + coverage[:n_open]

    # dispatch must dominate relocation: scale off the costliest dispatch
    # (100 when no incident is open, or no dispatch costs anything)
    worst = float(dispatch.max()) if n_open else 0.0
    w_r = RELOCATION_WEIGHT_FACTOR * (worst if worst > 0 else 1.0)

    p_next = ctx.forecast.row(ctx.stage_index + 1)
    unary = np.empty((len(free), len(domain)))
    unary[:, :n_open] = dispatch
    unary[:, n_open:] = w_r * (1.0 - p_next[domain[n_open:]]) + coverage[n_open:]
    return assignment_problem([e.id for e in free], domain, unary, "min")


@dataclass
class DispatchRecord:
    incident: Incident
    erv_id: str
    response_h: float  # waiting since report + travel


def apply_assignment(
    ctx: StageContext,
    free: list[Vehicle],
    assignment: dict[str, CellId],
) -> list[DispatchRecord]:
    """Commit a solved stage assignment to the free vehicles it names.

    A vehicle sent to an open cell serves the cell's oldest open incident
    and holds until response + clearance has elapsed; every other vehicle
    (a relocation, or a second vehicle on a cell already served) holds for
    the travel time. Returns one record per served incident.
    """
    by_id = {e.id: e for e in free}
    unserved = dict(ctx.oldest)
    records: list[DispatchRecord] = []
    for erv_id, cell in assignment.items():
        erv = by_id[erv_id]
        travel = erv.move_to(ctx.net, cell, ctx.stage_time)
        inc = unserved.pop(cell, None)
        if inc is not None:
            erv.available_at += inc.params.clearance
            records.append(DispatchRecord(
                incident=inc, erv_id=erv_id,
                response_h=(ctx.stage_time - inc.report_time) + travel,
            ))
    return records
