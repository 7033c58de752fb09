"""Scalar pricing of ERV stage problems, one (vehicle, cell) at a time.

`build_erv_problem` prices a stage with a few array operations; this module
keeps the per-cell loop it replaced, as the oracle its tests compare with.
"""
from timdcop.erv import (
    FUTURE_PARAMS,
    RELOCATION_WEIGHT_FACTOR,
    forecast_hotspots,
)
from timdcop.incidents import expected_delay
from timdcop.network import travel_time


def myopic_cost(ctx, erv, cell, w_r) -> float:
    """Dispatch delay on an incident cell, else the relocation weight w_r on
    the next-stage miss probability."""
    inc = ctx.oldest.get(cell)
    if inc is not None:
        return expected_delay(inc.params, travel_time(ctx.net, erv.cell, cell))
    return w_r * (1.0 - float(ctx.forecast.row(ctx.stage_index + 1)[cell]))


def coverage(ctx, cell) -> float:
    """Expected response cost from `cell` to the forecast hotspots of the
    look-ahead stages, added left to right in hotspot order."""
    total = 0.0
    for t in range(1, ctx.lookahead + 1):
        for c, p in forecast_hotspots(ctx, ctx.stage_index + t,
                                      max(ctx.relocation_k, 1)):
            response = travel_time(ctx.net, cell, c)
            total += p * expected_delay(FUTURE_PARAMS, response)
    return total


def unary_cost(ctx, erv, cell, w_r) -> float:
    return myopic_cost(ctx, erv, cell, w_r) + coverage(ctx, cell)


def relocation_weight(ctx, fleet) -> float:
    """100x the costliest dispatch of a free vehicle to an open cell,
    look-ahead included (a dispatch cost never reads the weight), or 100
    when no incident is open or no dispatch costs anything."""
    free = [e for e in fleet if e.is_free(ctx.stage_time)]
    worst = 0.0
    for e in free:
        for cell in ctx.oldest:
            worst = max(worst, unary_cost(ctx, e, cell, None))
    return RELOCATION_WEIGHT_FACTOR * (worst if worst > 0 else 1.0)
