"""Workload definitions for the timdcop benchmark.

A workload is a scenario template plus a scenario count. The benchmark seed
picks the scenario seeds; the program only ever sees the scenario JSON files
written from them. Every pass runs every scenario through
``timdcop.cli.main(["run", ...])`` with the workload's policies.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: dict              # scenario JSON minus the seed
    policies: tuple[str, ...]
    scenarios: int              # scenarios per pass
    # per-layer metrics that may read zero here because the layer never runs
    idle: frozenset = field(default_factory=frozenset)

    def scenario_seeds(self, seed: int) -> list[int]:
        rng = random.Random(f"{self.name}:{seed}")
        return [rng.randrange(2**31) for _ in range(self.scenarios)]

    def scenario_dicts(self, seed: int) -> list[dict]:
        return [
            {"name": f"{self.name}-{k}", "seed": s, **self.scenario}
            for k, s in enumerate(self.scenario_seeds(seed))
        ]


_OPT_LAYER = frozenset({
    "opt_s", "delay_veh_h.opt", "opt.nodes", "opt.lsap.calls",
    "opt.lsap.self_s", "opt.incumbents_s", "opt.self_s", "opt.nodes_per_s",
})
_UAV_LAYER = frozenset({
    "solvers.uav.s", "uav.build_uav_problem.s", "uav.assimilate.calls",
    "uav.observations",
})

# Pass sizes: the seed changes which scenarios a pass holds, so a pass must
# hold enough of them that its total work barely depends on the seed, and be
# short enough that at least three passes fit in a 30 s run. The speed-scaled
# wall time of one scenario varies across seeds with a coefficient of
# variation of about 0.07 on dispatch-dense and 0.1 on grid-wide, so
# grid-wide runs 2 stages per scenario and twenty scenarios per pass. `opt`
# time is heavy-tailed (about 0.2 on 6 incidents, 0.43 on 8, 1.1 on 12), so
# opt-exact uses many 6-incident instances (wall time per scenario about 0.11).
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="dispatch-dense",
            why="stage DCOP build and MGM/DSA solve dominate on a tiny 10x10 "
                "world (10 stages of 10 incidents, 9 ERVs, 4 UAVs); world "
                "precompute should read flat here",
            scenario={
                "schedule": [10] * 10,
                "grid": {"rows": 10, "cols": 10},
                "fleet": {"ervs": 9, "uavs": 4},
            },
            policies=("conventional", "pdronetim"),
            scenarios=10,
            idle=_OPT_LAYER,
        ),
        Workload(
            name="grid-wide",
            why="forecast scans over 1,600 cells and cache-missing Dijkstra "
                "rows dominate on a 40x40 grid (2 stages of 8, 8 ERVs, 4 "
                "UAVs); eager precompute shows in setup_s and peak_rss_mb",
            scenario={
                "schedule": [8] * 2,
                "grid": {"rows": 40, "cols": 40},
                "fleet": {"ervs": 8, "uavs": 4},
            },
            policies=("conventional", "pdronetim"),
            scenarios=20,
            idle=_OPT_LAYER,
        ),
        Workload(
            name="opt-exact",
            why="the clairvoyant opt branch and bound (remaining_floor, "
                "polish, dfs) dominates on many small 10x10 instances "
                "(3 stages of 2, 3 ERVs, no UAVs) under all three policies",
            scenario={
                "schedule": [2, 2, 2],
                "grid": {"rows": 10, "cols": 10},
                "fleet": {"ervs": 3, "uavs": 0},
            },
            policies=("conventional", "pdronetim", "opt"),
            scenarios=90,
            idle=_UAV_LAYER,
        ),
    )
}

# The end-to-end metric each per-layer metric should move, and where.
LAYER_TARGETS = {
    "network.travel_time.calls": "conventional_s, pdronetim_s on grid-wide",
    "network.travel_time.self_s": "conventional_s, pdronetim_s on grid-wide",
    "network.rows_built": "conventional_s, pdronetim_s on grid-wide",
    "forecast.expected_probability.calls": "pdronetim_s on grid-wide",
    "forecast.expected_probability.self_s": "pdronetim_s on grid-wide",
    "forecast.generate_field.s": "setup_s",
    "forecast.default_kernel.s": "setup_s",
    "incidents.expected_delay.calls": "opt_s on opt-exact",
    "incidents.expected_delay.self_s": "opt_s on opt-exact",
    "incidents.clamped": "nothing (deterministic answer checksum)",
    "dcop.total_cost.calls": "pdronetim_s on dispatch-dense",
    "dcop.agents.mean": "pdronetim_s on dispatch-dense",
    "dcop.domain.mean": "pdronetim_s on dispatch-dense",
    "dcop.binary.mean": "pdronetim_s on dispatch-dense",
    "solvers.solve.calls": "pdronetim_s on dispatch-dense",
    "solvers.solve.s": "pdronetim_s on dispatch-dense, not on opt-exact",
    "solvers.erv.s": "pdronetim_s on dispatch-dense",
    "solvers.uav.s": "pdronetim_s on dispatch-dense",
    "solvers.rounds": "pdronetim_s on dispatch-dense",
    "solvers.moves": "pdronetim_s on dispatch-dense",
    "solvers.messages": "pdronetim_s on dispatch-dense",
    "solvers.rounds_to_best.mean": "pdronetim_s on dispatch-dense",
    "solvers.useful_round_frac": "pdronetim_s on dispatch-dense",
    "erv.build_erv_problem.calls": "pdronetim_s on dispatch-dense, grid-wide",
    "erv.build_erv_problem.self_s": "pdronetim_s on dispatch-dense, grid-wide",
    "erv.relocation_candidates.s": "pdronetim_s on dispatch-dense, grid-wide",
    "erv.forecast_hotspots.s": "pdronetim_s on dispatch-dense, grid-wide",
    "erv.apply_assignment.s": "pdronetim_s on dispatch-dense, grid-wide",
    "uav.build_uav_problem.s": "pdronetim_s on dispatch-dense",
    "uav.assimilate.calls": "pdronetim_s on dispatch-dense",
    "uav.observations": "pdronetim_s on dispatch-dense",
    "scenarios.materialize.s": "setup_s",
    "pdronetim.stage_ms.p50": "pdronetim_s",
    "pdronetim.stage_ms.p95": "pdronetim_s",
    "opt_s": "wall_s on opt-exact",
    "opt.nodes": "opt_s on opt-exact",
    "opt.lsap.calls": "opt_s on opt-exact",
    "opt.lsap.self_s": "opt_s on opt-exact",
    "opt.incumbents_s": "opt_s on opt-exact",
    "opt.self_s": "opt_s on opt-exact",
    "opt.nodes_per_s": "opt_s on opt-exact",
    "cli.write_s": "wall_s on every workload",
    "delay_veh_h.conventional": "nothing (deterministic answer checksum)",
    "delay_veh_h.pdronetim": "nothing (deterministic answer checksum)",
    "delay_veh_h.opt": "nothing (deterministic answer checksum)",
    "trace.overhead_pct": "nothing (tracing cost)",
}
