"""A RunResult as a plain dict, the oracle the result JSON writer is tested
against: `scenarios.result_to_json(res)` must equal
`json.dumps(result_to_dict(res), sort_keys=True, indent=2) + "\\n"`.

The writer fills fixed templates instead of walking this dict, so the dict
form lives with the tests that compare the two. A field added to the result
goes into both.
"""
from timdcop.scenarios import RunResult


def result_to_dict(res: RunResult) -> dict:
    return {
        "policy": res.policy,
        "seed": res.seed,
        "totals": {
            "delay_veh_h": res.total_delay_veh_h,
            "response_min": res.total_response_min,
            "uav_utility": res.total_uav_utility,
        },
        "opt_nodes": res.opt_nodes,
        "incidents": [
            {
                "id": o.incident.id,
                "cell": o.incident.location,
                "severity": o.incident.severity,
                "report_h": o.incident.report_time,
                "erv": o.erv_id,
                "response_h": o.response_h,
                "delay_veh_h": o.delay_veh_h,
                "delay_var": o.delay_var,
                "cooperating": o.cooperating,
            }
            for o in res.incidents
        ],
        "stages": [
            {
                "stage": s.stage,
                "time_h": s.time_h,
                "open": s.n_open,
                "free_ervs": s.n_free_ervs,
                "erv_assignments": [list(a) for a in s.erv_assignments],
                "erv_cost": s.erv_cost,
                "erv_messages": s.erv_messages,
                "erv_moves": s.erv_moves,
                "uav_assignments": [list(a) for a in s.uav_assignments],
                "uav_utility": s.uav_utility,
            }
            for s in res.stages
        ],
        "assimilation": [
            {
                "incident_id": r.incident_id,
                "uav_id": r.uav_id,
                "prior_mean": r.prior_mean,
                "prior_var": r.prior_var,
                "obs_mean": r.obs_mean,
                "obs_var": r.obs_var,
                "beta": r.beta,
                "post_mean": r.post_mean,
                "post_var": r.post_var,
            }
            for r in res.assimilation
        ],
    }
