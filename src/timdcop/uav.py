"""UAV sub-team: incident-observation tasking, data assimilation, cooperation.

UAVs bid for incident cells with a priority benefit

    benefit = severity * (sensor_sparsity + hazard_index_level)

(severity 1..4, both indices 1..5, so benefits span 2..40), discounted by
flight distance at a fixed exchange rate (one benefit unit per 0.1 h of
travel). Two UAVs on one cell is a hard conflict; an idle slot
(None) is always available at utility zero. The sub-team maximizes.

An on-scene UAV feeds two mechanisms:

* data assimilation -- its delay observation is fused with the model belief
  by precision weighting: beta = var_p / (var_p + var_o), posterior variance
  (1-beta)*var_p, posterior mean (1-beta)*mean_p + beta*mean_o;
* cooperation -- scouting the response route cuts the ERV's response time by
  a hazard-level-dependent fraction (3/5/7/9/11% for levels 1..5).
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .dcop import DcopProblem, assignment_problem
from .errors import ModelDomainError
from .network import CellId, GridNetwork, Vehicle, travel_matrices

# hazard level -> fractional response-time reduction under cooperation
HAZARD_REDUCTION = {1: 0.03, 2: 0.05, 3: 0.07, 4: 0.09, 5: 0.11}

BENEFIT_PER_HOUR = 10.0  # one benefit unit per 0.1 h of flight
DEFAULT_OBS_VAR_RATIO = 0.5     # kappa: obs variance as a share of prior


@dataclass
class DelayBelief:
    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance < 0:
            raise ModelDomainError(f"negative belief variance {self.variance}")


def priority_benefit(severity: int, sparsity: int, hazard: int) -> float:
    """Observation priority of an incident site for the UAV objective."""
    return float(severity * (sparsity + hazard))


def build_uav_problem(
    net: GridNetwork,
    uavs: list[Vehicle],
    benefits: dict[CellId, float],
) -> DcopProblem:
    """Maximize summed site benefit minus flight-distance discount.

    Domains are the incident cells plus the idle value None; idle earns 0 and
    never conflicts, so surplus UAVs always have a feasible slot. The stage
    loop builds one only when a UAV is free and an incident was served.
    """
    fleet = sorted(uavs, key=lambda u: u.id)
    cells = sorted(benefits)

    flight, = travel_matrices(net, ([u.cell for u in fleet], cells))
    unary = np.zeros((len(fleet), len(cells) + 1))  # idle, the last column, is 0.0
    unary[:, :-1] = np.array([benefits[c] for c in cells]) - BENEFIT_PER_HOUR * flight
    return assignment_problem([u.id for u in fleet], cells + [None], unary, "max")


def apply_uav_assignment(
    net: GridNetwork,
    uavs: list[Vehicle],
    assignment: dict[str, CellId | None],
    stage_time: float,
) -> dict[str, CellId]:
    """Move tasked UAVs; returns uav id -> observed cell (idle slots dropped)."""
    by_id = {u.id: u for u in uavs}
    observed: dict[str, CellId] = {}
    for uid, cell in assignment.items():
        if cell is None:
            continue
        by_id[uid].move_to(net, cell, stage_time)
        observed[uid] = cell
    return observed


def assimilate(prior: DelayBelief, obs_mean: float, obs_var: float) -> tuple[DelayBelief, float]:
    """Fuse a delay observation into the model belief.

    Returns (posterior, beta). beta is the observation weight; the posterior
    variance is (1 - beta) * prior.variance, always below the prior's when
    both variances are positive.
    """
    if obs_var < 0:
        raise ModelDomainError(f"negative observation variance {obs_var}")
    if prior.variance == 0 and obs_var == 0:
        raise ModelDomainError("prior and observation variance both zero")
    beta = prior.variance / (prior.variance + obs_var)
    post = DelayBelief(
        mean=(1.0 - beta) * prior.mean + beta * obs_mean,
        variance=(1.0 - beta) * prior.variance,
    )
    return post, beta


def simulate_observation(
    prior: DelayBelief,
    latent_mean: float,
    rng: np.random.Generator,
    kappa: float = DEFAULT_OBS_VAR_RATIO,
) -> tuple[float, float]:
    """Draw (obs_mean, obs_var) for a UAV overflight.

    The instrument's variance is kappa * prior variance; the reading is
    normal around the latent delay.
    """
    obs_var = kappa * prior.variance
    obs_mean = float(rng.normal(latent_mean, math.sqrt(obs_var)))
    return obs_mean, obs_var


def cooperation_effect(response_time: float, hazard: int, cooperating: bool) -> float:
    """Response time after (possible) UAV route scouting."""
    if response_time < 0:
        raise ModelDomainError(f"negative response time {response_time}")
    if not cooperating:
        return response_time
    return response_time * (1.0 - HAZARD_REDUCTION[hazard])


@dataclass
class AssimilationRecord:
    incident_id: str
    uav_id: str
    prior_mean: float
    prior_var: float
    obs_mean: float
    obs_var: float
    beta: float
    post_mean: float
    post_var: float


def write_assimilation_csv(records: list[AssimilationRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([
            "incident_id", "uav_id", "prior_mean", "prior_var",
            "obs_mean", "obs_var", "beta", "post_mean", "post_var",
        ])
        for r in records:
            w.writerow([
                r.incident_id, r.uav_id, repr(r.prior_mean), repr(r.prior_var),
                repr(r.obs_mean), repr(r.obs_var), repr(r.beta),
                repr(r.post_mean), repr(r.post_var),
            ])
