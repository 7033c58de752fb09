"""UAV tasking, observation fusion, and route-scouting cooperation."""
import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcop_oracle import brute_force_optimum, plain
from timdcop.dcop import assignment_problem
from timdcop.errors import InputError, ModelDomainError
from timdcop.incidents import (
    SEVERITY_RANGES,
    TrafficParams,
    delay_variance,
    expected_delay,
    sample_params,
)
from timdcop.network import Vehicle, build_grid, travel_time
from timdcop.scenarios import MAX_HORIZON_H, MAX_KAPPA
from timdcop.uav import (
    HAZARD_REDUCTION,
    AssimilationRecord,
    DelayBelief,
    apply_uav_assignment,
    assimilate,
    build_uav_problem,
    cooperation_effect,
    priority_benefit,
    simulate_observation,
    write_assimilation_csv,
)


# ------------------------------------------------------------ priorities


def test_priority_benefit_extremes_and_worked_value():
    assert priority_benefit(1, 1, 1) == 2.0
    assert priority_benefit(4, 5, 5) == 40.0
    assert priority_benefit(3, 2, 4) == 18.0


def test_priority_benefit_monotone_in_each_argument():
    for sev in (1, 2, 3, 4):
        for spa in (1, 2, 3, 4, 5):
            for haz in (1, 2, 3, 4, 5):
                base = priority_benefit(sev, spa, haz)
                if sev < 4:
                    assert priority_benefit(sev + 1, spa, haz) > base
                if spa < 5:
                    assert priority_benefit(sev, spa + 1, haz) > base
                if haz < 5:
                    assert priority_benefit(sev, spa, haz + 1) > base


# --------------------------------------------------------------- tasking


def test_single_uav_picks_the_higher_stake_site():
    net = build_grid(3, 3, (0.5, 0.5), seed=0)
    # cells 2 and 6 are both 2 hops from the centre: pure benefit contest
    uav = Vehicle(id="u0", cell=4)
    problem = build_uav_problem(net, [uav], {2: 30.0, 6: 10.0})
    assert problem.sense == "max"
    best, util = brute_force_optimum(problem)
    assert best == {"u0": 2}
    assert util == pytest.approx(30.0 - 10.0 * 1.0)


def test_surplus_uav_takes_the_idle_slot():
    net = build_grid(3, 3, (0.5, 0.5), seed=0)
    uavs = [Vehicle(id="u0", cell=0), Vehicle(id="u1", cell=8)]
    problem = build_uav_problem(net, uavs, {4: 25.0})
    best, _ = brute_force_optimum(problem)
    assert sorted(best.values(), key=str) == [4, None]


def test_idle_wins_when_flight_discount_eats_the_benefit():
    net = build_grid(2, 2, (1.0, 1.0), seed=0)
    uav = Vehicle(id="u0", cell=0)
    # two hops away at 10 benefit/h: discount 20 > benefit 5
    problem = build_uav_problem(net, [uav], {3: 5.0})
    best, util = brute_force_optimum(problem)
    assert best == {"u0": None}
    assert util == 0.0


def test_three_uavs_five_sites_brute_force_is_an_upper_bound():
    from timdcop.scenarios import Scenario
    from timdcop.solvers import solve

    net = build_grid(3, 3, (0.3, 0.9), seed=12)
    uavs = [Vehicle(id=f"u{i}", cell=2 * i) for i in range(3)]
    benefits = {c: float(b) for c, b in zip((1, 3, 5, 7, 8), (12, 30, 8, 22, 17))}
    problem = build_uav_problem(net, uavs, benefits)
    _, best = brute_force_optimum(problem)
    sc = Scenario(seed=0, algorithm="mgm", iterations=30, dsa_threshold=0.9)
    trace = solve(problem, sc, 0)
    assert trace.final_cost <= best + 1e-9
    vals = [v for v in trace.final_assignment.values() if v is not None]
    assert len(vals) == len(set(vals))  # no double coverage


def test_a_uav_build_opens_its_rows_in_at_most_one_call(monkeypatch):
    from timdcop import network

    net = build_grid(4, 4, (0.3, 0.9), seed=5)
    calls = []
    real = network._dijkstra
    monkeypatch.setattr(network, "_dijkstra",
                        lambda n, s: calls.append(list(s)) or real(n, s))
    # u0 and u3 share cell 0, off both sites; u1 and u2 each sit on one site
    # and fly to the other: three rows, one call
    uavs = [Vehicle(id=f"u{i}", cell=c) for i, c in enumerate((0, 9, 5, 0))]
    problem = build_uav_problem(net, uavs, {5: 20.0, 9: 12.0})
    assert calls == [[0, 9, 5]]
    assert problem.unary["u2"][0] == 20.0  # no flight to its own cell
    assert problem.unary["u1"].tolist() == [
        20.0 - 10.0 * travel_time(net, 9, 5), 12.0, 0.0]
    agents = ["u0", "u1", "u2", "u3"]
    assert plain(problem) == plain(assignment_problem(
        agents, [5, 9, None], [problem.unary[a] for a in agents], "max"))
    build_uav_problem(net, uavs, {5: 20.0, 9: 12.0})
    assert len(calls) == 1  # rows are cached
    # a UAV on the only site needs no row
    build_uav_problem(net, [Vehicle(id="u4", cell=6)], {6: 20.0})
    assert len(calls) == 1 and sorted(net._dist_cache) == [0, 5, 9]


def test_apply_uav_assignment_moves_and_reports():
    net = build_grid(3, 3, (0.5, 0.5), seed=0)
    uavs = [Vehicle(id="u0", cell=0), Vehicle(id="u1", cell=8)]
    observed = apply_uav_assignment(
        net, uavs, {"u0": 4, "u1": None}, stage_time=2.0
    )
    assert observed == {"u0": 4}
    assert uavs[0].cell == 4
    assert uavs[0].available_at == pytest.approx(3.0)  # 2.0 + two 0.5 edges
    assert uavs[1].cell == 8 and uavs[1].available_at == 0.0


def test_a_busy_uav_is_not_tasked():
    net = build_grid(3, 3, (0.5, 0.5), seed=0)
    uav = Vehicle(id="u0", cell=0, available_at=5.0)
    with pytest.raises(InputError, match=r"^u0 is not free at t=0\.0$"):
        apply_uav_assignment(net, [uav], {"u0": 8}, stage_time=0.0)
    assert (uav.cell, uav.available_at) == (0, 5.0)


# ------------------------------------------------------------ assimilation


def test_equal_variances_split_the_difference():
    post, beta = assimilate(DelayBelief(mean=10.0, variance=4.0), 20.0, 4.0)
    assert beta == pytest.approx(0.5)
    assert post.mean == pytest.approx(15.0)
    assert post.variance == pytest.approx(2.0)


def test_worked_fusion_example():
    prior = DelayBelief(mean=100.0, variance=3.0)
    post, beta = assimilate(prior, 80.0, 1.0)
    assert beta == pytest.approx(0.75)
    assert post.mean == pytest.approx(85.0)
    assert post.variance == pytest.approx(0.75)


def test_perfect_observation_is_adopted_outright():
    post, beta = assimilate(DelayBelief(mean=50.0, variance=2.0), 41.0, 0.0)
    assert beta == 1.0
    assert post.mean == 41.0
    assert post.variance == 0.0


def test_assimilation_error_paths():
    with pytest.raises(ModelDomainError):
        assimilate(DelayBelief(mean=1.0, variance=1.0), 2.0, -0.5)
    with pytest.raises(ModelDomainError):
        assimilate(DelayBelief(mean=1.0, variance=0.0), 2.0, 0.0)
    with pytest.raises(ModelDomainError):
        DelayBelief(mean=1.0, variance=-1.0)


@given(
    mean_p=st.floats(-1e3, 1e3),
    var_p=st.floats(1e-6, 1e3),
    mean_o=st.floats(-1e3, 1e3),
    var_o=st.floats(1e-6, 1e3),
)
def test_posterior_variance_contracts_and_mean_stays_between(
    mean_p, var_p, mean_o, var_o
):
    post, beta = assimilate(DelayBelief(mean=mean_p, variance=var_p), mean_o, var_o)
    assert 0.0 < beta < 1.0
    assert post.variance < var_p
    lo, hi = sorted((mean_p, mean_o))
    assert lo - 1e-9 <= post.mean <= hi + 1e-9
    # convexity: the posterior mean is exactly the beta-blend
    assert post.mean == pytest.approx(
        (1 - beta) * mean_p + beta * mean_o, abs=1e-9
    )


def test_simulated_instrument_variance_is_kappa_share_of_prior():
    prior = DelayBelief(mean=200.0, variance=8.0)
    rng = np.random.default_rng(42)
    obs_mean, obs_var = simulate_observation(prior, 190.0, rng, kappa=0.5)
    assert obs_var == 4.0  # exactly kappa * prior variance
    again_mean, again_var = simulate_observation(
        prior, 190.0, np.random.default_rng(42), kappa=0.5
    )
    assert (again_mean, again_var) == (obs_mean, obs_var)


def test_default_kappa_gives_two_thirds_observation_weight():
    prior = DelayBelief(mean=30.0, variance=1.0)
    rng = np.random.default_rng(0)
    obs_mean, obs_var = simulate_observation(prior, 28.0, rng)
    assert obs_var == 0.5
    _, beta = assimilate(prior, obs_mean, obs_var)
    assert beta == 1.0 / 1.5  # bit-exact: 1/(1+0.5)


def test_fusion_stays_finite_at_the_kappa_ceiling():
    # a served incident's response is a wait and a leg, each within the
    # horizon; delay_variance grows with s1_sd, r_var and the clearance and
    # is convex in s1_mean and in 1/q, so each severity's largest sits at a
    # corner of its ranges
    response = 2 * MAX_HORIZON_H
    names = ("s", "s1_mean", "s1_sd", "q", "r_var", "clearance")
    rng = np.random.default_rng(7)
    top = []
    for sev, ranges in SEVERITY_RANGES.items():
        corners = [TrafficParams(*c)
                   for c in itertools.product(*(ranges[n] for n in names))]
        p = max(corners, key=lambda c: delay_variance(c, response))
        top.append((delay_variance(p, response), p))
        for _ in range(500):  # no interior draw exceeds its severity's corners
            assert delay_variance(sample_params(sev, rng), response) <= top[-1][0]
    variance, p = max(top, key=lambda vp: vp[0])
    assert 7e12 < variance < 7.3e12
    prior = DelayBelief(mean=expected_delay(p, response), variance=variance)
    obs_mean, obs_var = simulate_observation(prior, prior.mean, rng, kappa=MAX_KAPPA)
    post, beta = assimilate(prior, obs_mean, obs_var)
    assert all(map(math.isfinite, (obs_mean, obs_var, beta, post.mean, post.variance)))
    assert beta == 1.0 / (1.0 + MAX_KAPPA)
    lo, hi = sorted((prior.mean, obs_mean))
    assert lo <= post.mean <= hi and post.variance < prior.variance


# ------------------------------------------------------------ cooperation


def test_cooperation_reduction_table():
    assert HAZARD_REDUCTION == {1: 0.03, 2: 0.05, 3: 0.07, 4: 0.09, 5: 0.11}
    assert cooperation_effect(1.0, 5, True) == pytest.approx(0.89)
    assert cooperation_effect(2.0, 3, True) == pytest.approx(1.86)
    assert cooperation_effect(2.0, 3, False) == 2.0
    assert cooperation_effect(0.0, 1, True) == 0.0


def test_cooperation_never_lengthens_the_response():
    for hazard in (1, 2, 3, 4, 5):
        for rt in (0.0, 0.25, 1.0, 3.5):
            assert cooperation_effect(rt, hazard, True) <= rt
            assert cooperation_effect(rt, hazard, False) == rt


def test_cooperation_shortens_delay_through_the_queue_model():
    p = TrafficParams(
        s=1800.0, s1_mean=1100.0, s1_sd=200.0, q=1500.0, r_var=0.04,
        clearance=0.3,
    )
    plain = expected_delay(p, 1.0)
    scouted = expected_delay(p, cooperation_effect(1.0, 3, True))
    assert scouted < plain


def test_cooperation_validation():
    with pytest.raises(ModelDomainError):
        cooperation_effect(-0.1, 2, True)


# ------------------------------------------------------------- CSV export


def test_assimilation_csv_schema_and_round_trip(tmp_path):
    rec = AssimilationRecord(
        incident_id="i3", uav_id="u1",
        prior_mean=100.25, prior_var=3.0,
        obs_mean=81.125, obs_var=1.5,
        beta=2.0 / 3.0, post_mean=87.5, post_var=1.0,
    )
    path = tmp_path / "assim.csv"
    write_assimilation_csv([rec], path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "incident_id", "uav_id", "prior_mean", "prior_var",
        "obs_mean", "obs_var", "beta", "post_mean", "post_var",
    ]
    assert rows[1][0] == "i3" and rows[1][1] == "u1"
    assert float(rows[1][6]) == rec.beta  # repr round-trips bit-exactly
    assert [float(x) for x in rows[1][2:]] == [
        100.25, 3.0, 81.125, 1.5, 2.0 / 3.0, 87.5, 1.0
    ]


# --------------------------------------------------- end-to-end mini stage


def test_observation_then_fusion_tightens_a_belief():
    net = build_grid(3, 3, (0.5, 0.5), seed=0)
    uav = Vehicle(id="u0", cell=0)
    benefits = {4: priority_benefit(3, 4, 2)}
    problem = build_uav_problem(net, [uav], benefits)
    best, _ = brute_force_optimum(problem)
    assert best == {"u0": 4}
    observed = apply_uav_assignment(net, [uav], best, stage_time=0.0)
    assert observed == {"u0": 4}
    prior = DelayBelief(mean=120.0, variance=9.0)
    obs_mean, obs_var = simulate_observation(
        prior, 110.0, np.random.default_rng(7)
    )
    post, beta = assimilate(prior, obs_mean, obs_var)
    assert post.variance == pytest.approx((1 - beta) * 9.0)
    assert post.variance < 9.0
    assert math.isfinite(post.mean)
