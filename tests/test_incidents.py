"""Delay model: exact-rational oracle, clamping, sampling."""
import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import params_oracle

from timdcop.errors import ModelDomainError
from timdcop.incidents import (
    SEVERITY_RANGES,
    Incident,
    TrafficParams,
    clamped,
    delay_variance,
    expected_delay,
    expected_delays,
    reference_params,
    sample_params,
)
from timdcop.scenarios import MAX_HORIZON_H

# --------------------------------------------------------------- oracle
# Written before the module code: the two closed forms evaluated in exact
# rational arithmetic, with the same clamp-at-zero convention.


def delay_oracle(s, s1_mean, s1_sd, q, r_mean, r_var) -> Fraction:
    s, s1_mean, s1_sd, q, r_mean, r_var = map(
        Fraction, (s, s1_mean, s1_sd, q, r_mean, r_var)
    )
    bracket = s1_mean**2 + s1_sd**2 - (s + q) * s1_mean + s * q
    raw = bracket * (r_mean**2 + r_var) / (2 * (s - q))
    return max(Fraction(0), raw)


def variance_oracle(s1_mean, s1_sd, q, r_mean, r_var) -> Fraction:
    s1_mean, s1_sd, q, r_mean, r_var = map(
        Fraction, (s1_mean, s1_sd, q, r_mean, r_var)
    )
    gap_sq = (q - s1_mean) ** 2
    raw = (gap_sq + s1_sd**2) * (r_var + r_mean**2) / (3 * q**2) \
        - gap_sq * r_mean**2 / (4 * q**2)
    return max(Fraction(0), raw)


# The worked case: s=1800, mean reduced capacity 1100 (sd 200), demand 1500,
# duration mean 0.8 h (response 0.5 + clearance 0.3), duration variance 0.04.
WORKED = TrafficParams(
    s=1800.0, s1_mean=1100.0, s1_sd=200.0, q=1500.0,
    r_var=0.04, clearance=0.3,
)
WORKED_RESPONSE = 0.5

# frozen oracle values (exact rationals; derivation in the functions above)
WORKED_DELAY = Fraction(1088, 3)            # 362.666... vehicle-hours
WORKED_VARIANCE = Fraction(148, 16875)      # ~0.0087703 (vehicle-hours)^2


def test_oracle_freeze_is_self_consistent():
    got = delay_oracle(1800, 1100, 200, 1500, Fraction(4, 5), Fraction(1, 25))
    assert got == WORKED_DELAY
    got = variance_oracle(1100, 200, 1500, Fraction(4, 5), Fraction(1, 25))
    assert got == WORKED_VARIANCE


def test_worked_delay_value():
    assert expected_delay(WORKED, WORKED_RESPONSE) == pytest.approx(
        float(WORKED_DELAY), abs=1e-9
    )


def test_worked_variance_value():
    assert delay_variance(WORKED, WORKED_RESPONSE) == pytest.approx(
        float(WORKED_VARIANCE), rel=1e-12
    )


def test_module_matches_oracle_on_random_parameters():
    rng = np.random.default_rng(42)
    for _ in range(300):
        sev = int(rng.integers(1, 5))
        p = sample_params(sev, rng)
        response = float(rng.uniform(0.0, 5.0))
        want = delay_oracle(
            p.s, p.s1_mean, p.s1_sd, p.q, response + p.clearance, p.r_var
        )
        assert expected_delay(p, response) == pytest.approx(
            float(want), rel=1e-9, abs=1e-9
        )
        want_var = variance_oracle(
            p.s1_mean, p.s1_sd, p.q, response + p.clearance, p.r_var
        )
        assert delay_variance(p, response) == pytest.approx(
            float(want_var), rel=1e-9, abs=1e-12
        )


# -------------------------------------------------- closed-form reductions


def test_deterministic_reduction_matches_queueing_formula():
    # with both spread terms zero the delay is the classical triangle:
    # (s - s1)(q - s1) r^2 / (2 (s - q))
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = float(rng.uniform(500, 2000))
        s = q + float(rng.uniform(50, 800))
        s1 = float(rng.uniform(200, q))  # below demand: genuine queue growth
        clearance = float(rng.uniform(0.1, 1.0))
        response = float(rng.uniform(0.0, 3.0))
        p = TrafficParams(s=s, s1_mean=s1, s1_sd=0.0, q=q,
                          r_var=0.0, clearance=clearance)
        r = response + clearance
        closed = (s - s1) * (q - s1) * r * r / (2.0 * (s - q))
        assert expected_delay(p, response) == pytest.approx(closed, rel=1e-12)


def test_variance_reduction_with_zero_spreads():
    p = TrafficParams(s=1800.0, s1_mean=1100.0, s1_sd=0.0, q=1500.0,
                      r_var=0.0, clearance=0.3)
    r = 0.5 + 0.3
    closed = (p.q - p.s1_mean) ** 2 * r * r / (12.0 * p.q**2)
    assert delay_variance(p, 0.5) == pytest.approx(closed, rel=1e-12)


def test_balanced_capacity_gives_zero_delay():
    p = TrafficParams(s=1800.0, s1_mean=1500.0, s1_sd=0.0, q=1500.0,
                      r_var=0.04, clearance=0.3)
    assert expected_delay(p, 1.0) == 0.0


def test_zero_duration_gives_zero_delay():
    p = TrafficParams(s=1800.0, s1_mean=1100.0, s1_sd=200.0, q=1500.0,
                      r_var=0.0, clearance=0.0)
    assert expected_delay(p, 0.0) == 0.0


def test_variance_vanishes_when_gap_and_spread_vanish():
    p = TrafficParams(s=1800.0, s1_mean=1500.0, s1_sd=0.0, q=1500.0,
                      r_var=0.2, clearance=0.3)
    assert delay_variance(p, 1.0) == 0.0


# ------------------------------------------------------ clamping and tally


def test_negative_bracket_clamps_to_zero_and_counts():
    # reduced capacity strictly between demand and capacity flips the sign
    p = TrafficParams(s=1800.0, s1_mean=1600.0, s1_sd=0.0, q=1500.0,
                      r_var=0.04, clearance=0.3)
    clamped.reset()
    assert expected_delay(p, 1.0) == 0.0
    assert clamped.count == 1
    assert expected_delay(p, 2.0) == 0.0
    assert clamped.count == 2
    clamped.reset()
    assert clamped.count == 0


def test_nonnegative_over_sampled_parameter_space():
    rng = np.random.default_rng(3)
    clamped.reset()
    for _ in range(2000):
        p = sample_params(int(rng.integers(1, 5)), rng)
        response = float(rng.uniform(0.0, 5.0))
        assert expected_delay(p, response) >= 0.0
        assert delay_variance(p, response) >= 0.0


@settings(max_examples=200, deadline=None)
@given(
    severity=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    r1=st.floats(0.0, 5.0),
    r2=st.floats(0.0, 5.0),
)
def test_longer_response_never_reduces_delay(severity, seed, r1, r2):
    p = sample_params(severity, np.random.default_rng(seed))
    lo, hi = sorted((r1, r2))
    assert expected_delay(p, lo) <= expected_delay(p, hi) + 1e-9


# ------------------------------------------------------ vector delay


@st.composite
def severity_params(draw) -> TrafficParams:
    """Fields uniform over one severity class's ranges; sometimes a reduced
    capacity between demand and capacity with a small spread, which makes
    the bracket negative."""
    ranges = SEVERITY_RANGES[draw(st.sampled_from(sorted(SEVERITY_RANGES)))]
    fields = {name: draw(st.floats(lo, hi)) for name, (lo, hi) in ranges.items()}
    if draw(st.booleans()):
        fields["s1_mean"] = draw(st.floats(fields["q"], fields["s"]))
        fields["s1_sd"] = draw(st.floats(0.0, 5.0))
    return TrafficParams(**fields)


@settings(max_examples=300, deadline=None)
@given(
    params=st.lists(severity_params(), min_size=1, max_size=5),
    n_rows=st.integers(1, 4),
    data=st.data(),
)
def test_expected_delays_equal_the_scalar_bit_for_bit(params, n_rows, data):
    response = data.draw(st.lists(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 8.0)),
                 min_size=len(params), max_size=len(params)),
        min_size=n_rows, max_size=n_rows))
    clamped.reset()
    want = [[expected_delay(p, r) for p, r in zip(params, row)]
            for row in response]
    scalar_clamps = clamped.count
    clamped.reset()
    got = expected_delays(params, response)
    assert got.shape == (n_rows, len(params))
    assert got.tolist() == want
    assert clamped.count == scalar_clamps


def test_expected_delays_square_like_python_floats():
    # an ndarray's ** 2 multiplies, and differs in the last bit from the
    # scalar's libm pow on 14 of these 20,000 responses
    response = np.random.default_rng(0).uniform(0.0, 5.0, 20_000)
    ref = reference_params()
    want = [expected_delay(ref, r) for r in response.tolist()]
    assert expected_delays([ref], response[:, None])[:, 0].tolist() == want


def test_expected_delays_clamp_and_reject_like_the_scalar():
    negative = TrafficParams(s=1800.0, s1_mean=1600.0, s1_sd=0.0, q=1500.0,
                             r_var=0.04, clearance=0.3)
    clamped.reset()
    got = expected_delays([WORKED, negative], [[0.5, 1.0], [0.0, 0.0]])
    assert got.tolist() == [[expected_delay(WORKED, 0.5), 0.0],
                            [expected_delay(WORKED, 0.0), 0.0]]
    assert clamped.count == 2
    assert expected_delays([], [[], []]).shape == (2, 0)
    with pytest.raises(ModelDomainError):  # saturated: s <= q
        TrafficParams(s=1000.0, s1_mean=900.0, s1_sd=0.0, q=1000.0,
                      r_var=0.1, clearance=0.3)
    with pytest.raises(ModelDomainError):
        expected_delays([WORKED], [[0.5], [-0.1]])


# ---------------------------------------------------------------- errors


def test_rejects_capacity_at_or_below_demand():
    for s in (1000.0, 999.0):
        with pytest.raises(ModelDomainError):
            TrafficParams(s=s, s1_mean=900.0, s1_sd=0.0, q=1000.0,
                          r_var=0.1, clearance=0.3)


def test_rejects_negative_response_time():
    with pytest.raises(ModelDomainError):
        expected_delay(WORKED, -0.1)
    with pytest.raises(ModelDomainError):
        delay_variance(WORKED, -0.1)


def test_params_validation():
    with pytest.raises(ModelDomainError):
        TrafficParams(s=1000.0, s1_mean=500.0, s1_sd=0.0, q=0.0,
                      r_var=0.1, clearance=0.3)
    with pytest.raises(ModelDomainError):
        TrafficParams(s=1000.0, s1_mean=500.0, s1_sd=-1.0, q=800.0,
                      r_var=0.1, clearance=0.3)
    with pytest.raises(ModelDomainError):
        TrafficParams(s=1000.0, s1_mean=500.0, s1_sd=0.0, q=800.0,
                      r_var=-0.1, clearance=0.3)
    with pytest.raises(ModelDomainError):
        TrafficParams(s=1000.0, s1_mean=500.0, s1_sd=0.0, q=800.0,
                      r_var=0.1, clearance=-0.3)


# --------------------------------------------------------------- sampling


def test_severity_one_ranges():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = sample_params(1, rng)
        assert 750.0 <= p.s <= 800.0
        assert 600.0 <= p.q <= 720.0
        assert 0.2 <= p.clearance <= 0.3


def test_severity_four_ranges():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = sample_params(4, rng)
        assert 2200.0 <= p.s <= 2800.0
        assert 1824.0 <= p.q <= 2015.0


def test_sampling_is_deterministic_per_seed():
    a = Incident("i0", 7, 2, 0.5, sample_params(2, np.random.default_rng(99)), 3, 4)
    b = Incident("i0", 7, 2, 0.5, sample_params(2, np.random.default_rng(99)), 3, 4)
    assert a == b


def test_sampled_incidents_always_well_posed():
    # every severity keeps min(s) > max(q), so s > q for all draws, a
    # positive q and non-negative spreads and clearance: no draw can break a
    # TrafficParams rule, so no sampled incident reaches exit 1
    for sev, ranges in SEVERITY_RANGES.items():
        assert ranges["s"][0] > ranges["q"][1], sev
        assert ranges["q"][0] > 0, sev
        for name in ("s1_sd", "r_var", "clearance"):
            assert ranges[name][0] >= 0, (sev, name)
    rng = np.random.default_rng(5)
    for _ in range(400):
        p = sample_params(int(rng.integers(1, 5)), rng)
        assert p.s > p.q
    # the delay variance is positive at every corner of every row, for any
    # response a stage loop can reach: the subtracted term is at most 3/4 of
    # the first, which leaves at least s1_sd^2 r_var / (3 q^2) > 0, so every
    # served incident's prior can be assimilated
    for sev, ranges in SEVERITY_RANGES.items():
        for corner in itertools.product(*ranges.values()):
            p = TrafficParams(**dict(zip(ranges, corner)))
            floor = p.s1_sd**2 * p.r_var / (3 * p.q**2)
            assert floor > 0, (sev, corner)
            for response in (0.0, 0.5, MAX_HORIZON_H):
                assert delay_variance(p, response) > floor, (sev, corner, response)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**63), n=st.integers(1, 5))
def test_one_call_draw_equals_six_uniform_draws(seed, n):
    # every severity, then severities drawn from the stream between the
    # parameter draws, as materialize interleaves them
    new, old = np.random.default_rng(seed), np.random.default_rng(seed)
    for severity in (1, 2, 3, 4):
        assert (params_oracle.field_reprs(sample_params(severity, new))
                == params_oracle.field_reprs(
                    params_oracle.sample_params(severity, old)))
        assert new.bit_generator.state == old.bit_generator.state
    for _ in range(n):
        severity = int(new.integers(1, 5))
        assert severity == int(old.integers(1, 5))
        assert (params_oracle.field_reprs(sample_params(severity, new))
                == params_oracle.field_reprs(
                    params_oracle.sample_params(severity, old)))
        assert new.bit_generator.state == old.bit_generator.state


def test_reference_params_are_severity_averaged_midpoints():
    ref = reference_params()
    for name in ("s", "s1_mean", "s1_sd", "q", "r_var", "clearance"):
        want = sum(
            sum(SEVERITY_RANGES[sev][name]) / 2.0 for sev in (1, 2, 3, 4)
        ) / 4.0
        assert getattr(ref, name) == pytest.approx(want)
    assert ref.s > ref.q  # usable in the delay model as-is


def test_incident_dataclass_shape():
    p = WORKED
    inc = Incident(id="x", location=4, severity=2, report_time=1.5, params=p,
                   hazard=5, sparsity=1)
    assert (inc.id, inc.location, inc.severity, inc.report_time, inc.params,
            inc.hazard, inc.sparsity) == ("x", 4, 2, 1.5, p, 5, 1)
    assert [f.name for f in dataclasses.fields(Incident)] == [
        "id", "location", "severity", "report_time", "params", "hazard",
        "sparsity"]
