"""Stochastic incident delay model and severity-indexed parameter sampling.

Expected extra delay caused by an incident on a link with capacity s (vph),
reduced capacity mean s1_mean / sd s1_sd (vph), demand q (vph) and incident
duration r (hours, mean response+clearance, variance r_var):

    E[TD] = [(s1_mean^2 + s1_sd^2) - (s+q)*s1_mean + s*q] * (r_mean^2 + r_var)
            / (2*(s - q))

    Var[TD] = ((q - s1_mean)^2 + s1_sd^2) * (r_var + r_mean^2) / (3*q^2)
              - (q - s1_mean)^2 * r_mean^2 / (4*q^2)

The bracket and 2 (s - q) are constants of the parameters, computed once on
TrafficParams. E[TD] is clamped at zero (parameter draws can push the bracket
negative); clamp events are counted on a module-level tally so harnesses can
report how often the model saturated. Var[TD] needs no clamp: it equals
(A r_var / 3 + r_mean^2 (g / 12 + s1_sd^2 / 3)) / q^2 >= 0 with
A = (q - s1_mean)^2 + s1_sd^2 and g = (q - s1_mean)^2. TrafficParams requires
s > q: at or below saturation the queue never clears and the model has no
finite answer.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelDomainError
from .network import CellId

# Severity -> uniform sampling ranges: capacity s (vph), reduced-capacity mean
# and sd (vph), demand q (vph), duration variance (h^2), clearance time (h).
# Every severity keeps min(s) > max(q) so sampled incidents are always
# well-posed for the delay model.
SEVERITY_RANGES: dict[int, dict[str, tuple[float, float]]] = {
    1: {
        "s": (750.0, 800.0),
        "s1_mean": (600.0, 800.0),
        "s1_sd": (100.0, 200.0),
        "q": (600.0, 720.0),
        "r_var": (0.1, 0.2),
        "clearance": (0.2, 0.3),
    },
    2: {
        "s": (1130.0, 1500.0),
        "s1_mean": (900.0, 1900.0),
        "s1_sd": (100.0, 300.0),
        "q": (960.0, 1120.0),
        "r_var": (0.2, 0.3),
        "clearance": (0.3, 0.4),
    },
    3: {
        "s": (1700.0, 1900.0),
        "s1_mean": (1000.0, 1200.0),
        "s1_sd": (100.0, 300.0),
        "q": (1440.0, 1644.0),
        "r_var": (0.2, 0.4),
        "clearance": (0.5, 0.7),
    },
    4: {
        "s": (2200.0, 2800.0),
        "s1_mean": (1000.0, 1500.0),
        "s1_sd": (100.0, 300.0),
        "q": (1824.0, 2015.0),
        "r_var": (0.2, 0.3),
        "clearance": (0.5, 1.0),
    },
}

_PARAM_ORDER = ("s", "s1_mean", "s1_sd", "q", "r_var", "clearance")
# severity -> (lows, spans) in _PARAM_ORDER, for sample_params
_PARAM_TABLE = {
    sev: (tuple(ranges[name][0] for name in _PARAM_ORDER),
          tuple(ranges[name][1] - ranges[name][0] for name in _PARAM_ORDER))
    for sev, ranges in SEVERITY_RANGES.items()
}


@dataclass(frozen=True)
class TrafficParams:
    """Link/incident parameters feeding the delay model.

    Mean incident duration is not stored: it is response_time + clearance,
    and the response time is only known per assignment. `bracket` and
    `twice_gap` are the delay formula's constants:
    E[TD] = bracket * (r_mean^2 + r_var) / twice_gap.
    """

    s: float        # freeway capacity (vph)
    s1_mean: float  # mean reduced capacity under the incident (vph)
    s1_sd: float    # sd of reduced capacity (vph)
    q: float        # traffic demand (vph)
    r_var: float    # variance of incident duration (h^2)
    clearance: float  # clearance time (h)
    bracket: float = field(init=False, repr=False, compare=False)
    twice_gap: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.q <= 0:
            raise ModelDomainError(f"demand must be positive, got {self.q}")
        if self.s <= self.q:
            raise ModelDomainError(
                f"capacity must exceed demand (s={self.s}, q={self.q})"
            )
        if self.s1_sd < 0 or self.r_var < 0 or self.clearance < 0:
            raise ModelDomainError("negative spread/clearance parameter")
        object.__setattr__(self, "bracket", self.s1_mean**2 + self.s1_sd**2
                           - (self.s + self.q) * self.s1_mean + self.s * self.q)
        object.__setattr__(self, "twice_gap", 2.0 * (self.s - self.q))


@dataclass(frozen=True)
class Incident:
    """A request. Frozen: runs share the world's incidents; what is open is
    the stage loop's state."""

    id: str
    location: CellId
    severity: int
    report_time: float  # hours
    params: TrafficParams
    hazard: int         # hazard index level 1..5
    sparsity: int       # sensor sparsity 1..5


class ClampTally:
    """Counts delay evaluations that saturated at zero."""

    def __init__(self) -> None:
        self.count = 0

    def bump(self, n: int = 1) -> None:
        self.count += n

    def reset(self) -> None:
        self.count = 0


clamped = ClampTally()


def sample_params(severity: int, rng: np.random.Generator) -> TrafficParams:
    """Draw one parameter set for a severity class (uniform per field).

    One generator call draws all six fields: u = rng.random(6), then
    lo + (hi - lo) * u per field in _PARAM_ORDER. Generator.uniform(lo, hi)
    computes the same two float operations on the same next double, so the
    values, their order and the generator state afterwards equal six scalar
    uniform draws bit for bit (tests/params_oracle.py keeps those draws).
    """
    lows, spans = _PARAM_TABLE[severity]
    u = rng.random(6).tolist()
    # TrafficParams declares its fields in _PARAM_ORDER
    return TrafficParams(*[lo + span * x for lo, span, x in zip(lows, spans, u)])


def reference_params() -> TrafficParams:
    """Field-midpoint parameters averaged over the four severity classes.

    Used to price hypothetical future incidents (forecast look-ahead) where
    no sampled parameters exist yet.
    """
    mids = {}
    for name in _PARAM_ORDER:
        per_sev = [sum(SEVERITY_RANGES[sev][name]) / 2.0
                   for sev in sorted(SEVERITY_RANGES)]
        mids[name] = sum(per_sev) / len(per_sev)
    return TrafficParams(**mids)


def expected_delay(p: TrafficParams, response_time: float) -> float:
    """Expected total incident delay in vehicle-hours.

    Mean duration is response_time + clearance. Negative raw values (possible
    when the reduced-capacity draw exceeds capacity/demand) clamp to zero.
    """
    if response_time < 0:
        raise ModelDomainError(f"negative response time {response_time}")
    r_mean = response_time + p.clearance
    raw = p.bracket * (r_mean**2 + p.r_var) / p.twice_gap
    if raw < 0.0:
        clamped.bump()
        return 0.0
    return raw


def expected_delays(params: Sequence[TrafficParams], response) -> np.ndarray:
    """expected_delay of params[j] at every response[..., j], as one array.

    The last axis of `response` runs over `params`. Every element equals the
    scalar function bit for bit: each column reads the same bracket and
    twice_gap, and the square is np.float_power, which calls libm pow as
    Python's float ** does (an ndarray's ** 2 multiplies instead, and differs
    in the last bit on some inputs). The clamp tally counts every clamped
    element.
    """
    response = np.asarray(response, dtype=float)
    negative = response < 0
    if negative.any():
        raise ModelDomainError(f"negative response time {response[negative][0]}")
    bracket, clearance, r_var, twice_gap = np.array([
        (p.bracket, p.clearance, p.r_var, p.twice_gap) for p in params
    ], dtype=float).reshape(-1, 4).T
    r_mean = response + clearance
    raw = bracket * (np.float_power(r_mean, 2) + r_var) / twice_gap
    below = raw < 0.0
    n_clamped = int(np.count_nonzero(below))
    if n_clamped:
        clamped.bump(n_clamped)
        raw[below] = 0.0
    return raw


def delay_variance(p: TrafficParams, response_time: float) -> float:
    """Variance of the total incident delay (vehicle-hours squared)."""
    if response_time < 0:
        raise ModelDomainError(f"negative response time {response_time}")
    r_mean = response_time + p.clearance
    gap_sq = (p.q - p.s1_mean) ** 2
    # no clamp: the subtracted term is at most 3/4 of the first (module doc)
    return (gap_sq + p.s1_sd**2) * (p.r_var + r_mean**2) / (3.0 * p.q**2) \
        - gap_sq * r_mean**2 / (4.0 * p.q**2)

