"""Reference parameter draws for incidents.sample_params and materialize.

`sample_params` is the plain draw: one scalar `rng.uniform(lo, hi)` per
field, in the order TrafficParams declares them. `incident_stream(sc)`
replays `materialize`'s incident stream with it: per stage a cell choice,
then per cell a scalar severity draw and that incident's parameters, in
generation order. The module's one-call draw must give the same floats and
leave the generator in the same state.
"""
from timdcop import scenarios
from timdcop.incidents import SEVERITY_RANGES, TrafficParams

FIELDS = ("s", "s1_mean", "s1_sd", "q", "r_var", "clearance")


def sample_params(severity, rng):
    ranges = SEVERITY_RANGES[severity]
    return TrafficParams(**{name: float(rng.uniform(*ranges[name]))
                            for name in FIELDS})


def field_reprs(p):
    """Each field's repr: equal lists mean equal floats, bit for bit."""
    return [repr(getattr(p, name)) for name in FIELDS]


def incident_stream(sc):
    """(id, cell, severity, params) per incident, in generation order."""
    rng = scenarios._rng(sc.seed, scenarios._INC)
    n_cells = sc.rows * sc.cols
    out = []
    for count in sc.schedule:
        for cell in rng.choice(n_cells, size=count, replace=False).tolist():
            severity = int(rng.integers(1, 5))
            out.append((f"i{len(out):03d}", cell, severity,
                        sample_params(severity, rng)))
    return out
