"""Forecast field and dependency kernel: brute-force oracle, bounds."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_oracle import grid_neighbors
from timdcop.errors import InputError
from timdcop.forecast import (
    DependencyKernel,
    FieldConfig,
    Forecast,
    PrimaryProbField,
    default_kernel,
    expected_probability,
    generate_field,
)
from timdcop.network import build_grid

# --------------------------------------------------------------- oracle
# Written before the module code: the literal triple-loop sum over every
# kernel entry, with out-of-horizon stages contributing zero.


def probability_oracle(values, delta, cell, stage) -> float:
    stages = len(values)

    def pr(j, u):
        if u < 0 or u >= stages:
            return 0.0
        return values[u][j]

    total = pr(cell, stage)
    for (j, lag, k), ratio in delta.items():
        if k == cell:
            total += ratio * pr(j, stage - lag)
    return min(1.0, total)


def default_kernel_oracle(net, lag1=0.3, lag2=0.1) -> dict:
    """default_kernel's couplings by a double loop over cells and neighbours."""
    delta = {}
    for k in range(net.n_cells):
        for j in grid_neighbors(net, k):
            if lag1 > 0:
                delta[(j, 1, k)] = lag1
            if lag2 > 0:
                delta[(j, 2, k)] = lag2
    return delta


def kernel_from_delta(delta: dict) -> DependencyKernel:
    """The flat kernel of a {(source, lag, target): ratio} dict, in dict order."""
    return DependencyKernel(
        source=[j for j, _, _ in delta], lag=[lag for _, lag, _ in delta],
        target=[k for _, _, k in delta], ratio=list(delta.values()),
    )


def delta_of(kernel: DependencyKernel) -> dict:
    """The {(source, lag, target): ratio} dict of a kernel, in entry order."""
    keys = zip(kernel.source.tolist(), kernel.lag.tolist(), kernel.target.tolist())
    return dict(zip(keys, kernel.ratio.tolist()))


def assert_matches_oracle(values, delta, stages):
    fld = PrimaryProbField(values=values)
    kernel = kernel_from_delta(delta)
    raw = [list(map(float, row)) for row in values]
    for stage in range(stages):
        row = expected_probability(fld, kernel, stage)
        assert row.shape == (fld.cells,)
        for cell in range(fld.cells):
            # both sum in delta insertion order: equal to the last bit
            assert row[cell] == probability_oracle(raw, delta, cell, stage)


def test_matches_oracle_on_random_five_cell_world():
    rng = np.random.default_rng(8)
    values = rng.uniform(0.0, 0.3, size=(6, 5))
    delta = {}
    for _ in range(12):
        j, k = (int(x) for x in rng.integers(0, 5, 2))
        lag = int(rng.integers(1, 3))
        delta[(j, lag, k)] = float(rng.uniform(0.0, 0.8))
    assert_matches_oracle(values, delta, 8)  # includes stages past the horizon
    # the default kernel: up to eight incoming entries per cell
    net = build_grid(6, 6, seed=3)
    values = np.random.default_rng(9).uniform(0.0, 0.4, size=(4, net.n_cells))
    assert_matches_oracle(values, default_kernel_oracle(net), 6)


def test_zero_kernel_returns_primary_probability():
    values = np.array([[0.05, 0.10], [0.12, 0.01], [0.0, 0.15]])
    fld = PrimaryProbField(values=values)
    kernel = DependencyKernel()
    for stage in range(3):
        for cell in range(2):
            assert expected_probability(fld, kernel, stage)[cell] == pytest.approx(
                float(values[stage, cell])
            )


def test_worked_secondary_contribution():
    # 0.1 primary + 0.5 coupling x 0.2 at the previous stage = 0.2
    values = np.array([[0.2, 0.0], [0.0, 0.1]])
    fld = PrimaryProbField(values=values)
    kernel = kernel_from_delta({(0, 1, 1): 0.5})
    assert expected_probability(fld, kernel, 1)[1] == pytest.approx(0.2)


def test_probability_caps_at_one():
    values = np.array([[0.9, 0.9], [0.9, 0.9]])
    fld = PrimaryProbField(values=values)
    kernel = kernel_from_delta({(0, 1, 1): 5.0})
    assert expected_probability(fld, kernel, 1)[1] == 1.0


def test_missing_history_counts_as_zero():
    values = np.array([[0.0, 0.1]])
    fld = PrimaryProbField(values=values)
    kernel = kernel_from_delta({(0, 1, 1): 0.9, (0, 2, 1): 0.9})
    # stage 0: both lags reach before the horizon -> only the primary term
    assert expected_probability(fld, kernel, 0)[1] == pytest.approx(0.1)


def test_beyond_horizon_is_fed_only_by_lagged_history():
    values = np.array([[0.3, 0.0]])
    fld = PrimaryProbField(values=values)
    kernel = kernel_from_delta({(0, 1, 1): 0.5})
    # stage 1 is outside the one-stage horizon; the lag-1 term still lands
    assert expected_probability(fld, kernel, 1)[1] == pytest.approx(0.15)
    assert expected_probability(fld, kernel, 2)[1] == 0.0


def test_increasing_a_coupling_never_decreases_probability():
    rng = np.random.default_rng(12)
    values = rng.uniform(0.0, 0.2, size=(5, 4))
    fld = PrimaryProbField(values=values)
    delta = {(0, 1, 2): 0.2, (3, 2, 1): 0.4}
    base = kernel_from_delta(delta)
    bumped = kernel_from_delta({**delta, (0, 1, 2): 0.9})
    for stage in range(6):
        for cell in range(4):
            assert (
                expected_probability(fld, bumped, stage)[cell]
                >= expected_probability(fld, base, stage)[cell] - 1e-15
            )


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 4),
    cols=st.integers(1, 4),
    stage=st.integers(0, 6),
    data=st.data(),
)
def test_output_always_a_probability(rows, cols, stage, data):
    values = np.array([
        [data.draw(st.floats(0.0, 1.0)) for _ in range(cols)]
        for _ in range(rows)
    ])
    n_entries = data.draw(st.integers(0, 5))
    delta = {}
    for _ in range(n_entries):
        j = data.draw(st.integers(0, cols - 1))
        k = data.draw(st.integers(0, cols - 1))
        lag = data.draw(st.integers(1, 2))
        delta[(j, lag, k)] = data.draw(st.floats(0.0, 3.0))
    fld = PrimaryProbField(values=values)
    kernel = kernel_from_delta(delta)
    raw = values.tolist()
    for cell in range(cols):
        p = expected_probability(fld, kernel, stage)[cell]
        assert 0.0 <= p <= 1.0
        assert p == probability_oracle(raw, delta, cell, stage)


# ------------------------------------------------------------- generation


def test_generate_field_deterministic_and_in_range():
    a = generate_field(16, 5, seed=77)
    b = generate_field(16, 5, seed=77)
    c = generate_field(16, 5, seed=78)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.values.shape == (5, 16)
    assert a.stages == 5 and a.cells == 16
    assert np.all(a.values >= 0.0) and np.all(a.values <= 0.15)


def test_generate_field_zero_range_is_all_zero():
    fld = generate_field(9, 4, seed=1, config=FieldConfig(prob_range=(0.0, 0.0)))
    assert np.all(fld.values == 0.0)


def test_generate_field_normalization_budget():
    cfg = FieldConfig(prob_range=(0.0, 0.15), normalize=True, budget=0.8)
    fld = generate_field(25, 6, seed=3, config=cfg)
    sums = fld.values.sum(axis=1)
    assert np.allclose(sums, 0.8)


@pytest.mark.parametrize("rng_pair", [(-0.1, 0.5), (0.2, 0.1), (0.5, 1.5)])
def test_generate_field_rejects_bad_range(rng_pair):
    with pytest.raises(InputError):
        generate_field(4, 3, config=FieldConfig(prob_range=rng_pair))


def test_generate_field_rejects_empty_dimensions():
    with pytest.raises(InputError):
        generate_field(0, 3)
    with pytest.raises(InputError):
        generate_field(4, 0)


def test_expected_probability_rejects_negative_stage():
    fld = generate_field(4, 3, seed=0)
    with pytest.raises(InputError):
        expected_probability(fld, DependencyKernel(), -1)


@pytest.mark.parametrize("entry", [(4, 1, 0), (0, 1, 4)])
def test_expected_probability_rejects_kernel_cells_outside_the_field(entry):
    fld = generate_field(4, 3, seed=0)
    with pytest.raises(InputError):
        expected_probability(fld, kernel_from_delta({entry: 0.2}), 1)


def test_forecast_computes_each_stage_once_and_ranks_stably():
    net = build_grid(4, 4, seed=2)
    # values on a 0.1 lattice, so rows hold ties
    values = np.random.default_rng(5).integers(0, 4, size=(3, 16)) / 10
    fc = Forecast(PrimaryProbField(values=values), default_kernel(net))
    for stage in range(6):
        row = fc.row(stage)
        assert np.array_equal(row, expected_probability(fc.field_, fc.kernel, stage))
        assert fc.ranking(stage).tolist() == sorted(range(16), key=lambda c: (-row[c], c))
        assert fc.row(stage) is row and fc.ranking(stage) is fc.ranking(stage)
        # shared by every run on the world: no reader may write to it
        assert not row.flags.writeable and not fc.ranking(stage).flags.writeable


def test_stages_past_the_lagged_horizon_share_one_zero_row():
    net = build_grid(3, 4, seed=3)
    fld = generate_field(net.n_cells, 3, seed=4)
    fc = Forecast(fld, default_kernel(net))
    last = fc.row(fld.stages + 1)  # still fed by the last field stage
    assert last.any()
    row, ranking = fc.row(fld.stages + 2), fc.ranking(fld.stages + 2)
    assert np.array_equal(row, np.zeros(net.n_cells))
    assert ranking.tolist() == list(range(net.n_cells))
    for stage in (fld.stages + 3, fld.stages + 10, 10**9):
        assert fc.row(stage) is row and fc.ranking(stage) is ranking
        assert np.array_equal(row, expected_probability(fld, fc.kernel, stage))
    assert sorted(fc._stages) == [fld.stages + 1, fld.stages + 2]
    with pytest.raises(InputError):
        fc.row(-1)


# ----------------------------------------------------------------- kernel


def test_default_kernel_couples_grid_neighbourhood():
    net = build_grid(2, 2, (1.0, 1.0), seed=0)
    delta = delta_of(default_kernel(net))
    # every directed neighbour pair appears at both lags
    assert len(delta) == 16
    for k in range(net.n_cells):
        for j in grid_neighbors(net, k):
            assert delta[(j, 1, k)] == 0.3
            assert delta[(j, 2, k)] == 0.1


def test_default_kernel_drops_zero_lags():
    net = build_grid(2, 2, (1.0, 1.0), seed=0)
    delta = delta_of(default_kernel(net, lag1=0.5, lag2=0.0))
    assert len(delta) == 8
    assert all(lag == 1 for (_, lag, _) in delta)


@pytest.mark.parametrize("shape", [(2, 2), (2, 5), (5, 2), (6, 7), (40, 40)])
@pytest.mark.parametrize("lags", [
    (0.3, 0.1), (0.5, 0.0), (0.0, 0.2), (0.0, 0.0), (-0.1, 0.1)])
def test_default_kernel_matches_the_double_loop_in_order(shape, lags):
    net = build_grid(*shape, (1.0, 1.0), seed=0)
    kernel = default_kernel(net, *lags)
    want = default_kernel_oracle(net, *lags)
    assert list(delta_of(kernel).items()) == list(want.items())
    assert len(kernel.ratio) == len(want)  # no entry collapsed in the dict


def test_kernel_validation():
    for bad in ({(0, 3, 1): 0.2}, {(0, 0, 1): 0.2}, {(0, 1, 1): -0.2},
                {(0, 1, 1): float("nan")}, {(-1, 1, 1): 0.2}, {(0, 1, -1): 0.2}):
        with pytest.raises(InputError):
            kernel_from_delta(bad)
    with pytest.raises(InputError):
        DependencyKernel(source=[0, 1], lag=[1], target=[1], ratio=[0.2])
