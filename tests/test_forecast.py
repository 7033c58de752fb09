"""Forecast field and neighbour coupling: brute-force oracle, bounds."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grid_oracle import grid_neighbors
from timdcop.errors import InputError
from timdcop.forecast import (
    DependencyKernel,
    Forecast,
    default_kernel,
    expected_probability,
    generate_field,
)
from timdcop.network import build_grid
from timdcop.scenarios import Scenario

# --------------------------------------------------------------- oracle
# Written before the module code: the literal triple-loop sum over every
# coupling, with out-of-horizon stages contributing zero.


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


def default_kernel_oracle(net) -> dict:
    """A rows x cols grid's neighbour couplings {(source, lag, target): ratio}
    by a double loop over cells and neighbours, target by target, at the
    ratios 0.3 (lag 1) and 0.1 (lag 2)."""
    delta = {}
    for k in range(net.rows * net.cols):
        for j in grid_neighbors(net, k):
            delta[(j, 1, k)] = 0.3
            delta[(j, 2, k)] = 0.1
    return delta


def assert_matches_oracle(values, kernel, stages):
    """Every row of `stages` equals the oracle fed the kernel's couplings."""
    raw = [list(map(float, row)) for row in values]
    by_target = [{} for _ in range(values.shape[1])]  # the oracle skips other targets
    for (j, lag, k), ratio in default_kernel_oracle(kernel).items():
        by_target[k][(j, lag, k)] = ratio
    for stage in stages:
        row = expected_probability(values, kernel, stage)
        assert row.shape == (values.shape[1],)
        for cell in range(values.shape[1]):
            # both sum in the oracle's insertion order: equal to the last bit
            assert row[cell] == probability_oracle(raw, by_target[cell], cell, stage)


def test_matches_oracle_on_random_five_cell_world():
    rng = np.random.default_rng(8)
    values = rng.uniform(0.0, 0.3, size=(6, 5))
    for shape in ((1, 5), (5, 1)):
        # includes stages past the horizon
        assert_matches_oracle(values, DependencyKernel(*shape), range(8))
    # the default kernel: up to eight incoming couplings per cell
    net = build_grid(6, 6, seed=3)
    values = np.random.default_rng(9).uniform(0.0, 0.4, size=(4, net.n_cells))
    assert_matches_oracle(values, default_kernel(net), range(6))


def test_zero_kernel_returns_primary_probability():
    # the neighbours' two lagged stages are zero, so no coupling adds to a
    # stage-2 row: it is the primary row itself
    values = np.array([[0.0, 0.0], [0.0, 0.0], [0.05, 0.10]])
    assert expected_probability(values, DependencyKernel(1, 2), 2).tolist() == [0.05, 0.10]


def test_worked_secondary_contribution():
    # 0.1 primary + 0.3 coupling x 0.2 at the previous stage = 0.16
    values = np.array([[0.2, 0.0], [0.0, 0.1]])
    kernel = DependencyKernel(1, 2)
    assert expected_probability(values, kernel, 1).tolist() == pytest.approx([0.0, 0.16])


def test_probability_caps_at_one():
    # 0.9 + 0.3 x 0.9 = 1.17
    values = np.array([[0.9, 0.9], [0.9, 0.9]])
    kernel = DependencyKernel(1, 2)
    assert expected_probability(values, kernel, 1)[1] == 1.0


def test_missing_history_counts_as_zero():
    values = np.array([[0.9, 0.1]])
    kernel = DependencyKernel(1, 2)
    # stage 0: both lags reach before the horizon -> only the primary term
    assert expected_probability(values, kernel, 0)[1] == pytest.approx(0.1)


def test_beyond_horizon_is_fed_only_by_lagged_history():
    values = np.array([[0.3, 0.0]])
    kernel = DependencyKernel(1, 2)
    # stages 1 and 2 are outside the one-stage horizon; the lagged terms
    # still land, 0.3 x 0.3 and then 0.1 x 0.3
    assert expected_probability(values, kernel, 1)[1] == pytest.approx(0.09)
    assert expected_probability(values, kernel, 2)[1] == pytest.approx(0.03)
    assert expected_probability(values, kernel, 3)[1] == 0.0


def test_increasing_a_coupling_never_decreases_probability():
    # raising a neighbour's probability one or two stages back raises the
    # coupling term it feeds, and never lowers any row
    rng = np.random.default_rng(12)
    values = rng.uniform(0.0, 0.2, size=(5, 4))
    kernel = DependencyKernel(2, 2)
    for stage, cell in ((1, 0), (2, 3), (3, 1), (4, 2)):
        bumped = values.copy()
        bumped[stage - 1, cell] += 0.5
        for u in range(6):
            assert np.all(expected_probability(bumped, kernel, u)
                          >= expected_probability(values, kernel, u))


@settings(max_examples=100, deadline=None)
@given(
    stages=st.integers(1, 4),
    rows=st.integers(1, 3),
    cols=st.integers(1, 3),
    stage=st.integers(0, 6),
    data=st.data(),
)
def test_output_always_a_probability(stages, rows, cols, stage, data):
    values = np.array([
        [data.draw(st.floats(0.0, 1.0)) for _ in range(rows * cols)]
        for _ in range(stages)
    ])
    kernel = DependencyKernel(rows, cols)
    delta = default_kernel_oracle(kernel)
    raw = values.tolist()
    for cell in range(rows * cols):
        p = expected_probability(values, kernel, stage)[cell]
        assert 0.0 <= p <= 1.0
        assert p == probability_oracle(raw, delta, cell, stage)


# ------------------------------------------------------------- generation


def test_generate_field_deterministic_and_in_range():
    a = generate_field(16, 5, seed=77)
    b = generate_field(16, 5, seed=77)
    c = generate_field(16, 5, seed=78)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.shape == (5, 16)
    assert np.all(a >= 0.0) and np.all(a <= 0.15)


def test_generate_field_zero_range_is_all_zero():
    fld = generate_field(9, 4, seed=1, prob_range=(0.0, 0.0))
    assert np.all(fld == 0.0)


def test_generate_field_normalization_budget():
    fld = generate_field(25, 6, seed=3, prob_range=(0.0, 0.15), normalize=True,
                         budget=0.8)
    sums = fld.sum(axis=1)
    assert np.allclose(sums, 0.8)


# generate_field takes its range and dimensions from a Scenario, which
# refuses a range outside [0, 1] and a world with no stage or no cell


@pytest.mark.parametrize("rng_pair", [(-0.1, 0.5), (0.2, 0.1), (0.5, 1.5)])
def test_generate_field_rejects_bad_range(rng_pair):
    with pytest.raises(InputError) as refused:
        Scenario(seed=0, prob_range=rng_pair)
    assert str(refused.value) == ("forecast.prob_range must be two numbers "
                                  f"0 ≤ lo ≤ hi ≤ 1, got {rng_pair}")


def test_generate_field_rejects_empty_dimensions():
    with pytest.raises(InputError, match="^schedule must be non-empty"):
        Scenario(seed=0, schedule=())
    with pytest.raises(InputError, match="^grid.rows must be ≥ 2, got 0$"):
        Scenario(seed=0, rows=0, cols=0)


def test_forecast_computes_each_stage_once_and_ranks_stably():
    net = build_grid(4, 4, seed=2)
    # values on a 0.1 lattice, so rows hold ties
    values = np.random.default_rng(5).integers(0, 4, size=(3, 16)) / 10
    fc = Forecast(values, default_kernel(net))
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
    last = fc.row(len(fld) + 1)  # still fed by the last field stage
    assert last.any()
    row, ranking = fc.row(len(fld) + 2), fc.ranking(len(fld) + 2)
    assert np.array_equal(row, np.zeros(net.n_cells))
    assert ranking.tolist() == list(range(net.n_cells))
    for stage in (len(fld) + 3, len(fld) + 10, 10**9):
        assert fc.row(stage) is row and fc.ranking(stage) is ranking
        assert np.array_equal(row, expected_probability(fld, fc.kernel, stage))
    assert sorted(fc._stages) == [len(fld) + 1, len(fld) + 2]


# ----------------------------------------------------------------- kernel


def impulse_rows(kernel, source, stages=4):
    """Rows 0..stages-1 of a field that is 1 at `source` at stage 0, else 0."""
    values = np.zeros((1, kernel.rows * kernel.cols))
    values[0, source] = 1.0
    return [expected_probability(values, kernel, stage) for stage in range(stages)]


def test_default_kernel_couples_grid_neighbourhood():
    net = build_grid(3, 4, (1.0, 1.0), seed=0)
    kernel = default_kernel(net)
    assert kernel == DependencyKernel(3, 4)
    for k in range(net.n_cells):
        # an incident at k raises exactly its grid neighbours, at both lags
        near = np.zeros(net.n_cells)
        near[grid_neighbors(net, k)] = 1.0
        rows = impulse_rows(kernel, k)
        assert rows[1].tolist() == (0.3 * near).tolist()
        assert rows[2].tolist() == (0.1 * near).tolist()
        assert not rows[3].any()


@pytest.mark.parametrize("shape", [(2, 2), (2, 5), (5, 2), (6, 7), (40, 40)])
# the lags whose stage lies inside a three-stage field (lag 0 is the stage's
# own primary term): each set is read at the one stage it holds at
@pytest.mark.parametrize("lags", [(0, 1, 2), (0, 1), (0,), (1, 2), (2,)])
def test_default_kernel_matches_the_double_loop_in_order(shape, lags):
    net = build_grid(*shape, (1.0, 1.0), seed=0)
    horizon = 3
    [stage] = [u for u in range(horizon + 2)
               if [lag for lag in range(3) if 0 <= u - lag < horizon] == list(lags)]
    # up to 0.6, so that some cells of some rows reach the cap
    values = np.random.default_rng(17).uniform(0.0, 0.6, size=(horizon, net.n_cells))
    assert_matches_oracle(values, default_kernel(net), [stage])


def test_kernel_validation():
    fld = generate_field(4, 3, seed=0)
    for shape in ((2, 2), (1, 4), (4, 1)):  # any grid of the field's 4 cells
        assert expected_probability(fld, DependencyKernel(*shape), 1).shape == (4,)
