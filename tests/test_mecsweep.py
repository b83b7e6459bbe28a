import math
import random
import tracemalloc
from collections import Counter

import pytest

from encorsim.mecsweep import (
    DEFAULT_C_INTER, DEFAULT_C_INTRA, MAX_WALK_DRAWS, EmptyTraceError,
    GridNetwork, TilingError, block_size, classify_moves,
    default_densities, move_counts, sweep, to_csv_rows,
)
from encorsim.mecsweep import _density_point, _neighbors, _poisson


def grid(w=20, h=20, ues=200, handover_rate_per_min=5.0):
    return GridNetwork(width=w, height=h, ue_count=ues,
                       handover_rate_per_min=handover_rate_per_min)


def inter_fraction_exhaustive(grid, k):
    """Oracle: fraction of boundary-crossing moves over all (station,
    neighbor) pairs, which is the random walk's stationary crossing rate."""
    bw, bh = block_size(grid, k)
    total = 0
    crossing = 0
    for x in range(grid.width):
        for y in range(grid.height):
            for nx, ny in _neighbors(x, y, grid.width, grid.height):
                total += 1
                if (x // bw, y // bh) != (nx // bw, ny // bh):
                    crossing += 1
    return crossing / total


def test_block_size_tilings():
    g = grid(20, 20)
    assert block_size(g, 1) == (20, 20)
    assert block_size(g, 4) == (10, 10)
    assert block_size(g, 400) == (1, 1)


def test_block_size_rejects_bad_k():
    g = grid(20, 20)
    with pytest.raises(TilingError):
        block_size(g, 2)  # not a perfect square
    with pytest.raises(TilingError):
        block_size(g, 9)  # 3 does not divide 20
    with pytest.raises(TilingError, match="k=0"):
        block_size(g, 0)
    with pytest.raises(TilingError, match="k=-4"):
        block_size(g, -4)


def test_default_densities_cover_extremes():
    ks = default_densities(grid(20, 20))
    assert ks[0] == 1 and ks[-1] == 400
    assert all(math.isqrt(k) ** 2 == k for k in ks)


def test_moves_stay_on_grid_and_adjacent():
    g = grid(8, 8, ues=20)
    counts = move_counts(g, 5, seed=3)
    assert counts
    for (x0, y0), (x1, y1) in counts:
        assert 0 <= x1 < 8 and 0 <= y1 < 8
        assert abs(x1 - x0) + abs(y1 - y0) == 1


def reference_moves(grid, duration_min, seed):
    """The trace drawn with `rng.choice` over neighbor tuples: the walk
    that `move_counts` must fold draw for draw."""
    rng = random.Random(seed)
    w, h = grid.width, grid.height
    mean = grid.handover_rate_per_min * duration_min
    neighbors = {(x, y): _neighbors(x, y, w, h)
                 for x in range(w) for y in range(h)}
    moves = []
    for _ in range(grid.ue_count):
        here = (rng.randrange(w), rng.randrange(h))
        for _ in range(_poisson(rng, mean)):
            nxt = rng.choice(neighbors[here])
            moves.append((here, nxt))
            here = nxt
    return moves


# duration 5 gives a Poisson mean of 25 (sequential search); duration 10
# gives 50, which takes the normal approximation through rng.gauss. A
# start draw for a side of 5, 7 or 20 rejects 3 of 8, 1 of 8 or 12 of 32
# values, so these shapes pin the redraws of the inlined `randrange`.
@pytest.mark.parametrize("duration_min", [5, 10])
@pytest.mark.parametrize("w,h", [(1, 2), (2, 1), (1, 5), (3, 3), (6, 4),
                                 (5, 7), (7, 1), (20, 20)])
def test_trace_draws_as_random_choice(w, h, duration_min):
    g = grid(w, h, ues=12)
    for seed in range(4):
        moves = reference_moves(g, duration_min, seed)
        assert move_counts(g, duration_min, seed) == Counter(moves)


def test_trace_deterministic_per_seed():
    g = grid(8, 8, ues=20)
    assert move_counts(g, 5, seed=1) == move_counts(g, 5, seed=1)
    assert move_counts(g, 5, seed=1) != move_counts(g, 5, seed=2)


def test_single_anchor_has_zero_crossings():
    g = grid(8, 8, ues=50)
    counts = move_counts(g, 10, seed=0)
    assert classify_moves(counts, g, 1) == 0


def test_anchor_per_station_makes_every_move_cross():
    g = grid(8, 8, ues=50)
    counts = move_counts(g, 10, seed=0)
    assert classify_moves(counts, g, 64) == sum(counts.values())


def test_exhaustive_oracle_4x4_k4_by_hand():
    # 4x4 grid, 2x2 blocks: 48 directed (station, neighbor) pairs, of
    # which 2 vertical cut-lines x 4 rows x 2 directions = 16 cross
    g = grid(4, 4, ues=1)
    assert inter_fraction_exhaustive(g, 4) == pytest.approx(16 / 48)


def test_simulation_matches_stationary_oracle():
    # the reflecting random walk's stationary crossing rate equals the
    # exhaustive pair enumeration; a long trace should agree within a few %
    g = grid(10, 10, ues=400, handover_rate_per_min=5.0)
    counts = move_counts(g, 60, seed=11)
    total = sum(counts.values())
    for k in (4, 25, 100):
        frac = classify_moves(counts, g, k) / total
        assert frac == pytest.approx(inter_fraction_exhaustive(g, k), rel=0.06)


def test_poisson_trace_length_within_3_sigma():
    g = grid(8, 8, ues=100, handover_rate_per_min=5.0)
    total = sum(move_counts(g, 10, seed=4).values())
    mean = 100 * 5.0 * 10
    assert abs(total - mean) <= 3 * math.sqrt(mean)


def test_message_cost_arithmetic():
    g = grid(4, 4, ues=10)
    # intra twice, inter once for k=4
    counts = Counter({((0, 0), (0, 1)): 2, ((1, 1), (2, 1)): 1})
    p = _density_point(g, 4, counts, DEFAULT_C_INTRA, DEFAULT_C_INTER)
    assert p.total_handovers == 3 and p.inter_anchor == 1
    assert p.total_messages == 2 * DEFAULT_C_INTRA + DEFAULT_C_INTER


def test_sweep_ratios_normalized_and_monotone():
    g = grid(20, 20, ues=500)
    points, ratios = sweep(g, duration_min=20, seed=7)
    assert ratios[0] == 1.0
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
    # densest deployment: every handover crosses, ratio = c_inter/c_intra
    assert ratios[-1] == pytest.approx(DEFAULT_C_INTER / DEFAULT_C_INTRA)
    assert ratios[-1] == pytest.approx(50 / 15)


def test_sweep_normalizes_to_single_anchor_in_any_density_order():
    g = grid(4, 4, ues=50)
    points, ratios = sweep(g, densities=[4, 1])
    assert [p.k for p in points] == [4, 1]
    assert ratios[1] == 1.0
    assert ratios[0] == points[0].total_messages / points[1].total_messages
    assert ratios[0] > 1.0
    # without k=1 in the list the base is still the single-anchor total
    points, ratios = sweep(g, densities=[16])
    assert ratios == [pytest.approx(DEFAULT_C_INTER / DEFAULT_C_INTRA)]


def test_sweep_reuses_one_trace_across_densities():
    g = grid(20, 20, ues=100)
    points, _ = sweep(g, seed=5)
    counts = {p.total_handovers for p in points}
    assert len(counts) == 1  # same trace everywhere


def test_sweep_deterministic():
    g = grid(20, 20, ues=100)
    assert sweep(g, seed=9) == sweep(g, seed=9)


def test_csv_rows_shape():
    g = grid(4, 4, ues=10)
    points, ratios = sweep(g, seed=0)
    rows = to_csv_rows(points, ratios)
    assert len(rows) == len(points)
    assert all(len(r) == 6 for r in rows)
    assert rows[0][0] == 1 and rows[0][5] == 1.0


@pytest.mark.parametrize("w,h,ues,rate", [
    (0, 0, 10, 5.0), (1, 1, 10, 5.0), (-2, 4, 10, 5.0), (4, 4, 0, 5.0),
    (4, 4, -5, 5.0), (4, 4, 10, 0.0), (4, 4, 10, math.nan),
    (4, 4, 10, math.inf), (501, 500, 10, 5.0),  # above MAX_STATIONS
])
def test_grid_rejects_degenerate_values(w, h, ues, rate):
    with pytest.raises(ValueError):
        grid(w, h, ues, rate)


def test_sweep_rejects_trace_without_handovers():
    with pytest.raises(EmptyTraceError):
        sweep(grid(4, 4, ues=1), duration_min=1e-6, seed=0)


@pytest.mark.parametrize("w,h,ues,seed", [
    (1, 5, 30, 0), (5, 1, 30, 1), (2, 2, 40, 2), (6, 4, 50, 3),
])
def test_move_counts_is_histogram_of_the_trace(w, h, ues, seed):
    g = grid(w, h, ues=ues)
    counts = move_counts(g, 5, seed)
    assert counts == Counter(reference_moves(g, 5, seed))
    assert len(counts) <= 4 * w * h


def test_sweep_memory_does_not_grow_with_ue_count():
    # the trace is about 200k moves (35 MB as a list); folded on the fly
    # it never exists as one
    g = grid(4, 4, ues=20_000)
    tracemalloc.start()
    try:
        sweep(g, duration_min=2, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("costs", [
    {"c_intra": 0}, {"c_intra": -15}, {"c_inter": 0}, {"c_inter": -50},
    {"c_intra": math.nan}, {"c_inter": math.inf},
])
def test_sweep_rejects_nonpositive_costs(costs):
    name, = costs
    g = grid(4, 4, ues=50)
    with pytest.raises(ValueError, match=name):
        sweep(g, **costs)


@pytest.mark.parametrize("ues", [MAX_WALK_DRAWS, 1_000_000_000])
def test_walk_above_the_draw_bound_is_rejected(ues):
    g = grid(4, 4, ues=ues)
    with pytest.raises(ValueError, match="ue_count .* duration_min"):
        move_counts(g, 10, 0)


@pytest.mark.parametrize("duration_min", [0, -1, math.nan, math.inf, 1e12])
def test_sweep_rejects_bad_duration(duration_min):
    # a NaN mean never ends the Poisson draw
    g = grid(4, 4, ues=5)
    with pytest.raises(ValueError, match="duration_min"):
        sweep(g, duration_min=duration_min)
