"""
Monte Carlo of control-message load versus anchor deployment density.

Devices random-walk over a base-station grid; anchors each serve one
square block of stations. A handover that crosses an anchor boundary
costs more control messages than one that stays inside a block, so
denser anchor deployments (more, smaller blocks) inflate total control
messaging. Movement depends only on the seed, so sweeping the anchor
count over the same seed isolates the boundary-crossing effect.

The trace is walked once, in one loop over integer station ids, and
folded as it goes into a histogram of directed station moves
(`move_counts`); each density then counts the histogram's entries that
cross a block boundary (`classify_moves`). The cost of a density does
not grow with the number of UEs or moves.
"""
import math
import random
from collections import Counter
from dataclasses import dataclass

# per-handover message costs: a plain handover vs one that also
# relocates the serving anchor (session-continuity signaling)
DEFAULT_C_INTRA = 15
DEFAULT_C_INTER = 50

# `move_counts` keeps a neighbour table, four edge slots and up to four
# histogram entries per station: a 500x500 grid whose every edge is used
# peaks at about 150 MB
MAX_STATIONS = 250_000
# the walk draws a start for each UE and a step for each move, about
# 0.25 µs apiece (2 shared CPUs, Python 3.11.7): a trace at the bound
# takes about 2.5 s on a 4x4 grid
MAX_WALK_DRAWS = 10_000_000


class TilingError(ValueError):
    pass


class EmptyTraceError(ValueError):
    """The mobility trace has no handovers, so no ratio is defined."""


@dataclass
class GridNetwork:
    width: int
    height: int
    ue_count: int
    handover_rate_per_min: float = 5.0

    def __post_init__(self):
        # a handover needs a neighbour station to move to
        if min(self.width, self.height) < 1 or self.width * self.height < 2:
            raise ValueError("grid must have at least two stations,"
                             f" got {self.width}x{self.height}")
        if self.width * self.height > MAX_STATIONS:
            raise ValueError(f"grid must have at most {MAX_STATIONS}"
                             f" stations, got {self.width}x{self.height}")
        if self.ue_count < 1:
            raise ValueError(
                f"ue_count must be at least 1, got {self.ue_count}")
        if not 0 < self.handover_rate_per_min < math.inf:
            raise ValueError("handover_rate_per_min must be positive and"
                             f" finite, got {self.handover_rate_per_min}")


@dataclass
class SweepPoint:
    k: int
    anchors_per_station: float
    total_handovers: int
    inter_anchor: int
    total_messages: int


def block_size(grid, k):
    """Side length of each anchor's square block; k must tile the grid."""
    if k < 1:
        raise TilingError(f"k={k} must be at least 1")
    side = math.isqrt(k)
    if side * side != k:
        raise TilingError(f"k={k} is not a perfect square")
    if grid.width % side or grid.height % side:
        raise TilingError(f"k={k} does not tile a {grid.width}x{grid.height} grid")
    return grid.width // side, grid.height // side


def _neighbors(x, y, w, h):
    out = []
    if x > 0:
        out.append((x - 1, y))
    if x < w - 1:
        out.append((x + 1, y))
    if y > 0:
        out.append((x, y - 1))
    if y < h - 1:
        out.append((x, y + 1))
    return out


def move_counts(grid, duration_min, seed):
    """The mobility trace folded into a directed-edge histogram
    {(from, to): count}: at most 4*W*H entries, whatever the UE count.
    Independent of any anchor layout, so one trace serves every density.

    The trace: each UE starts at a uniform random station, makes a
    Poisson number of handovers, and moves each time to a uniform random
    neighbor (reflecting boundaries). Station (x, y) is numbered
    i = x*height + y, and a move from i to its r-th neighbor in
    `_neighbors` order adds one to the edge slot 4*i + r. Every index
    below n, the start's x and y and each neighbor index, is drawn as
    `Random.randrange` and `Random.choice` draw it
    (`_randbelow_with_getrandbits`: n.bit_length() bits, redrawn while
    >= n), so the trace is the one `rng.randrange(width)`,
    `rng.randrange(height)` and `rng.choice(neighbors)` would give."""
    draws = grid.ue_count * (1 + grid.handover_rate_per_min * duration_min)
    if not draws <= MAX_WALK_DRAWS:
        raise ValueError(
            "ue_count * (1 + handover_rate_per_min * duration_min) must be"
            f" at most {MAX_WALK_DRAWS}, got {grid.ue_count} * (1 +"
            f" {grid.handover_rate_per_min} * {duration_min})")
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    w, h = grid.width, grid.height
    kw, kh = w.bit_length(), h.bit_length()
    mean = grid.handover_rate_per_min * duration_min
    # per station: (neighbor ids, their count n, n.bit_length(), 4*i)
    steps = []
    for x in range(w):
        for y in range(h):
            ids = tuple(nx * h + ny for nx, ny in _neighbors(x, y, w, h))
            steps.append((ids, len(ids), len(ids).bit_length(),
                          4 * len(steps)))
    slots = [0] * (4 * w * h)
    for _ in range(grid.ue_count):
        x = getrandbits(kw)
        while x >= w:
            x = getrandbits(kw)
        y = getrandbits(kh)
        while y >= h:
            y = getrandbits(kh)
        ids, n, k, base = steps[x * h + y]
        for _ in range(_poisson(rng, mean)):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            slots[base + r] += 1
            ids, n, k, base = steps[ids[r]]
    stations = [(x, y) for x in range(w) for y in range(h)]
    counts = Counter()
    for here, (ids, _, _, base) in zip(stations, steps):
        for r, j in enumerate(ids):
            if slots[base + r]:
                counts[here, stations[j]] = slots[base + r]
    return counts


def _poisson(rng, mean):
    # inversion by sequential search is too slow for large means; use the
    # normal approximation beyond a cutoff (mean >= 30)
    if mean >= 30:
        return max(0, round(rng.gauss(mean, math.sqrt(mean))))
    limit = math.exp(-mean)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def classify_moves(counts, grid, k):
    """Count boundary-crossing handovers in a `move_counts` histogram for
    an anchor count k."""
    bw, bh = block_size(grid, k)
    inter = 0
    for ((x0, y0), (x1, y1)), n in counts.items():
        if x0 // bw != x1 // bw or y0 // bh != y1 // bh:
            inter += n
    return inter


def _density_point(grid, k, counts, c_intra, c_inter):
    inter = classify_moves(counts, grid, k)
    total = sum(counts.values())
    messages = (total - inter) * c_intra + inter * c_inter
    return SweepPoint(k=k, anchors_per_station=k / (grid.width * grid.height),
                      total_handovers=total, inter_anchor=inter,
                      total_messages=messages)


def default_densities(grid):
    """Nested square tilings from one anchor up to one per station."""
    out = []
    side = 1
    while side <= min(grid.width, grid.height):
        if grid.width % side == 0 and grid.height % side == 0:
            out.append(side * side)
        side += 1
    return out


def sweep(grid, densities=None, duration_min=10, seed=0,
          c_intra=DEFAULT_C_INTRA, c_inter=DEFAULT_C_INTER):
    """Run every density on the same mobility trace; returns the points
    and the message ratio normalized to the single-anchor deployment."""
    # a NaN duration would never end the Poisson draw
    for name, value in (("duration_min", duration_min), ("c_intra", c_intra),
                        ("c_inter", c_inter)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if densities is None:
        densities = default_densities(grid)
    counts = move_counts(grid, duration_min, seed)
    if not counts:
        raise EmptyTraceError("no handovers in the trace; raise ue_count,"
                              " handover_rate_per_min or duration_min")
    points = [_density_point(grid, k, counts, c_intra, c_inter)
              for k in densities]
    base = sum(counts.values()) * c_intra  # one anchor: no move crosses
    ratios = [p.total_messages / base for p in points]
    return points, ratios


def to_csv_rows(points, ratios):
    """(k, anchors_per_station, handovers, inter, messages, ratio_vs_k1)."""
    return [(p.k, p.anchors_per_station, p.total_handovers, p.inter_anchor,
             p.total_messages, round(r, 6))
            for p, r in zip(points, ratios)]
