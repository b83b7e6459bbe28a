"""
Core-placement optimization, population-coverage curves, and the
deployment cost comparison.

A county is served if the chain county -> core -> peering PoP -> CDN fits
within a distance budget; cores may only sit at PoPs. The edge-routed
architecture needs no core leg at all, so its coverage is the limit the
anchored architecture only reaches by deploying a core at every PoP.
Placement under a core budget uses greedy maximum population coverage.

Most county x site distances are never computed. A great-circle arc is
never shorter than R * |delta latitude|, with equality on a meridian, so a
pair whose latitude bound already exceeds what the chain may still spend
(the budget less the rest of the chain, or the best chain found so far)
cannot fit, or cannot be the shortest. `_reach` tests only the points in
a site's latitude window and `_nearest` skips such hops. Both keep
`_SLACK_KM` in hand, so every set and every float they return is the
one computing every distance gives.
"""
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from math import asin, sin, sqrt

EARTH_RADIUS_KM = 6371.0
# What a latitude bound must exceed the remaining budget by before a pair
# is skipped. `_arc_km`'s h is sin^2(delta lat / 2) plus a term that is
# never negative, so its computed arc is at least R * |delta latitude|
# less float error: a few ulps of a value under 20,016 km, except near
# the antipodal clamp, where asin's slope turns a few ulps of sqrt(h) into
# a few 1e-8 radians, under a metre of arc. The bound and the window carry
# errors of a few ulps more. One km dwarfs all of it, so a skipped pair's
# computed chain is above the budget, or above the running minimum.
_SLACK_KM = 1.0


@dataclass(frozen=True)
class County:
    fips: str
    name: str
    lat: float
    lon: float
    population: int

    def __post_init__(self):
        _check_coords(self.lat, self.lon)
        # with a NaN population coverage is NaN, and greedy places nothing
        if type(self.population) is not int or self.population < 0:
            raise ValueError("population must be a nonnegative int, got"
                             f" {self.population!r}")


@dataclass(frozen=True)
class SitePoint:
    id: str
    lat: float
    lon: float

    def __post_init__(self):
        _check_coords(self.lat, self.lon)


@dataclass
class CostModel:
    core_site_cost: float = 2_750_000.0
    border_router_cost: float = 200_000.0

    def __post_init__(self):
        if self.core_site_cost <= 0 or self.border_router_cost <= 0:
            raise ValueError("costs must be positive")


@dataclass
class Deployment:
    core_sites: list
    marginal_populations: list = field(default_factory=list)


def _check_coords(lat, lon):
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat} out of range")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon} out of range")


def _check_budget_km(budget_km):
    # `not >=` also refuses NaN; math.inf stays valid, everything fits it
    if not budget_km >= 0:
        raise ValueError(f"budget_km must be >= 0, got {budget_km!r}")


def _rad(point):
    """A (lat, lon) point in degrees as (lat, lon, cos(lat)) in radians:
    what `_arc_km` reads, computed once per point."""
    lat = math.radians(point[0])
    return (lat, math.radians(point[1]), math.cos(lat))


def _arc_km(a, b):
    """Great-circle distance in km between two `_rad` points."""
    lat1, lon1, cos1 = a
    lat2, lon2, cos2 = b
    h = (sin((lat2 - lat1) / 2) ** 2
         + cos1 * cos2 * sin((lon2 - lon1) / 2) ** 2)
    return 2 * EARTH_RADIUS_KM * asin(min(1.0, sqrt(h)))


def haversine_km(a, b):
    """Great-circle distance between two (lat, lon) points in km."""
    return _arc_km(_rad(a), _rad(b))


def _coords(p):
    return _rad((p.lat, p.lon))


def _hops(pops, cdns, cores=None):
    """[(site point, shortest rest of the chain from that site)]: each PoP
    with its PoP -> CDN leg or, given cores, each core with its
    core -> PoP -> CDN tail. Each point and each leg is computed once per
    call."""
    if not pops or not cdns:
        raise ValueError("pops and cdns must be nonempty")
    if cores is not None and not cores:
        raise ValueError("cores must be nonempty")
    ends = [(_coords(cdn), 0.0) for cdn in cdns]
    legs = [(site, _nearest(site, ends)) for site in map(_coords, pops)]
    if cores is None:
        return legs
    return [(site, _nearest(site, legs)) for site in map(_coords, cores)]


def _nearest(point, hops):
    """Shortest chain from point through one of hops.

    A hop whose bound R * |delta latitude| + rest exceeds the best chain
    so far by more than `_SLACK_KM` has a computed chain longer than that
    best, so its arc is not computed and the minimum is the same float.
    """
    lat = point[0]
    best = cut = math.inf
    for site, rest in hops:
        if EARTH_RADIUS_KM * abs(site[0] - lat) + rest <= cut:
            chain = _arc_km(point, site) + rest
            if chain < best:
                best = chain
                cut = best + _SLACK_KM
    return best


def _by_lat(points):
    """(ascending latitudes, [(index, point)] in the same order) of a list
    of `_rad` points: what `_reach` bisects, sorted once per call."""
    lats = [point[0] for point in points]
    order = sorted(range(len(points)), key=lats.__getitem__)
    return [lats[i] for i in order], [(i, points[i]) for i in order]


def _reach(by_lat, site, rest, budget_km):
    """Indices of the points whose chain through site, with rest beyond
    it, fits the budget.

    Only the points with R * |delta latitude| <= budget - rest +
    `_SLACK_KM` are tested: any other point's arc is longer than
    budget - rest. Since an arc is never negative, rest > budget
    reaches nothing.
    """
    if rest > budget_km:
        return set()
    lats, ranked = by_lat
    half = (budget_km - rest + _SLACK_KM) / EARTH_RADIUS_KM
    lat = site[0]
    window = ranked[bisect_left(lats, lat - half):
                    bisect_right(lats, lat + half)]
    return {i for i, point in window
            if _arc_km(point, site) + rest <= budget_km}


def chain_km(start, pops, cdns, cores=None):
    """Shortest start -> core -> PoP -> CDN chain over the given cores, or
    start -> PoP -> CDN without cores (no core leg)."""
    return _nearest(_coords(start), _hops(pops, cdns, cores))


def coverage(counties, budget_km, deployment=None, pops=None, cdns=None):
    """Fraction of population whose chain fits the distance budget.

    With a deployment: anchored-architecture coverage. Without one:
    edge-routed coverage (every PoP is an egress). The shortest chain fits
    iff some hop's chain fits, so the covered set is the union of the
    hops' coverable sets.
    """
    _check_budget_km(budget_km)
    total = sum(c.population for c in counties)
    if total == 0:
        return 0.0
    cores = None if deployment is None else deployment.core_sites
    if cores is not None and not cores:
        return 0.0
    points = _by_lat([_coords(county) for county in counties])
    covered = set().union(*(_reach(points, site, rest, budget_km)
                            for site, rest in _hops(pops, cdns, cores)))
    return sum(county.population for i, county in enumerate(counties)
               if i in covered) / total


def greedy_place(counties, pops, cdns, core_budget, budget_km):
    """Greedy maximum-coverage placement of cores at PoPs.

    Adds the PoP with the largest newly covered population each round;
    ties break by PoP id. Stops early when no site adds coverage.
    """
    if type(core_budget) is not int or core_budget < 1:
        raise ValueError(
            f"core_budget must be an int >= 1, got {core_budget!r}")
    _check_budget_km(budget_km)
    # no PoPs means nothing to place, not an error
    hops = _hops(pops, cdns, pops) if pops else []
    points = _by_lat([_coords(county) for county in counties])
    coverable = {p.id: _reach(points, site, rest, budget_km)
                 for p, (site, rest) in zip(pops, hops)}

    chosen = []
    marginals = []
    covered = set()
    remaining = {p.id: p for p in pops}
    for _ in range(core_budget):
        best_id, best_gain = None, 0
        for pid in sorted(remaining):
            gain = sum(counties[i].population
                       for i in coverable[pid] - covered)
            if gain > best_gain:
                best_id, best_gain = pid, gain
        if best_id is None:
            break
        chosen.append(remaining.pop(best_id))
        covered |= coverable[best_id]
        marginals.append(best_gain)
    return Deployment(core_sites=chosen, marginal_populations=marginals)


def cost_compare(model, n_cores, n_pops, include_router_costs=False):
    """(anchored cost, edge-routed cost, savings fraction).

    Anchored: core sites at full price. Edge-routed: border routers only.
    """
    cost_3gpp = n_cores * model.core_site_cost
    if include_router_costs:
        cost_3gpp += n_pops * model.border_router_cost
    cost_encor = n_pops * model.border_router_cost
    savings = 1.0 - cost_encor / cost_3gpp if cost_3gpp > 0 else 0.0
    return cost_3gpp, cost_encor, savings
