"""
Core-placement optimization, population-coverage curves, and the
deployment cost comparison.

A county is served if the chain county -> core -> peering PoP -> CDN fits
within a distance budget; cores may only sit at PoPs. The edge-routed
architecture needs no core leg at all, so its coverage is the limit the
anchored architecture only reaches by deploying a core at every PoP.
Placement under a core budget uses greedy maximum population coverage.
"""
import enum
import math
from dataclasses import dataclass, field

EARTH_RADIUS_KM = 6371.0


class SiteKind(str, enum.Enum):
    PEERING_POP = "PeeringPoP"
    CDN_POP = "CdnPoP"


@dataclass(frozen=True)
class County:
    fips: str
    name: str
    lat: float
    lon: float
    population: int

    def __post_init__(self):
        _check_coords(self.lat, self.lon)
        if self.population < 0:
            raise ValueError("population must be nonnegative")


@dataclass(frozen=True)
class SitePoint:
    id: str
    kind: SiteKind
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


def haversine_km(a, b):
    """Great-circle distance between two (lat, lon) points in km."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = (math.sin(dlat / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2)
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def _coords(p):
    return (p.lat, p.lon)


def _cores(deployment):
    return deployment.core_sites if isinstance(deployment, Deployment) \
        else list(deployment)


def _legs(pops, cdns):
    """[(PoP point, shortest PoP -> CDN leg)], computed once per call."""
    if not pops or not cdns:
        raise ValueError("pops and cdns must be nonempty")
    return [(_coords(pop),
             min(haversine_km(_coords(pop), _coords(cdn)) for cdn in cdns))
            for pop in pops]


def _nearest(point, hops):
    """Shortest chain from point through one of hops, a list of (site,
    shortest rest of the chain from that site) pairs."""
    return min(haversine_km(point, site) + rest for site, rest in hops)


def _core_tails(cores, legs):
    """[(core point, shortest core -> PoP -> CDN tail)]."""
    return [(_coords(core), _nearest(_coords(core), legs)) for core in cores]


def best_tail_km(core, pops, cdns):
    """Shortest core -> PoP -> CDN continuation from a given core site, or
    from a county where there is no core leg."""
    return _nearest(_coords(core), _legs(pops, cdns))


def county_distance_3gpp(county, deployment, pops, cdns):
    """Shortest county -> core -> PoP -> CDN chain over a deployment."""
    cores = _cores(deployment)
    if not cores:
        raise ValueError("deployment must be nonempty")
    return _nearest(_coords(county), _core_tails(cores, _legs(pops, cdns)))


def county_distance_encor(county, pops, cdns):
    """Shortest county -> PoP -> CDN chain; no core leg."""
    return best_tail_km(county, pops, cdns)


def coverage(counties, budget_km, deployment=None, pops=None, cdns=None):
    """Fraction of population whose chain fits the distance budget.

    With a deployment: anchored-architecture coverage. Without one:
    edge-routed coverage (every PoP is an egress).
    """
    total = sum(c.population for c in counties)
    if total == 0:
        return 0.0
    if deployment is None:
        hops = _legs(pops, cdns)
    else:
        cores = _cores(deployment)
        if not cores:
            return 0.0
        hops = _core_tails(cores, _legs(pops, cdns))
    covered = sum(county.population for county in counties
                  if _nearest(_coords(county), hops) <= budget_km)
    return covered / total


def greedy_place(counties, pops, cdns, core_budget, budget_km):
    """Greedy maximum-coverage placement of cores at PoPs.

    Adds the PoP with the largest newly covered population each round;
    ties break by PoP id. Stops early when no site adds coverage.
    """
    if core_budget < 1:
        raise ValueError("core budget must be >= 1")
    # county i is coverable by core p iff d(county, p) + tail(p) <= budget;
    # no PoPs means nothing to place, not an error
    tails = _core_tails(pops, _legs(pops, cdns)) if pops else []
    points = [_coords(county) for county in counties]
    coverable = {}
    for p, (site, tail) in zip(pops, tails):
        coverable[p.id] = {i for i, point in enumerate(points)
                           if haversine_km(point, site) + tail <= budget_km}

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
