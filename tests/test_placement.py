import itertools
import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from encorsim import placement
from encorsim.datasets import generate_synthetic
from encorsim.placement import (
    EARTH_RADIUS_KM, CostModel, County, Deployment, SitePoint, chain_km,
    cost_compare, coverage, greedy_place, haversine_km,
)
from encorsim.placement import (
    _SLACK_KM, _arc_km, _by_lat, _nearest, _rad, _reach,
)


def _county(fips, lat, lon, pop=1000):
    return County(fips=fips, name=f"c{fips}", lat=lat, lon=lon, population=pop)


def _pop(i, lat, lon):
    return SitePoint(id=f"pop{i}", lat=lat, lon=lon)


def _cdn(i, lat, lon):
    return SitePoint(id=f"cdn{i}", lat=lat, lon=lon)


def test_haversine_known_values():
    # quarter circumference: pole to equator
    assert haversine_km((90, 0), (0, 0)) == \
        pytest.approx(math.pi / 2 * 6371, rel=1e-3)
    # antipodes: half circumference
    assert haversine_km((0, 0), (0, 180)) == \
        pytest.approx(math.pi * 6371, rel=1e-3)
    assert haversine_km((37.0, -122.0), (37.0, -122.0)) == 0.0


def test_haversine_symmetry_and_triangle():
    rng = random.Random(0)
    for _ in range(50):
        a = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        b = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        c = (rng.uniform(-90, 90), rng.uniform(-180, 180))
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a))
        assert haversine_km(a, c) <= \
            haversine_km(a, b) + haversine_km(b, c) + 1e-6


def _textbook_km(a, b):
    """Reference: the haversine formula with each coordinate's radians and
    both cosines computed in every call."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = (math.sin(dlat / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2)
    return 2 * 6371.0 * math.asin(min(1.0, math.sqrt(h)))


POINT = st.tuples(st.floats(-90, 90) | st.sampled_from([-90.0, 90.0]),
                  st.floats(-180, 180) | st.sampled_from([-180.0, 180.0]))


@given(POINT, POINT)
@example((90.0, 0.0), (-90.0, 0.0))  # pole to pole
@example((0.0, 180.0), (0.0, -180.0))  # one meridian, both signs
@example((10.0, 179.999), (10.0, -179.999))  # across the antimeridian
@example((0.0, 0.0), (0.0, 180.0))  # antipodes: h is 1, the clamp's edge
def test_per_point_trig_gives_the_same_float(a, b):
    # == on purpose: a county on the budget edge flips on one ulp
    expect = _textbook_km(a, b)
    assert _arc_km(_rad(a), _rad(b)) == expect
    assert haversine_km(a, b) == expect


def test_coordinate_validation():
    with pytest.raises(ValueError):
        _county("1", 91.0, 0.0)
    with pytest.raises(ValueError):
        _pop(1, 0.0, 181.0)
    with pytest.raises(ValueError):
        County("1", "x", 0.0, 0.0, -5)


@pytest.mark.parametrize("population", [-5, math.nan, 2.5, 1.0, True])
def test_county_refuses_a_population_that_is_not_an_int_of_at_least_0(
        population):
    # a NaN county makes coverage NaN, and greedy_place places nothing
    with pytest.raises(ValueError, match="population"):
        County("1", "x", 0.0, 0.0, population)
    assert County("1", "x", 0.0, 0.0, 0).population == 0


def _random_instance(seed, n_counties=6, n_pops=4, n_cdns=3):
    rng = random.Random(seed)
    box = lambda: (rng.uniform(30, 45), rng.uniform(-120, -75))
    counties = [_county(str(i), *box(), pop=rng.randrange(1, 10_000))
                for i in range(n_counties)]
    pops = [_pop(i, *box()) for i in range(n_pops)]
    cdns = [_cdn(i, *box()) for i in range(n_cdns)]
    return counties, pops, cdns


def test_chain_distances_match_brute_force_oracle():
    counties, pops, cdns = _random_instance(1)
    cores = pops[:2]
    for county in counties:
        # oracle: enumerate every full chain explicitly
        expect_3gpp = min(
            haversine_km((county.lat, county.lon), (core.lat, core.lon))
            + haversine_km((core.lat, core.lon), (p.lat, p.lon))
            + haversine_km((p.lat, p.lon), (c.lat, c.lon))
            for core in cores for p in pops for c in cdns)
        assert chain_km(county, pops, cdns, cores) == \
            pytest.approx(expect_3gpp)
        expect_encor = min(
            haversine_km((county.lat, county.lon), (p.lat, p.lon))
            + haversine_km((p.lat, p.lon), (c.lat, c.lon))
            for p in pops for c in cdns)
        assert chain_km(county, pops, cdns) == \
            pytest.approx(expect_encor)


def test_edge_routed_chain_never_longer_than_anchored():
    for seed in range(5):
        counties, pops, cdns = _random_instance(seed)
        for county in counties:
            assert chain_km(county, pops, cdns) <= \
                chain_km(county, pops, cdns, pops) + 1e-9


def test_core_at_every_pop_matches_edge_routed_coverage():
    counties, pops, cdns = _random_instance(2)
    everywhere = Deployment(core_sites=list(pops))
    for budget in (200, 500, 1000, 3000):
        anchored = coverage(counties, budget, everywhere, pops, cdns)
        edge = coverage(counties, budget, None, pops, cdns)
        assert anchored <= edge + 1e-9


def test_coverage_monotone_in_budget():
    counties, pops, cdns = _random_instance(3)
    budgets = [100, 300, 600, 1200, 2400, 5000]
    covs = [coverage(counties, b, None, pops, cdns) for b in budgets]
    assert covs == sorted(covs)
    assert covs[-1] == 1.0


def test_coverage_empty_inputs():
    _, pops, cdns = _random_instance(0)
    assert coverage([], 1000, None, pops, cdns) == 0.0
    counties = [_county("1", 40, -100)]
    assert coverage(counties, 1000, Deployment(core_sites=[]), pops, cdns) == 0.0


def test_best_tail_brute_force():
    _, pops, cdns = _random_instance(4)
    core = pops[0]
    expect = min(
        haversine_km((core.lat, core.lon), (p.lat, p.lon))
        + haversine_km((p.lat, p.lon), (c.lat, c.lon))
        for p in pops for c in cdns)
    assert chain_km(core, pops, cdns) == pytest.approx(expect)


def test_chain_km_rejects_empty_cores():
    counties, pops, cdns = _random_instance(0)
    with pytest.raises(ValueError, match="cores must be nonempty"):
        chain_km(counties[0], pops, cdns, cores=[])


def _exhaustive_best(counties, pops, cdns, core_budget, budget_km):
    best = 0.0
    for subset in itertools.combinations(pops, core_budget):
        cov = coverage(counties, budget_km,
                       Deployment(core_sites=list(subset)), pops, cdns)
        best = max(best, cov)
    return best


def test_greedy_close_to_exhaustive_optimum():
    # greedy max coverage carries the classic (1 - 1/e) guarantee; on
    # these small instances it should land within that bound easily
    for seed in range(4):
        counties, pops, cdns = _random_instance(seed, n_counties=12, n_pops=6)
        budget_km = 900
        dep = greedy_place(counties, pops, cdns, 3, budget_km)
        got = coverage(counties, budget_km, dep, pops, cdns)
        best = _exhaustive_best(counties, pops, cdns, 3, budget_km)
        assert got >= (1 - 1 / math.e) * best - 1e-9


def test_greedy_marginal_gains_diminish():
    counties, pops, cdns = _random_instance(5, n_counties=20, n_pops=8)
    dep = greedy_place(counties, pops, cdns, 8, 1200)
    gains = dep.marginal_populations
    assert gains == sorted(gains, reverse=True)


def test_greedy_stops_when_nothing_left_to_gain():
    counties, pops, cdns = _random_instance(6)
    dep = greedy_place(counties, pops, cdns, len(pops) + 5, 5000)
    assert len(dep.core_sites) <= len(pops)
    covered = coverage(counties, 5000, dep, pops, cdns)
    full = coverage(counties, 5000, Deployment(list(pops)), pops, cdns)
    assert covered == pytest.approx(full)


def test_greedy_tie_break_is_by_pop_id():
    # two PoPs at the same point cover identical populations; the
    # lexicographically smaller id must win
    counties = [_county("1", 40.0, -100.0, pop=100)]
    pops = [_pop(2, 40.0, -100.0), _pop(1, 40.0, -100.0)]
    cdns = [_cdn(1, 40.0, -100.0)]
    dep = greedy_place(counties, pops, cdns, 1, 100)
    assert dep.core_sites[0].id == "pop1"


def test_greedy_with_no_pops_places_nothing():
    counties, _, cdns = _random_instance(7)
    dep = greedy_place(counties, [], cdns, 2, 500)
    assert dep.core_sites == [] and dep.marginal_populations == []


def test_greedy_rejects_zero_budget():
    counties, pops, cdns = _random_instance(7)
    with pytest.raises(ValueError):
        greedy_place(counties, pops, cdns, 0, 500)


def test_cost_compare_arithmetic():
    model = CostModel()
    cost_anchored, cost_edge, savings = cost_compare(model, 10, 10)
    assert cost_anchored == 27_500_000
    assert cost_edge == 2_000_000
    assert cost_anchored - cost_edge == 25_500_000
    assert savings == pytest.approx(1 - 2_000_000 / 27_500_000)
    assert savings >= 0.90


def test_cost_compare_with_router_costs_on_both_sides():
    model = CostModel()
    cost_anchored, cost_edge, _ = cost_compare(model, 10, 10,
                                               include_router_costs=True)
    assert cost_anchored == 27_500_000 + 2_000_000
    assert cost_edge == 2_000_000


def test_cost_model_rejects_nonpositive():
    with pytest.raises(ValueError):
        CostModel(core_site_cost=0)


def _h(a, b):
    return haversine_km((a.lat, a.lon), (b.lat, b.lon))


def _oracle_chain(start, cores, pops, cdns):
    # every full chain, summed start leg + (core leg + CDN leg) so the
    # float result is the one the nested minima give
    if cores is None:
        return min(_h(start, p) + _h(p, c) for p in pops for c in cdns)
    return min(_h(start, core) + (_h(core, p) + _h(p, c))
               for core in cores for p in pops for c in cdns)


def _oracle_greedy(counties, pops, cdns, core_budget, budget_km):
    coverable = {p.id: {i for i, county in enumerate(counties)
                        if _oracle_chain(county, [p], pops, cdns) <= budget_km}
                 for p in pops}
    chosen, marginals, covered = [], [], set()
    for _ in range(core_budget):
        gains = {pid: sum(counties[i].population for i in ids - covered)
                 for pid, ids in coverable.items() if pid not in chosen}
        best = max(sorted(gains), key=lambda pid: gains[pid], default=None)
        if best is None or gains[best] == 0:
            break
        chosen.append(best)
        marginals.append(gains[best])
        covered |= coverable[best]
    return chosen, marginals


@pytest.mark.parametrize("seed", range(8))
def test_chain_values_equal_brute_force_exactly(seed):
    counties, pops, cdns = _random_instance(seed, n_counties=12, n_pops=6)
    total = sum(c.population for c in counties)
    # cores at PoPs, and off-PoP cores whose core leg is never zero, so a
    # different summation order would show in the last bits
    deployments = (pops[seed % 3:seed % 3 + 3], counties[:3])
    for site in pops + counties:
        assert chain_km(site, pops, cdns) == \
            _oracle_chain(site, None, pops, cdns)
    for cores in deployments:
        for county in counties:
            assert chain_km(county, pops, cdns, cores) == \
                _oracle_chain(county, cores, pops, cdns)
    # budgets equal to a county's exact chain: `<=` admits that county,
    # and a distance one ulp longer would not
    ties = (_oracle_chain(counties[0], None, pops, cdns),
            _oracle_chain(counties[1], pops[:1], pops, cdns))
    for budget_km in (600.0, 1200.0, 2400.0) + ties:
        for cores in (None,) + deployments:
            expect = sum(c.population for c in counties
                         if _oracle_chain(c, cores, pops, cdns) <= budget_km)
            dep = None if cores is None else Deployment(core_sites=cores)
            assert coverage(counties, budget_km, dep, pops, cdns) == \
                expect / total
        dep = greedy_place(counties, pops, cdns, 4, budget_km)
        assert ([site.id for site in dep.core_sites],
                dep.marginal_populations) == \
            _oracle_greedy(counties, pops, cdns, 4, budget_km)


# The latitude pruning: `_reach` tests only the points inside a site's
# latitude window and `_nearest` skips the hops its bound rules out. The
# every-pair copies below are the functions as they were before it; the
# pruned ones must give the same sets and the same floats.

def _reach_every_pair(points, site, rest, budget_km):
    return {i for i, point in enumerate(points)
            if _arc_km(point, site) + rest <= budget_km}


def _nearest_every_hop(point, hops):
    return min(_arc_km(point, site) + rest for site, rest in hops)


def _check_pruning(points, hops, budgets):
    """Each hop's coverable set at each budget, at the budgets that tie a
    point's chain exactly, and each point's nearest chain, against the
    every-pair copies. Returns the sizes of the sets that were compared."""
    by_lat = _by_lat(points)
    sizes = []
    for site, rest in hops:
        ties = [_arc_km(point, site) + rest for point in points]
        for budget_km in list(budgets) + ties:
            got = _reach(by_lat, site, rest, budget_km)
            assert got == _reach_every_pair(points, site, rest, budget_km)
            sizes.append(len(got))
    for point in points:
        assert _nearest(point, hops) == _nearest_every_hop(point, hops)
    return sizes


def _meridian(lat, lon, km):
    """The point `km` north (south if negative) of (lat, lon) along its
    meridian, where the latitude bound equals the arc."""
    return _rad((lat + math.degrees(km / EARTH_RADIUS_KM), lon))


def test_pruning_is_exact_where_the_latitude_bound_is_tight():
    # counties on the PoP's meridian at budget - rest, some ulps and some
    # fractions of the slack either side, and just beyond the slack
    site, rest, budget_km = _rad((40.0, -100.0)), 123.456, 700.0
    edge = budget_km - rest
    points = [_meridian(40.0, -100.0, sign * (edge + off))
              for sign in (1, -1)
              for off in (-1.5, -0.5, -1e-9, 0.0, 1e-9, 0.5, 0.99, 1.5)]
    lats = [p[0] for p in points]
    points += [(math.nextafter(lat, d), p[1], p[2])
               for lat, p in zip(lats, points) for d in (-1.0, 1.0)]
    hops = [(site, rest), (site, 0.0), (_meridian(40.0, -100.0, 250.0), 40.0)]
    sizes = _check_pruning(points, hops, (budget_km, edge, 0.0, math.inf))
    # the fixed budget splits the edge points: some fit, some do not
    fit = _reach(_by_lat(points), site, rest, budget_km)
    assert 0 < len(fit) < len(points)
    assert max(sizes) == len(points) and min(sizes) == 0


def test_rest_beyond_budget_reaches_nothing_and_inf_reaches_all():
    points = [_rad((lat, lon)) for lat in (-60.0, 0.0, 35.0, 89.0)
              for lon in (-170.0, 0.0, 120.0)]
    by_lat = _by_lat(points)
    site = points[5]
    assert _reach(by_lat, site, 500.0, 499.0) == set()
    assert _reach(by_lat, site, 500.0, 500.0) == {5}
    assert _reach(by_lat, site, 0.0, 0.0) == {5}
    assert _reach(by_lat, site, 0.0, -0.0) == {5}
    assert _reach(by_lat, site, 1e6, math.inf) == set(range(len(points)))
    _check_pruning(points, [(site, 500.0), (points[0], 0.0)],
                   (0.0, 499.0, 500.0, 501.0, math.inf))


def test_pruning_is_exact_at_the_poles_the_antimeridian_and_antipodes():
    half_turn = math.pi * EARTH_RADIUS_KM
    points = [_rad(p) for p in (
        (90.0, 0.0), (89.9, -180.0), (89.9, -90.0), (89.9, 90.0),
        (89.95, 180.0), (-90.0, 0.0), (-89.95, 45.0),  # around the poles
        (10.0, 179.999), (10.0, -179.999), (0.0, 180.0),  # antimeridian
        (0.0, 0.0), (0.001, -179.999), (-0.001, 0.001),  # antipodes
    )]
    hops = [(point, rest) for point in points for rest in (0.0, 37.5)]
    _check_pruning(points, hops, (0.0, 10.0, 100.0, half_turn - 1.0,
                                  half_turn, 2 * half_turn, math.inf))


_LAT = st.floats(-90, 90) | st.sampled_from([-90.0, 0.0, 90.0])
_LON = st.floats(-180, 180) | st.sampled_from([-180.0, 180.0])


@settings(max_examples=40, derandomize=True, deadline=None)
@given(points=st.lists(st.tuples(_LAT, _LON), min_size=1, max_size=10),
       rests=st.lists(st.floats(0, 3000), min_size=1, max_size=3),
       budgets=st.lists(st.floats(0, 25_000), max_size=3))
def test_pruning_is_exact_on_random_instances(points, rests, budgets):
    points = [_rad(p) for p in points]
    hops = [(point, rest) for point, rest in zip(points, rests)]
    _check_pruning(points, hops, budgets)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       budget_km=st.floats(0, 4000) | st.just(math.inf))
def test_greedy_and_coverage_match_the_oracles_on_random_instances(
        seed, budget_km):
    rng = random.Random(seed)
    point = lambda: (rng.uniform(-90, 90), rng.uniform(-180, 180))
    counties = [_county(str(i), *point(), pop=rng.randrange(1, 10_000))
                for i in range(8)]
    pops = [_pop(i, *point()) for i in range(4)]
    cdns = [_cdn(i, *point()) for i in range(2)]
    # also a budget that ties the first county's chain through pops[0]
    for budget in (budget_km, _oracle_chain(counties[0], pops[:1], pops,
                                            cdns)):
        dep = greedy_place(counties, pops, cdns, 3, budget)
        assert ([site.id for site in dep.core_sites],
                dep.marginal_populations) == \
            _oracle_greedy(counties, pops, cdns, 3, budget)
        total = sum(c.population for c in counties)
        expect = sum(c.population for c in counties
                     if _oracle_chain(c, None, pops, cdns) <= budget)
        assert coverage(counties, budget, None, pops, cdns) == expect / total


def _counted_arcs(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(1)
        return _arc_km(a, b)
    monkeypatch.setattr(placement, "_arc_km", counted)
    return calls


def test_pruning_skips_the_arcs_its_bound_rules_out(monkeypatch):
    counties, pops, cdns = generate_synthetic(
        0, n_counties=100, n_pops=24, n_cdns=12, n_clusters=60)
    points = [_rad((c.lat, c.lon)) for c in counties]
    by_lat = _by_lat(points)
    site, rest, budget_km = _rad((pops[0].lat, pops[0].lon)), 100.0, 800.0
    inside = sum(EARTH_RADIUS_KM * abs(p[0] - site[0])
                 <= budget_km - rest + _SLACK_KM for p in points)
    calls = _counted_arcs(monkeypatch)
    # one `_reach` computes arcs only for the points in its window
    fit = _reach(by_lat, site, rest, budget_km)
    assert len(calls) == inside < len(points)
    assert fit == _reach_every_pair(points, site, rest, budget_km)
    # one `_nearest` skips the hops whose bound exceeds its best chain
    hops = [(_rad((p.lat, p.lon)), 0.0) for p in pops]
    calls.clear()
    assert _nearest(points[0], hops) == _nearest_every_hop(points[0], hops)
    assert len(calls) < len(hops)
    # a whole greedy call computes fewer arcs than its county x PoP pairs
    calls.clear()
    greedy_place(counties, pops, cdns, 4, budget_km)
    assert len(calls) < len(counties) * len(pops)


@pytest.mark.slow
def test_pruning_is_exact_at_county_scale():
    # 3,000 counties x 100 PoPs: every pair computed once here, then at
    # each budget every core's coverable set, the greedy picks and the
    # edge coverage compared
    counties, pops, cdns = generate_synthetic(
        0, n_counties=3000, n_pops=100, n_cdns=20, n_clusters=60)
    points = [_rad((c.lat, c.lon)) for c in counties]
    sites = [_rad((p.lat, p.lon)) for p in pops]
    ends = [(_rad((c.lat, c.lon)), 0.0) for c in cdns]
    legs = [_nearest_every_hop(site, ends) for site in sites]
    tails = [_nearest_every_hop(site, list(zip(sites, legs)))
             for site in sites]
    arcs = [[_arc_km(point, site) for point in points] for site in sites]
    by_lat = _by_lat(points)
    total = sum(c.population for c in counties)
    for budget_km in (300.0, 800.0, 1500.0):
        edge, anchored = set(), {}
        for p, site, row, leg, tail in zip(pops, sites, arcs, legs, tails):
            edge.update(i for i, d in enumerate(row) if d + leg <= budget_km)
            anchored[p.id] = {i for i, d in enumerate(row)
                              if d + tail <= budget_km}
            assert _reach(by_lat, site, tail, budget_km) == anchored[p.id]
        assert coverage(counties, budget_km, None, pops, cdns) == \
            sum(counties[i].population for i in edge) / total
        chosen, marginals, covered = [], [], set()
        for _ in range(3):
            gains = {pid: sum(counties[i].population
                              for i in ids - covered)
                     for pid, ids in anchored.items() if pid not in chosen}
            best = max(sorted(gains), key=gains.get)
            if gains[best] == 0:
                break
            chosen.append(best)
            marginals.append(gains[best])
            covered |= anchored[best]
        dep = greedy_place(counties, pops, cdns, 3, budget_km)
        assert ([site.id for site in dep.core_sites],
                dep.marginal_populations) == (chosen, marginals)


_SMALL = generate_synthetic(0, n_counties=30, n_pops=8, n_cdns=4,
                            n_clusters=10)


@pytest.mark.parametrize("call, message", [
    (lambda c, p, d: greedy_place(c, p, d, 2, math.nan),
     "budget_km must be >= 0, got nan"),
    (lambda c, p, d: greedy_place(c, p, d, 2, -5.0),
     "budget_km must be >= 0, got -5.0"),
    (lambda c, p, d: coverage(c, math.nan, None, p, d),
     "budget_km must be >= 0, got nan"),
    (lambda c, p, d: coverage(c, -5.0, Deployment(p[:2]), p, d),
     "budget_km must be >= 0, got -5.0"),
    (lambda c, p, d: coverage([], -5.0, None, p, d),
     "budget_km must be >= 0, got -5.0"),
    (lambda c, p, d: greedy_place(c, p, d, 2.5, 800.0),
     "core_budget must be an int >= 1, got 2.5"),
    (lambda c, p, d: greedy_place(c, p, d, True, 800.0),
     "core_budget must be an int >= 1, got True"),
    (lambda c, p, d: greedy_place(c, [], d, 0, 800.0),
     "core_budget must be an int >= 1, got 0"),
], ids=["greedy-nan", "greedy-negative", "edge-nan", "anchored-negative",
        "no-counties-negative", "fractional-cores", "bool-cores",
        "zero-cores-no-pops"])
def test_placement_refuses_a_budget_that_gives_no_answer(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*_SMALL)


def test_placement_takes_budgets_zero_and_inf():
    counties, pops, cdns = _SMALL
    assert coverage(counties, math.inf, None, pops, cdns) == 1.0
    dep = greedy_place(counties, pops, cdns, 2, math.inf)
    assert dep.marginal_populations == [sum(c.population for c in counties)]
    assert coverage(counties, 0.0, None, pops, cdns) == 0.0
    assert greedy_place(counties, pops, cdns, 2, 0).core_sites == []
