import itertools
import math
import random

import pytest
from hypothesis import example, given, strategies as st

from encorsim.placement import (
    CostModel, County, Deployment, SitePoint, chain_km,
    cost_compare, coverage, greedy_place, haversine_km,
)
from encorsim.placement import _arc_km, _rad


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
