import gc

import pytest

from encorsim.experiments import (
    LoadScenario, _run_load_point, run_load_sweep, run_message_table,
)


def test_message_table_core_assisted_counts():
    rows, traces = run_message_table("core-assisted")
    by_arch = {r.arch: r for r in rows}
    lte = by_arch["LTE"]
    assert (lte.network_total, lte.network_via_core) == (15, 15)
    assert (lte.total_min, lte.total_max) == (15, 15)
    encor = by_arch["EnCoR"]
    assert (encor.network_total, encor.network_via_core) == (7, 2)
    assert (encor.total_min, encor.total_max) == (7, 9)
    quic = by_arch["EnCoR+modQUIC"]
    assert (quic.network_total, quic.network_via_core) == (7, 2)
    assert (quic.total_min, quic.total_max) == (8, 10)


def test_message_table_direct_counts():
    rows, _ = run_message_table("direct")
    by_arch = {r.arch: r for r in rows}
    assert by_arch["EnCoR"].network_total == 6
    assert by_arch["EnCoR"].network_via_core == 0
    assert by_arch["EnCoR+modQUIC"].total_max == 9


def test_message_table_traces_back_the_rows():
    rows, traces = run_message_table("core-assisted")
    assert len(traces["lte"]) == 15
    assert len(traces["encor"]) == 7


def test_table_csv_rows():
    rows, _ = run_message_table()
    assert all(len(r.to_csv_row()) == 7 for r in rows)


def test_load_scenario_rejects_unsorted_rates():
    with pytest.raises(ValueError):
        LoadScenario(rates_per_s=(8, 4))


@pytest.mark.parametrize("kwargs", [
    {"rates_per_s": (0, 2)},
    {"rates_per_s": (2, float("inf"))},
    {"core_service_rate": 0},
    {"edge_service_rate": -1.0},
    {"duration_s": 0},
    {"duration_s": float("nan")},
    {"link_latency_us": -1},
    {"link_latency_us": float("nan")},
    {"link_latency_us": 1.5},
    {"link_latency_us": True},
])
def test_load_scenario_rejects_bad_values(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        LoadScenario(**kwargs)


@pytest.fixture(scope="module")
def load_results():
    scenario = LoadScenario(rates_per_s=(2, 8, 16, 24, 30), duration_s=20.0,
                            seed=0)
    return run_load_sweep(scenario)


def test_load_core_message_counts(load_results):
    for p in load_results["lte"]:
        assert p.core_msgs_per_handover == 15
    for p in load_results["encor"]:
        assert p.core_msgs_per_handover == 2


def test_load_encor_never_slower(load_results):
    for p_lte, p_encor in zip(load_results["lte"], load_results["encor"]):
        assert p_encor.mean_ms <= p_lte.mean_ms


def test_load_lte_degrades_with_rate(load_results):
    means = [p.mean_ms for p in load_results["lte"]]
    assert all(p.completions > 0 for p in load_results["lte"])
    assert means[-1] > means[0]


def test_load_gap_widens_near_core_saturation(load_results):
    # at 30 HO/s the LTE core is at 30*15/500 = 90% utilization while the
    # edge-routed core sits at 12%; the completion-time gap should be wide
    last_lte = load_results["lte"][-1]
    last_encor = load_results["encor"][-1]
    assert last_lte.core_utilization == pytest.approx(0.9)
    assert last_encor.core_utilization == pytest.approx(0.12)
    assert last_lte.mean_ms / last_encor.mean_ms >= 2.0


def test_load_sweep_deterministic():
    scenario = LoadScenario(rates_per_s=(4, 16), duration_s=5.0, seed=3)
    a = run_load_sweep(scenario)
    b = run_load_sweep(scenario)
    for arch in a:
        assert [p.to_csv_row() for p in a[arch]] == \
            [p.to_csv_row() for p in b[arch]]


def test_a_load_point_leaves_no_reference_cycle():
    # every object the point made is freed by reference counting when it
    # returns, so peak RSS does not depend on when a collection runs
    gc.collect()
    gc.disable()
    try:
        _run_load_point("encor", 5.0, LoadScenario(duration_s=20.0))
        assert gc.collect() == 0
    finally:
        gc.enable()
