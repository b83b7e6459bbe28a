import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from encorsim.kernel import Node, RunStats, SchedulingError, Simulator, US_PER_S


def test_schedule_at_now_executes():
    sim = Simulator()
    fired = []
    sim.schedule(0, lambda s: fired.append(s.now))
    sim.run_until(10)
    assert fired == [0]


def test_equal_time_events_execute_in_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule(5, lambda s: order.append("first"))
    sim.schedule(5, lambda s: order.append("second"))
    sim.run_until(10)
    assert order == ["first", "second"]


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(7, lambda s: None)
    sim.run_until(7)
    with pytest.raises(SchedulingError):
        sim.schedule(3, lambda s: None)


def test_total_order_under_shuffled_insertion():
    # same event set inserted in any order executes sorted by (at, seq
    # within equal times following insertion order of that time)
    times = [3, 1, 4, 1, 5, 9, 2, 6]
    rng = random.Random(0)
    executed = []
    sim = Simulator()
    for i, t in enumerate(times):
        sim.schedule(t, lambda s, t=t: executed.append(t))
    sim.run_until(100)
    assert executed == sorted(times)


def test_single_message_queueing_arithmetic():
    # latency 10ms, idle node at 1000 msgs/s -> done at 10ms + 1ms
    sim = Simulator()
    n = sim.add_node("n", 1000, 10_000)
    done = []
    sim.send(n, "m", on_delivered=lambda s, m: done.append(s.now))
    sim.run_until(US_PER_S)
    assert done == [11_000]


def test_fifo_service_two_messages():
    sim = Simulator()
    n = sim.add_node("n", 1000, 10_000)
    done = []
    sim.send(n, "m1", on_delivered=lambda s, m: done.append((m, s.now)))
    sim.send(n, "m2", on_delivered=lambda s, m: done.append((m, s.now)))
    sim.run_until(US_PER_S)
    assert done == [("m1", 11_000), ("m2", 12_000)]


@pytest.mark.parametrize("exponential", [False, True],
                         ids=["deterministic", "exponential"])
def test_a_nodes_completions_keep_one_heap_entry_and_fire_in_send_order(
        exponential):
    # a node's completions queue in its own FIFO: only the earliest is in
    # the heap
    sim = Simulator(seed=3)
    n = sim.add_node("n", 50_000, 100, exponential_service=exponential)
    done = []
    for i in range(1_000):
        sim.send(n, i, on_delivered=lambda s, m: done.append((s.now, m)))
    assert len(sim._queue) == 1
    sim.run()
    assert [m for _, m in done] == list(range(1_000))
    assert all(a < b for (a, _), (b, _) in zip(done, done[1:]))


def test_close_drops_every_pending_event():
    sim = Simulator()
    n = sim.add_node("n", 1000, 10)
    lane = sim.lane()
    fired = []
    sim.schedule(5, lambda s: fired.append("direct"))
    lane.schedule(5, lambda s: fired.append("lane"))
    lane.schedule(6, lambda s: fired.append("lane"))
    sim.train(1, 1, 3, lambda s, k: fired.append(k))
    sim.send(n, "m", on_delivered=lambda s, m: fired.append(m))
    sim.run_until(1)
    sim.close()
    assert (sim._queue, list(lane._pending), list(n.inbox),
            list(n.completions)) == ([], [], [], [])
    assert sim.run().events_processed == 1
    assert fired == [0]


def test_sends_at_one_instant_leave_one_heap_entry_per_node():
    sim = Simulator()
    a = sim.add_node("a", 1000, 10)
    b = sim.add_node("b", 500)
    for node in (a, b, b, a, a, b):
        sim.send(node, "m")
    assert len(sim._queue) == 2
    assert {entry[:2] for entry in sim._queue} \
        == {a.completions[0][:2], b.completions[0][:2]}
    for node in (a, b):
        entries = list(node.completions)
        assert len(entries) == 3
        assert all(x[0] < y[0] and x[1] < y[1]
                   for x, y in zip(entries, entries[1:]))
        assert all(entry[3] is node.completions for entry in entries)


@pytest.mark.parametrize("case", ["other simulator", "closed", "not added"])
def test_send_to_a_node_of_another_simulator_or_after_close_is_refused(
        case):
    # a send to another simulator's node would count the send in one
    # simulator and its delivery in the other, whose in_flight would
    # read -1
    sim, other = Simulator(), Simulator()
    node = {"other simulator": other.add_node("n", 1000),
            "closed": sim.add_node("n", 1000),
            "not added": Node("n", 1000)}[case]
    if case == "closed":
        sim.close()
    with pytest.raises(SchedulingError, match="node 'n'"):
        sim.send(node, "m")
    assert (sim.stats, other.stats) == (RunStats(), RunStats())
    assert (sim._queue, other._queue, list(node.inbox),
            list(node.completions)) == ([], [], [], [])


def test_certain_loss_drops_and_counts():
    sim = Simulator()
    n = sim.add_node("n", 1000, 1_000, loss_probability=1.0)
    delivered = []
    sim.send(n, "m", on_delivered=lambda s, m: delivered.append(m))
    sim.run_until(US_PER_S)
    assert delivered == []
    assert sim.stats.dropped == 1
    assert sim.stats.sent == 1


def test_empty_queue_returns_immediately():
    sim = Simulator()
    stats = sim.run_until(1_000_000)
    assert stats.events_processed == 0


def _random_run(seed):
    sim = Simulator(seed=seed)
    n = sim.add_node("n", 800, 500, 0.1, exponential_service=True)
    t = 0
    for _ in range(500):
        t += round(sim.rng.expovariate(400) * US_PER_S)
        sim.schedule(t, lambda s: s.send(n, "m"))
    sim.run()
    return sim.stats


def test_determinism_same_seed_identical_stats():
    a, b = _random_run(123), _random_run(123)
    assert a.dropped > 0
    assert a == b  # every counter and every latency


def test_conservation_sent_equals_delivered_plus_dropped_plus_inflight():
    sim = Simulator(seed=5)
    n = sim.add_node("n", 100, 1_000, loss_probability=0.3)
    for i in range(200):
        sim.schedule(i * 100, lambda s: s.send(n, "m"))
    sim.run_until(50_000)  # cut off mid-run so some are in flight
    stats = sim.stats
    assert stats.sent == 200
    assert stats.delivered + stats.dropped + stats.in_flight == stats.sent
    assert stats.in_flight > 0


# Independent oracle: closed-form M/M/1 mean sojourn 1/(mu - lambda).
@pytest.mark.slow
def test_mm1_mean_sojourn_matches_closed_form():
    lam, mu = 500.0, 1000.0
    sim = Simulator(seed=42)
    q = sim.add_node("q", mu, exponential_service=True)
    t = 0.0
    for _ in range(100_000):
        t += sim.rng.expovariate(lam) * US_PER_S
        sim.schedule(round(t), lambda s: s.send(q, "pkt"))
    sim.run()
    mean_s = statistics.fmean(sim.stats.latencies_us) / US_PER_S
    assert mean_s == pytest.approx(1.0 / (mu - lam), rel=0.10)


def test_delivered_by_category_counts_each_nodes_deliveries():
    sim = Simulator()
    a = sim.add_node("a", 1000)
    b = sim.add_node(2, 1000, 5)
    for node in (a, b, a):
        sim.send(node, "m")
    lost = sim.add_node("lost", 1000, loss_probability=1.0)
    sim.send(lost, "m")
    stats = sim.run()
    assert stats.delivered_by_category == {"a": 2, 2: 1}
    assert (stats.sent, stats.delivered, stats.dropped) == (4, 3, 1)


def test_schedule_at_nan_rejected():
    # a NaN time compares false both ways: at the heap top it would stop
    # the drain loop before any event behind it
    sim = Simulator()
    with pytest.raises(SchedulingError):
        sim.schedule(math.nan, lambda s: None)
    sim.schedule(5, lambda s: None)
    assert sim.run().events_processed == 1


@pytest.mark.parametrize("latency", [math.nan, math.inf])
def test_node_rejects_non_finite_latency(latency):
    sim = Simulator()
    with pytest.raises(ValueError, match="latency"):
        sim.add_node("n", 1000, latency)
    assert sim.nodes == {}


@pytest.mark.parametrize("loss", [-0.1, 1.1, math.nan])
def test_node_rejects_loss_outside_0_to_1(loss):
    sim = Simulator()
    with pytest.raises(ValueError, match=f"loss_probability.*{loss}"):
        sim.add_node("n", 1000, loss_probability=loss)
    assert sim.nodes == {}


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_node_rejects_non_finite_service_rate(rate):
    sim = Simulator()
    with pytest.raises(ValueError, match="service_rate"):
        sim.add_node("n", rate)


@pytest.mark.parametrize("at", [math.inf, -math.inf, math.nan])
def test_non_finite_time_rejected_by_schedule_and_lane(at):
    # an infinite time would drain to now == inf, after which no finite
    # time could be scheduled again
    sim = Simulator()
    lane = sim.lane()
    with pytest.raises(SchedulingError):
        sim.schedule(at, lambda s: None)
    with pytest.raises(SchedulingError):
        lane.schedule(at, lambda s: None)
    lane.schedule(5, lambda s: None)
    assert sim.run().events_processed == 1
    assert sim.now == 5


@pytest.mark.parametrize("t_end", [math.inf, -math.inf, math.nan])
def test_run_until_rejects_non_finite_horizon(t_end):
    sim = Simulator()
    sim.schedule(5, lambda s: None)
    with pytest.raises(SchedulingError):
        sim.run_until(t_end)
    assert sim.now == 0
    assert sim.run().events_processed == 1


@pytest.mark.parametrize("t", [1.5, 2.5])
def test_times_that_are_not_whole_us_are_rejected_naming_them(t):
    sim = Simulator()
    lane = sim.lane()
    calls = [
        lambda: sim.schedule(t, lambda s: None),
        lambda: lane.schedule(t, lambda s: None),
        lambda: sim.train(t, 1, 2, lambda s, k: None),  # start
        lambda: sim.train(0, t, 2, lambda s, k: None),  # interval
        lambda: sim.run_until(t),
    ]
    for call in calls:
        with pytest.raises(SchedulingError, match=str(t)):
            call()
    assert (sim._queue, sim._seq, sim.now) == ([], 0, 0)
    with pytest.raises(ValueError, match=f"latency.*{t}"):
        sim.add_node("n", 1000, t)
    assert sim.nodes == {}


def test_an_action_that_raises_leaves_its_successor_scheduled():
    # the drain advances the heap before an action runs: a raising plain,
    # lane or train event is counted once, its lane's and its train's next
    # events stay scheduled, and the next run goes on in key order
    sim = Simulator()
    lane = sim.lane()
    fired = []
    raising = {(1, "plain"), (2, "lane"), (3, "train")}

    def act(name):
        def action(s, k=None):
            fired.append((s.now, name, k))
            if (s.now, name) in raising:
                raise RuntimeError(name)
        return action

    sim.schedule(1, act("plain"))
    lane.schedule(2, act("lane"))
    lane.schedule(4, act("lane"))
    sim.train(1, 2, 3, act("train"))
    sim.schedule(6, act("plain"))
    for name, events in (("plain", 1), ("lane", 3), ("train", 4)):
        with pytest.raises(RuntimeError, match=name):
            sim.run()
        assert sim.stats.events_processed == events
    assert sim.run().events_processed == 7
    assert fired == [(1, "plain", None), (1, "train", 0), (2, "lane", None),
                     (3, "train", 1), (4, "lane", None), (5, "train", 2),
                     (6, "plain", None)]
    assert sim._queue == []


def test_lane_rejects_earlier_time_and_changes_nothing():
    sim = Simulator()
    lane = sim.lane()
    fired = []
    lane.schedule(5, lambda s: fired.append("lane@5"))
    sim.schedule(7, lambda s: fired.append("direct@7"))
    before = (list(sim._queue), list(lane._pending), sim._seq)
    with pytest.raises(SchedulingError):
        lane.schedule(4, lambda s: fired.append("lane@4"))
    assert (list(sim._queue), list(lane._pending), sim._seq) == before
    lane.schedule(5, lambda s: fired.append("lane@5 again"))
    sim.run()
    assert fired == ["lane@5", "lane@5 again", "direct@7"]


def test_lane_accepts_now_after_its_events_fired():
    sim = Simulator()
    lane = sim.lane()
    lane.schedule(5, lambda s: None)
    sim.run_until(20)
    with pytest.raises(SchedulingError):
        lane.schedule(10, lambda s: None)  # in the past
    lane.schedule(20, lambda s: None)
    assert sim.run().events_processed == 2


N_LANES = 3
TRAIN = N_LANES + 1
# An event: (target, delay, train shape, children it schedules when it
# fires). Targets 0..N_LANES-1 are lanes, N_LANES is Simulator.schedule
# and TRAIN is a train of `count` events `interval` apart from now + delay,
# with the shape (interval, count); child i goes to the train's event
# i % count. Delays and intervals are small so that many events share a
# time, and a train often starts in a µs with events already due.
SHAPE = st.tuples(st.integers(0, 2), st.integers(0, 3))
EVENT = st.recursive(
    st.tuples(st.integers(0, TRAIN), st.integers(0, 3), SHAPE, st.just(())),
    lambda children: st.tuples(st.integers(0, TRAIN), st.integers(0, 3),
                               SHAPE,
                               st.lists(children, max_size=4).map(tuple)),
    max_leaves=30)


def _run_events(roots, reference):
    """Run the event trees. Each event records its key (time, insertion
    counter) when it fires. With `reference`, every event goes through
    `Simulator.schedule`, a train's in a loop when it is made. Returns the
    fired keys and the count of events the simulator processed."""
    sim = Simulator()
    lanes = [sim.lane() for _ in range(N_LANES)]
    lane_last = [0] * N_LANES
    counter = [0]
    fired = []

    def take_key(at):
        key = (at, counter[0])
        counter[0] += 1
        return key

    def event(key, children):
        def action(s):
            assert s.now == key[0]
            fired.append(key)
            for child in children:
                put(child)

        return action

    def put(spec):
        target, delay, (interval, count), children = spec
        if target < N_LANES:
            at = max(sim.now + delay, lane_last[target])
            lane_last[target] = at
            action = event(take_key(at), children)
            if reference:
                sim.schedule(at, action)
            else:
                lanes[target].schedule(at, action)
        elif target == TRAIN:
            start = sim.now + delay
            actions = [event(take_key(start + k * interval),
                             children[k::count])
                       for k in range(count)]
            if reference:
                for k, action in enumerate(actions):
                    sim.schedule(start + k * interval, action)
            else:
                sim.train(start, interval, count,
                          lambda s, k: actions[k](s))
        else:
            key = take_key(sim.now + delay)
            sim.schedule(key[0], event(key, children))

    for spec in roots:
        put(spec)
    return fired, sim.run().events_processed


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(EVENT, max_size=8))
def test_lanes_fire_in_time_insertion_order(roots):
    fired, events = _run_events(roots, reference=False)
    expected, _ = _run_events(roots, reference=True)
    assert all(a < b for a, b in zip(fired, fired[1:]))
    assert fired == expected
    assert events == len(fired)


def _record_train(sim, start, interval, count, fired):
    sim.train(start, interval, count,
              lambda s, k: fired.append((s.now, k)))


@pytest.mark.parametrize("start, interval, count, error", [
    (4, 1, 2, SchedulingError),         # start in the past
    (math.inf, 1, 2, SchedulingError),
    (-math.inf, 1, 2, SchedulingError),
    (math.nan, 1, 2, SchedulingError),
    (20, -1, 2, SchedulingError),       # interval negative
    (20, math.inf, 2, SchedulingError),
    (20, math.nan, 2, SchedulingError),
    (20, 1e308, 3, SchedulingError),    # a float interval
    (20, 1, -1, SchedulingError),       # count negative
    (20, 1, 2.0, TypeError),            # a float count: fractional seqs
])
def test_train_rejects_bad_input_and_changes_nothing(start, interval, count,
                                                     error):
    sim = Simulator()
    sim.schedule(10, lambda s: None)
    sim.run_until(10)
    sim.schedule(30, lambda s: None)
    before = (list(sim._queue), sim._seq)
    with pytest.raises(error):
        _record_train(sim, start, interval, count, [])
    assert (list(sim._queue), sim._seq) == before
    assert sim.run().events_processed == 2


def test_empty_train_schedules_and_reserves_nothing():
    sim = Simulator()
    fired = []
    _record_train(sim, 5, 1, 0, fired)
    assert (sim._queue, sim._seq) == ([], 0)
    assert sim.run().events_processed == 0
    assert fired == []


def test_train_events_past_the_horizon_fire_on_the_next_run():
    sim = Simulator()
    fired = []
    _record_train(sim, 0, 10, 5, fired)
    sim.run_until(25)
    assert fired == [(0, 0), (10, 1), (20, 2)]
    assert sim.now == 25
    sim.run()
    assert fired == [(0, 0), (10, 1), (20, 2), (30, 3), (40, 4)]


def _two_event_send(sim, node, msg, on_delivered=None):
    """Oracle: `Simulator.send` as it was when an arrival event at
    `now + latency` picked the service slot and scheduled the completion."""
    sim.stats.sent += 1
    if (node.loss_probability > 0.0
            and sim.rng.random() < node.loss_probability):
        sim.stats.dropped += 1
        return None
    sent_at = sim.now

    def arrive(sim):
        start = max(node.busy_until, sim.now)
        if node.service_us is None:
            service = sim.rng.expovariate(node.service_rate) * US_PER_S
        else:
            service = US_PER_S / node.service_rate
        done = start + max(1, round(service))
        node.busy_until = done

        def complete(sim):
            sim.stats.delivered += 1
            by_node = sim.stats.delivered_by_category
            by_node[node.id] = by_node.get(node.id, 0) + 1
            sim.stats.latencies_us.append(sim.now - sent_at)
            if on_delivered is not None:
                on_delivered(sim, msg)

        sim.schedule(done, complete)

    sim.schedule(sim.now + node.latency_us, arrive)


N_NODES = 3
# service times of 1, 2, 3 (rounded from 3.3) and 8 µs, so that many
# completions share a time
SERVICE_RATES = (US_PER_S, US_PER_S / 2, 300_000, 125_000)
# (service rate per node, loss probability per node)
TOPOLOGY = st.tuples(
    st.lists(st.sampled_from(SERVICE_RATES), min_size=N_NODES,
             max_size=N_NODES),
    st.lists(st.sampled_from([0.0, 0.0, 0.3]), min_size=N_NODES,
             max_size=N_NODES))
LATENCY = st.integers(0, 4)


def sends(max_hops):
    """Root sends as (time, the nodes its message chain goes to); each
    hop after the first is sent from the previous hop's on_delivered."""
    return st.lists(st.tuples(st.integers(0, 12),
                              st.lists(st.integers(0, N_NODES - 1),
                                       min_size=1, max_size=max_hops)),
                    max_size=12)


def _run_sends(topology, latencies, sends, cut, send):
    """Run the sends through `send`, cut off at `cut`, then drain. Returns
    (deliveries as (time, msg) in delivery order, delivered_by_category,
    latencies_us, (sent, dropped, in_flight) at the cut-off) and the
    count of events processed."""
    rates, losses = topology
    sim = Simulator(seed=7)
    nodes = [sim.add_node(i, rate, latency, loss)
             for i, (rate, latency, loss)
             in enumerate(zip(rates, latencies, losses))]
    deliveries = []

    def hop(sim, msg):
        root, k = msg
        send(sim, nodes[sends[root][1][k]], msg, on_delivered)

    def on_delivered(sim, msg):
        deliveries.append((sim.now, msg))
        root, k = msg
        if k + 1 < len(sends[root][1]):
            hop(sim, (root, k + 1))

    for root, (at, _) in enumerate(sends):
        sim.schedule(at, lambda s, root=root: hop(s, (root, 0)))
    stats = sim.run_until(cut)
    at_cut = (stats.sent, stats.dropped, stats.in_flight)
    stats = sim.run()
    return (deliveries, stats.delivered_by_category, stats.latencies_us,
            at_cut), stats.events_processed


@settings(max_examples=150, derandomize=True, deadline=None)
@given(TOPOLOGY, LATENCY, sends(max_hops=4), st.integers(0, 40))
def test_send_matches_the_two_event_oracle_when_links_share_a_latency(
        topology, latency, sends, cut):
    latencies = [latency] * N_NODES
    result, events = _run_sends(topology, latencies, sends, cut,
                                Simulator.send)
    expected, _ = _run_sends(topology, latencies, sends, cut, _two_event_send)
    assert result == expected
    assert events == len(sends) + len(result[0])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(TOPOLOGY, st.lists(LATENCY, min_size=N_NODES, max_size=N_NODES),
       sends(max_hops=1), st.integers(0, 40))
def test_send_matches_the_two_event_oracle_up_to_ties_across_nodes(
        topology, latencies, sends, cut):
    # with a latency per node, completions due in the same µs at two
    # nodes fire in send order, not arrival order; a message's own
    # delivery time does not change
    result, events = _run_sends(topology, latencies, sends, cut,
                                Simulator.send)
    expected, _ = _run_sends(topology, latencies, sends, cut, _two_event_send)
    deliveries, by_category, latencies_us, at_cut = result
    assert sorted(deliveries) == sorted(expected[0])
    assert by_category == expected[1]
    assert sorted(latencies_us) == sorted(expected[2])
    assert at_cut == expected[3]
    assert events == len(sends) + len(deliveries)
