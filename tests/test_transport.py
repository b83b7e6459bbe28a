import gc
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from encorsim import transport
from encorsim.addressing import RecentlyMovedTable
from encorsim.transport import (
    BUFFER_THRESHOLDS_S, DEFAULT_LADDER, FRAME_INTERVAL_US,
    MAX_PACKETS_PER_RUN, AppMetrics, MobilityNet, Policy, TransportParams,
    _DownlinkServer, buffered_packets, bulk_packets,
    live_frames, run_buffered, run_bulk, run_live, select_level,
)

US = 1_000_000


def _net(move_times=(), **params):
    """A net whose client has made a move at each of `move_times`, in
    time order, as `_DownlinkServer.schedule_handovers` builds it."""
    net = MobilityNet(TransportParams(**params))
    net.move_times = sorted(move_times)
    for _ in move_times:
        net.migrate()
    return net


def test_client_packet_with_recognized_id_updates_path():
    # a client packet's arrival moves the server's path to the path it
    # left from
    params = TransportParams()
    server = _DownlinkServer(params, seed=0)
    server.schedule_handovers([10], lambda: True)
    server.sim.schedule(20, lambda s: server.client_packet())
    server.sim.run_until(20 + params.one_way_us)
    assert server.net.server_path == 1


def test_migration_alone_does_not_inform_server():
    net = _net([0])
    assert net.path == 1
    assert net.server_path == 0  # passive: server still on stale path


def test_server_send_after_migration_without_forwarding_fails():
    assert _net(forwarding_enabled=False).reaches_client(0, 0)
    net = _net([0], forwarding_enabled=False)
    assert not net.reaches_client(net.server_path, 1)


def test_server_send_after_migration_with_forwarding_succeeds_until_ttl():
    net = _net([0], forwarding_enabled=True, forwarding_ttl_us=1000)
    assert net.reaches_client(net.server_path, 999)
    assert not net.reaches_client(net.server_path, 1000)


def test_forwarding_chains_across_two_migrations():
    net = _net([0, 10], forwarding_enabled=True)
    # a packet to the original path traverses both base stations
    assert net.reaches_client(0, arrival_us=20)


def test_path_recovers_after_client_packet():
    params = TransportParams()
    server = _DownlinkServer(params, seed=0)
    net = server.net
    server.schedule_handovers([0], lambda: True)
    server.sim.schedule(1, lambda s: server.client_packet())
    server.sim.run_until(1)
    assert not net.reaches_client(net.server_path, 1)
    server.sim.run_until(1 + params.one_way_us)
    assert net.reaches_client(net.server_path, 1 + params.one_way_us)


_IDENT = 0x42


def _walk_tables(move_times, ttl_us, forwarding, dest, arrival_us):
    """The hop-by-hop forwarding walk over one RecentlyMovedTable per
    path the client left, path k being its locator after k moves."""
    tables = {}
    if forwarding:
        for old, t in enumerate(move_times):
            # the table's TTL is fixed; a move recorded this much later
            # expires at t + ttl_us
            tables[old] = RecentlyMovedTable()
            tables[old].record_move(
                _IDENT, old + 1, t + ttl_us - RecentlyMovedTable.DEFAULT_TTL_US)
    current = len(move_times)
    loc = dest
    if loc == current:
        return True
    for _ in range(len(tables)):
        table = tables.get(loc)
        loc = table.lookup(_IDENT, arrival_us) if table else None
        if loc is None:
            return False
        if loc == current:
            return True
    return False


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_reaches_client_equals_the_hop_by_hop_walk(data):
    move_times = sorted(data.draw(st.lists(st.integers(0, 5_000),
                                           max_size=5)))
    ttl_us = data.draw(st.integers(1, 5_000))
    forwarding = data.draw(st.booleans())
    dest = data.draw(st.integers(0, len(move_times)))
    last = move_times[-1] if move_times else 0
    # arrivals anywhere after the last move, and at the TTL edge of the
    # path `dest` was left
    edge = move_times[dest] + ttl_us if dest < len(move_times) else last
    arrival_us = data.draw(
        st.integers(last, last + 3 * ttl_us)
        | st.integers(edge - 2, edge + 2).map(lambda a: max(a, last)))
    net = _net(move_times, forwarding_enabled=forwarding,
               forwarding_ttl_us=ttl_us)
    assert net.reaches_client(dest, arrival_us) == _walk_tables(
        move_times, ttl_us, forwarding, dest, arrival_us)


def test_select_level_thresholds():
    # rung boundaries at 5/10/15/20 s of buffer
    assert select_level(0.0)[0] == 1
    assert select_level(4.99)[0] == 1
    assert select_level(5.0)[0] == 2
    assert select_level(12.0)[0] == 3
    assert select_level(19.9)[0] == 4
    assert select_level(20.0)[0] == 5
    assert select_level(100.0)[0] == 5
    assert len(BUFFER_THRESHOLDS_S) == len(DEFAULT_LADDER) - 1


def test_bulk_without_handover_no_retransmissions():
    m = run_bulk(1_000_000, [], seed=1)
    assert m.retx_count == 0
    assert m.throughput_mbps > 0


def test_bulk_mid_transfer_handover_causes_retx_forwarding_removes_them():
    # 4 MB at 40 Mbps takes ~0.8 s; a handover at 0.4 s lands mid-train
    nofwd = run_bulk(4_000_000, [400_000], seed=1)
    fwd = run_bulk(4_000_000, [400_000],
                   TransportParams(forwarding_enabled=True), seed=1)
    assert nofwd.retx_count > 0
    assert fwd.retx_count == 0
    assert fwd.throughput_mbps >= nofwd.throughput_mbps


def test_bulk_recovers_after_every_handover():
    m = run_bulk(4_000_000, [200_000, 400_000, 600_000], seed=2)
    assert m.handovers == 3
    assert m.throughput_mbps > 1.0  # finished well before the horizon


def test_buffered_ample_bandwidth_top_quality_no_stall():
    m = run_buffered(30.0, [], seed=1)
    assert m.stall_s == 0.0
    assert m.mean_quality == pytest.approx(5.0)
    assert m.mean_buffer_s > 20.0


def test_buffered_handovers_mild_retx_no_stall():
    ho = [5 * US, 15 * US, 25 * US]
    m = run_buffered(30.0, ho, seed=1)
    assert m.retx_count > 0
    assert m.stall_s == 0.0  # the primed buffer absorbs recovery time
    assert m.mean_quality == pytest.approx(5.0)


def test_buffered_retx_below_bulk_retx():
    # same handover count; the paced chunk train exposes fewer packets
    # to the stale-path window than the continuous bulk train
    bulk = run_bulk(4_000_000, [400_000], seed=3)
    buf = run_buffered(30.0, [5 * US], seed=3)
    assert 0 < buf.retx_count < bulk.retx_count


def test_live_no_handover_delivers_all_frames():
    m = run_live(10.0, [], policy=Policy.PASSIVE_ONLY, seed=1)
    assert not m.deadlocked
    assert m.fps == pytest.approx(24.0, rel=0.05)


def test_live_passive_only_deadlocks_after_handover():
    # pure subscriber: after migration no client packet ever updates the
    # server's path, so the stream goes permanently silent
    m = run_live(30.0, [5 * US], policy=Policy.PASSIVE_ONLY, seed=1)
    assert m.deadlocked
    assert m.pings == 0
    assert m.fps < 24.0 * 0.5


def test_live_ping_on_idle_recovers_with_at_most_one_ping():
    m = run_live(30.0, [5 * US], policy=Policy.PING_ON_IDLE, seed=1)
    assert not m.deadlocked
    assert m.pings <= 1
    assert m.fps > 24.0 * 0.9


def test_live_ping_on_idle_no_handover_sends_no_pings():
    m = run_live(10.0, [], policy=Policy.PING_ON_IDLE, seed=1)
    assert m.pings == 0


def test_live_pings_bounded_by_migrations():
    ho = [5 * US, 12 * US, 19 * US]
    m = run_live(30.0, ho, policy=Policy.PING_ON_IDLE, seed=1)
    assert not m.deadlocked
    assert m.pings <= len(ho)


@pytest.mark.parametrize("run, expected", [
    # each move falls after the app has ended: no handover happened
    (lambda: run_buffered(2.0, [5 * US]), 0),
    (lambda: run_bulk(1200, [50 * US]), 0),
    (lambda: run_live(1.0, [9 * US]), 0),
    # a move while the app runs still counts
    (lambda: run_buffered(2.0, [1 * US]), 1),
    (lambda: run_bulk(1200, [5_000]), 1),
    (lambda: run_live(1.0, [500_000]), 1),
])
def test_handovers_count_only_moves_during_the_app(run, expected):
    assert run().handovers == expected


def test_app_runs_deterministic():
    a = run_buffered(20.0, [5 * US], seed=7)
    b = run_buffered(20.0, [5 * US], seed=7)
    assert a.to_csv_row() == b.to_csv_row()


def test_metrics_csv_row_shape():
    m = run_live(5.0, [], seed=0)
    row = m.to_csv_row()
    assert len(row) == 10
    assert row[0] == "live" and row[1] == "PassiveOnly"


@pytest.mark.parametrize("field,value", [
    ("bandwidth_mbps", 0), ("bandwidth_mbps", -40.0),
    ("bandwidth_mbps", float("nan")), ("bandwidth_mbps", float("inf")),
    ("packet_bytes", 0), ("one_way_us", 0), ("ack_delay_us", -1),
    ("ack_delay_us", float("inf")), ("keepalive_interval_us", 0),
    ("forwarding_ttl_us", -1), ("give_up_us", 0),
    ("idle_deadline_factor", 0.0), ("idle_deadline_factor", float("nan")),
    # simulated time is whole µs
    ("one_way_us", 1500.5), ("ack_delay_us", 0.5),
    ("keepalive_interval_us", 2500.5), ("forwarding_ttl_us", 1e6),
    ("give_up_us", 5e6), ("one_way_us", True), ("packet_bytes", True),
])
def test_params_reject_nonpositive_or_infinite(field, value):
    with pytest.raises(ValueError, match=field):
        TransportParams(**{field: value})


def test_params_allow_immediate_ack():
    assert TransportParams(ack_delay_us=0).rtt_us == 40_000


def _recording_server(params, send_at, move_at=None):
    """A server that sends one packet reliably at `send_at`, with the
    client moving at `move_at`; returns it and its list of send times."""
    server = _DownlinkServer(params, seed=0)
    sent = []
    send_reliable = server.send_reliable

    def recording(sim, _k=None, rto_us=None):
        sent.append(sim.now)
        send_reliable(sim, rto_us=rto_us)

    server.send_reliable = recording
    server.sim.schedule(send_at, server.send_reliable)
    if move_at is not None:
        server.schedule_handovers([move_at], lambda: True)
    return server, sent


def test_lost_first_transmission_is_retransmitted_one_rto_after_the_send():
    params = TransportParams(forwarding_enabled=False)
    server, sent = _recording_server(params, send_at=1_000, move_at=1_001)
    server.sim.run_until(1_000 + params.rto_us)
    assert sent == [1_000, 1_000 + params.rto_us]
    assert server.retx_count == 1


def test_delivered_transmission_schedules_no_timeout():
    params = TransportParams()
    server, sent = _recording_server(params, send_at=1_000)
    stats = server.sim.run_until(1_000 + 2 * params.rto_us)
    assert sent == [1_000]
    assert server.delivered == 1
    # the send and the arrival: with no move, no ack is sent
    assert stats.events_processed == 2


def test_delivered_retransmission_schedules_no_timeout():
    # the first transmission is lost; a client packet after the move
    # teaches the server the new path before the retransmission
    params = TransportParams(forwarding_enabled=False)
    server, sent = _recording_server(params, send_at=1_000, move_at=1_001)
    server.sim.schedule(1_002, lambda s: server.client_packet())
    stats = server.sim.run_until(1_000 + 4 * params.rto_us)
    assert sent == [1_000, 1_000 + params.rto_us]
    assert server.retx_count == 1
    assert server.delivered == 1
    # the send, the move, the lost arrival, the client packet and its
    # arrival, the timeout, the delivered arrival and its ack, the first
    # from path 1: no timeout follows the retransmission
    assert stats.events_processed == 8


@pytest.mark.parametrize("moves, path", [
    ([22_000], 1),  # inside the ack's delay
    ([23_000], 1),  # in the µs the ack leaves
    ([21_000, 22_000], 2),  # one already made at delivery
    ([23_001], 0),  # after the ack has left
    ([22_000, 22_000], 2),  # two moves in one µs
    ([23_000, 23_000, 23_001], 2),  # two in the µs the ack leaves
], ids=["inside_delay", "at_leave_us", "one_at_delivery", "after_leave",
        "two_in_one_us", "two_at_leave_us"])
def test_ack_leaves_from_the_address_at_its_leave_time(moves, path):
    # the packet is sent at 1,000 µs and delivered at 21,000; its ack
    # leaves at 23,000 and arrives at 43,000. Forwarding keeps the delivery
    # alive across a move in the delivery's own µs.
    params = TransportParams(forwarding_enabled=True)
    server, _ = _recording_server(params, send_at=1_000)
    server.schedule_handovers(moves, lambda: True)
    stats = server.sim.run_until(43_000)
    assert server.delivered == 1
    # the send, the arrival, the moves and the ack, sent only if it leaves
    # from a path other than the server's 0
    assert stats.events_processed == 2 + len(moves) + (path > 0)
    assert server.net.server_path == path


@pytest.mark.parametrize("horizon, path", [
    (43_000, 1),  # the ack arrives at the horizon: a run_until fires it
    (42_999, 0),  # the ack arrives after the horizon
], ids=["at_horizon", "after_horizon"])
def test_a_read_after_run_until_sees_the_acks_due_by_its_horizon(horizon,
                                                                 path):
    # the ack of the packet delivered at 21,000 leaves from path 1 at
    # 23,000 and arrives at 43,000
    params = TransportParams()
    server, _ = _recording_server(params, send_at=1_000)
    server.schedule_handovers([22_000], lambda: True)
    server.sim.run_until(horizon)
    assert server.net.server_path == path
    server.sim.run_until(43_000)
    assert server.net.server_path == 1


def test_a_read_after_run_sees_every_ack():
    # the ack, the last event, arrives at 43,000
    params = TransportParams()
    server, _ = _recording_server(params, send_at=1_000)
    server.schedule_handovers([22_000], lambda: True)
    stats = server.sim.run()
    assert (stats.events_processed, server.sim.now) == (4, 43_000)
    assert server.net.server_path == 1


def test_schedule_handovers_rejects_a_second_call():
    # a second schedule would replace move_times while the first call's
    # moves still fire
    server = _DownlinkServer(TransportParams(), seed=0)
    with pytest.raises(ValueError, match="handover_times_us"):
        server.schedule_handovers([-5], lambda: True)  # nothing scheduled
    server.schedule_handovers([1_000], lambda: True)
    with pytest.raises(ValueError, match="only once"):
        server.schedule_handovers([5_000], lambda: True)
    assert server.net.move_times == [1_000]
    server.sim.run()
    assert server.net.path == 1


class _EveryAckServer(_DownlinkServer):
    """The server before it skipped the acks that repeat a path: every
    delivery sends its ack, an event."""

    def _data_arrives(self, sim):
        dest, sent_at, rto_us = self._in_flight.popleft()
        now = sim.now
        net = self.net
        if net.reaches_client(dest, now):
            self.delivered += 1
            self.last_delivery_us = now
            params = self.params
            leaves = now + params.ack_delay_us
            self._ack(leaves + params.one_way_us, net.address_at(leaves))
            if self.delivered == self.wake_count:
                self.on_wake(now)
        elif rto_us is not None:
            self._lost(sent_at, rto_us)


@st.composite
def _ack_scenarios(draw):
    """Params, a horizon in µs, moves and a live frame interval for one
    run of each app: an ack delay of 0, up to one_way_us or above it,
    forwarding on and off, and moves that may share a µs or fall inside
    the delay of a bulk packet's ack."""
    one_way_us = draw(st.integers(1, 20_000))
    ack_delay_us = draw(st.just(0) | st.integers(1, one_way_us)
                        | st.integers(one_way_us + 1, 4 * one_way_us + 1))
    params = TransportParams(
        one_way_us=one_way_us, ack_delay_us=ack_delay_us,
        packet_bytes=draw(st.integers(4_000, 16_000)),
        forwarding_enabled=draw(st.booleans()),
        forwarding_ttl_us=draw(st.integers(1, 100_000)),
        keepalive_interval_us=draw(st.integers(1_000, 50_000)),
        give_up_us=draw(st.integers(100_000, 2_000_000)))
    horizon_us = draw(st.integers(50_000, 2_500_000))
    moves = draw(st.lists(st.integers(0, horizon_us), max_size=4))
    if ack_delay_us and draw(st.booleans()):
        # after bulk packet k's delivery, before its ack leaves
        interval = params.packet_interval_us()
        k = draw(st.integers(0, horizon_us // interval))
        moves.append(k * interval + one_way_us
                     + draw(st.integers(1, ack_delay_us)))
    if moves and draw(st.booleans()):
        moves.append(draw(st.sampled_from(moves)))  # two in one µs
    frame_interval_us = draw(st.integers(1_000, FRAME_INTERVAL_US))
    return params, horizon_us, moves, frame_interval_us


@settings(max_examples=25, derandomize=True, deadline=None)
@given(scenario=_ack_scenarios())
@example(scenario=(TransportParams(ack_delay_us=0, packet_bytes=8_000),
                   400_000, [100_000, 100_000], 20_000))
# bulk packet 100 is delivered at 160,700 and its ack leaves at 162,700:
# a move inside the ack's delay, and one in the µs it leaves
@example(scenario=(TransportParams(one_way_us=700, ack_delay_us=2_000,
                                   packet_bytes=8_000,
                                   forwarding_enabled=True),
                   400_000, [161_700], 20_000))
@example(scenario=(TransportParams(one_way_us=700, ack_delay_us=2_000,
                                   packet_bytes=8_000),
                   400_000, [162_700], 20_000))
def test_skipping_acks_that_repeat_a_path_changes_no_metric(scenario):
    params, horizon_us, moves, frame_interval_us = scenario
    bulk_bytes = (horizon_us // params.packet_interval_us() + 1) \
        * params.packet_bytes
    runs = [lambda: run_bulk(bulk_bytes, moves, params, seed=1),
            lambda: run_buffered(horizon_us / US, moves, params, seed=1)]
    runs += [lambda policy=policy: run_live(
                 horizon_us / US, moves, policy, params, seed=1,
                 frame_interval_us=frame_interval_us)
             for policy in Policy]
    for run in runs:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transport, "_DownlinkServer", _EveryAckServer)
            expected = run()
        assert run() == expected


@pytest.mark.parametrize("forwarding", [False, True])
@pytest.mark.parametrize("run, moves", [
    (lambda m, p: run_bulk(4_000_000, m, p, seed=1),
     [200_000, 400_000, 400_000]),
    (lambda m, p: run_buffered(6.0, m, p, seed=1),
     [1_000_000, 2_500_000, 4_000_000]),
    (lambda m, p: run_live(30.0, m, Policy.PING_ON_IDLE, p, seed=1),
     [5 * US, 12 * US]),
], ids=["bulk", "buffered", "live"])
def test_a_run_with_k_moves_queues_at_most_k_acks(monkeypatch, run, moves,
                                                  forwarding):
    paths = []
    ack = _DownlinkServer._ack

    def recording(self, arrives_us, path):
        paths.append(path)
        ack(self, arrives_us, path)

    monkeypatch.setattr(_DownlinkServer, "_ack", recording)
    run(moves, TransportParams(forwarding_enabled=forwarding))
    # each ack event moves the server's path up from the last one's
    assert 0 < len(paths) <= len(moves)
    assert paths == sorted(set(paths)) and paths[0] > 0


class _LaneServer(_DownlinkServer):
    """The reference for the server's one-way FIFO and wake-ups: one-way
    arrivals go through a checked `Lane`, every arrival asks
    `reaches_client`, and every delivery calls back, which wakes the app
    when `delivered` reaches `wake_count`."""

    def __init__(self, params, seed):
        super().__init__(params, seed)
        self._lane = self.sim.lane()

    def transmit(self, sim, _k=None):
        self.tx_count += 1
        self._in_flight.append((self.net.server_path, sim.now, None))
        self._lane.schedule(sim.now + self._one_way_us, self._arrive)

    def send_reliable(self, sim, _k=None, rto_us=None):
        self.tx_count += 1
        self._in_flight.append((self.net.server_path, sim.now,
                                rto_us or self._first_rto_us))
        self._lane.schedule(sim.now + self._one_way_us, self._arrive)

    def client_packet(self):
        net = self.net
        src = net.path

        def arrive(sim):
            net.server_path = src

        self._lane.schedule(self.sim.now + self._one_way_us, arrive)

    def _data_arrives(self, sim):
        dest, sent_at, rto_us = self._in_flight.popleft()
        now = sim.now
        net = self.net
        if net.reaches_client(dest, now):
            self.delivered += 1
            self.last_delivery_us = now
            leaves = now + self._ack_delay_us
            if leaves >= self._path_left_us:
                path = net.address_at(leaves)
                self._ack(leaves + self._one_way_us, path)
                self._path_left_us = (net.move_times[path]
                                      if path < len(net.move_times)
                                      else math.inf)
            self._on_delivery(now)
        elif rto_us is not None:
            self._lost(sent_at, rto_us)

    def _on_delivery(self, now):
        if self.delivered == self.wake_count:
            self.on_wake(now)


def _run_with(server_cls, run):
    """run() with its server made by `server_cls`; the metrics and the
    server."""
    servers = []

    class Recorded(server_cls):
        def __init__(self, params, seed):
            super().__init__(params, seed)
            servers.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "_DownlinkServer", Recorded)
        metrics = run()
    (server,) = servers
    return metrics, server


# about 0.4 s (pytest --durations)
@settings(max_examples=60, derandomize=True, deadline=None)
@given(scenario=_ack_scenarios())
@example(scenario=(TransportParams(), 3_000_000, [1_000_000, 2_000_000],
                   FRAME_INTERVAL_US))
@example(scenario=(TransportParams(forwarding_enabled=True), 3_000_000,
                   [1_000_000, 1_000_000], FRAME_INTERVAL_US))
def test_the_servers_fifo_and_wake_ups_match_a_checked_lane_reference(
        scenario):
    params, horizon_us, moves, frame_interval_us = scenario
    bulk_bytes = (horizon_us // params.packet_interval_us() + 1) \
        * params.packet_bytes
    runs = [lambda: run_bulk(bulk_bytes, moves, params, seed=1),
            lambda: run_buffered(horizon_us / US, moves, params, seed=1)]
    runs += [lambda policy=policy: run_live(
                 horizon_us / US, moves, policy, params, seed=1,
                 frame_interval_us=frame_interval_us)
             for policy in Policy]
    for run in runs:
        expected, reference = _run_with(_LaneServer, run)
        metrics, server = _run_with(_DownlinkServer, run)
        assert metrics == expected
        assert (server.sim.stats.events_processed
                == reference.sim.stats.events_processed)


class _WakeLog(_DownlinkServer):
    """A server that logs (delivered, now) at each wake-up of its app."""

    def __init__(self, params, seed):
        self.wakes = []
        super().__init__(params, seed)

    @property
    def on_wake(self):
        return self._on_wake

    @on_wake.setter
    def on_wake(self, callback):
        def logged(now):
            self.wakes.append((self.delivered, now))
            callback(now)

        self._on_wake = None if callback is None else logged


# each wake-up test takes about 0.01 s (pytest --durations)
def test_a_bulk_run_wakes_once_and_finishes_at_its_last_delivery():
    params = TransportParams()
    file_bytes = 600 * params.packet_bytes - 1
    m, server = _run_with(_WakeLog, lambda: run_bulk(
        file_bytes, [50_000, 100_000], params, seed=1))
    assert m.retx_count > 0
    assert server.delivered == 600
    assert server.wakes == [(600, server.last_delivery_us)]
    assert m.throughput_mbps == file_bytes * 8 / server.last_delivery_us


def test_a_buffered_chunk_completes_at_its_last_packet():
    # ample bandwidth keeps the top rung: every chunk is 834 packets
    params = TransportParams()
    chunk = math.ceil(DEFAULT_LADDER[-1][1] * 2 / 8 / params.packet_bytes)
    m, server = _run_with(_WakeLog, lambda: run_buffered(
        6.0, [1_000_000, 2_500_000], params, seed=1))
    assert m.mean_quality == 5.0
    counts = [delivered for delivered, _ in server.wakes]
    assert counts == [chunk * (k + 1) for k in range(len(counts))]
    times = [now for _, now in server.wakes]
    assert len(counts) > 2 and times == sorted(set(times))
    # the last wake-up is the last completed chunk's last delivery
    assert server.delivered < counts[-1] + chunk


def test_a_passive_live_run_makes_no_callback_and_a_pinging_one_one_per_frame():
    passive, server = _run_with(_WakeLog, lambda: run_live(
        10.0, [3_000_000], Policy.PASSIVE_ONLY, seed=1))
    assert passive.frames_delivered > 0 and server.wakes == []
    pinging, server = _run_with(_WakeLog, lambda: run_live(
        10.0, [3_000_000], Policy.PING_ON_IDLE, seed=1))
    assert [d for d, _ in server.wakes] == list(
        range(1, pinging.frames_delivered + 1))
    assert server.wakes[-1][1] == server.last_delivery_us


def test_params_reject_fractional_packet_bytes():
    with pytest.raises(ValueError, match="packet_bytes.*1200.5"):
        TransportParams(packet_bytes=1200.5)


# Pinned from the model that scheduled every first timeout as an event:
# with no ack delay the ack still returns (after 2 * one_way_us) before
# the first timeout (4 * one_way_us), so skipping the no-op timeouts
# changes nothing. The third case is pinned from the model that scheduled
# an ack's arrival when the ack left: with one_way_us == ack_delay_us,
# the move 1 µs after the first chunk's last delivery (1,003,000) falls
# in the delays of its ack and of the one before, whose arrivals share
# their µs with the next chunk's paced sends j = 2 and j = 1.
@pytest.mark.parametrize("run, expected", [
    (lambda p: run_bulk(600_000, [20_000, 50_000], p, seed=3),
     AppMetrics(app="bulk", handovers=2, throughput_mbps=27.002700270027002,
                retx_count=325, retx_rate=0.3939393939393939)),
    (lambda p: run_buffered(6.0, [1_000_000, 2_500_000], p, seed=3),
     AppMetrics(app="buffered", handovers=2, throughput_mbps=7.5824,
                retx_count=74, retx_rate=0.015320910973084885,
                mean_buffer_s=26.668666666666667, mean_quality=5.0)),
    (lambda p: run_buffered(3.0, [1_003_001], replace(
        p, one_way_us=2000, ack_delay_us=2000, packet_bytes=1000), seed=0),
     AppMetrics(app="buffered", handovers=1, throughput_mbps=7.976,
                retx_count=1, retx_rate=0.00033400133600534405,
                mean_buffer_s=25.494, mean_quality=5.0)),
])
def test_immediate_ack_metrics_unchanged(run, expected):
    assert run(TransportParams(ack_delay_us=0)) == expected


def test_ack_delay_above_one_way_paced_send_sees_the_acks_path():
    # one_way_us < ack_delay_us: the first chunk's last two packets are
    # delivered at 999,400 and 1,000,400, and the client moves at
    # 1,000,401, before the first of their acks leaves (1,001,400). That
    # ack arrives at 1,002,100 with the new address, in the µs of the next
    # chunk's paced send j = 1, scheduled at 1,001,100. Keyed at the
    # delivery, the ack fires first and the send goes to the new path.
    # Keyed when the ack left, the send fired first and was lost, and
    # retx_count was 2.
    params = TransportParams(one_way_us=700, ack_delay_us=2000,
                             packet_bytes=1000)
    m = run_buffered(3.0, [1_000_401], params, seed=0)
    assert m.handovers == 1
    assert m.retx_count == 1


def test_keepalive_tick_and_timeout_in_one_us_metrics_unchanged():
    # one_way_us = 700 and ack_delay_us = 2000 give a first RTO of 6800
    # µs, the keepalive interval: a tick and a timeout share µs 606,300.
    # Pinned from the model that scheduled each timeout at its send.
    params = TransportParams(one_way_us=700, ack_delay_us=2000,
                             keepalive_interval_us=6800)
    m = run_buffered(4.0, [600_000, 1_420_000, 2_240_000], params, seed=1)
    assert m == AppMetrics(
        app="buffered", handovers=3, throughput_mbps=7.9968, retx_count=5,
        retx_rate=0.0014979029358897543, mean_buffer_s=25.996999999999996,
        mean_quality=5.0)


@pytest.mark.parametrize("duration_s", [0, -1, 1e-9, float("nan"),
                                        float("inf"), 1e9])
def test_buffered_and_live_reject_bad_duration(duration_s):
    with pytest.raises(ValueError, match="duration_s"):
        run_buffered(duration_s, [])
    with pytest.raises(ValueError, match="duration_s"):
        run_live(duration_s, [])


@pytest.mark.parametrize("run", [
    lambda: run_bulk(16_000_000, [1_000_000], seed=1),
    lambda: run_buffered(40.0, [1_000_000], seed=1),
    lambda: run_live(240.0, [80_000_000], Policy.PASSIVE_ONLY, seed=1),
    lambda: run_live(240.0, [80_000_000], Policy.PING_ON_IDLE, seed=1),
], ids=["bulk", "buffered", "live_passive", "live_ping"])
def test_an_app_run_leaves_no_reference_cycle(run):
    # every object the run made is freed by reference counting when it
    # returns, so peak RSS does not depend on when a collection runs
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("policy", ["PingOnIdle", Policy.PING_ON_IDLE])
def test_live_takes_a_policy_or_its_value(policy):
    m = run_live(2.0, [], policy=policy)
    assert m.policy == "PingOnIdle"


def test_live_rejects_an_unknown_policy_before_it_runs(monkeypatch):
    def no_run(*args):
        raise AssertionError("the stream ran")

    monkeypatch.setattr(_DownlinkServer, "__init__", no_run)
    with pytest.raises(ValueError, match="PingAlways"):
        run_live(2.0, [], policy="PingAlways")


@pytest.mark.parametrize("frame_interval_us",
                         [0, -5, 41_666.5, 41_667.0, True])
def test_live_rejects_bad_frame_interval(frame_interval_us):
    with pytest.raises(ValueError, match="frame_interval_us"):
        run_live(2.0, [], frame_interval_us=frame_interval_us)


@pytest.mark.parametrize("time_us", [-5, math.nan, 1.5, math.inf, True])
@pytest.mark.parametrize("run", [
    lambda t: run_bulk(1200, [t]),
    lambda t: run_buffered(2.0, [t]),
    lambda t: run_live(1.0, [t]),
], ids=["bulk", "buffered", "live"])
def test_apps_reject_bad_handover_times(run, time_us):
    with pytest.raises(ValueError, match="handover_times_us"):
        run(time_us)


@pytest.mark.parametrize("file_bytes", [10**12, float("inf"), 0, -5, -1e9])
def test_bulk_rejects_a_file_above_the_packet_bound(file_bytes):
    reason = "keep a run" if file_bytes > 0 else "be positive"
    with pytest.raises(ValueError, match=f"file_bytes must {reason}"):
        run_bulk(file_bytes, [])


def test_cli_defaults_and_bench_sizes_are_within_the_packet_bound():
    params = TransportParams()
    for packets in (bulk_packets(100e6, params), bulk_packets(16e6, params),
                    buffered_packets(60.0, params),
                    buffered_packets(40.0, params),
                    live_frames(10.0), live_frames(240.0)):
        assert packets <= MAX_PACKETS_PER_RUN
