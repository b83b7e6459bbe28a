"""
Mobility-tolerant transport model and instrumented toy applications.

The transport uses passive migration: a client may change path at any
time, and the server only learns the new path from the client's own
packets. A path is the client's move count: the client starts on path 0
and each move takes it to the next. Packets the server sends to a stale
path are lost unless forwarding is on and the base station the client
left still forwards, for forwarding_ttl_us after the move. Three
applications probe the consequences: bulk transfer (continuous downlink,
worst-case loss), buffered adaptive-bitrate video (bursty, mild loss),
and live streaming (pure subscriber, which can deadlock without the ping
fix). One server carries all three apps' downlink: the same transmit,
ack and path learning, with retransmission for bulk and video only.
"""
import enum
import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from heapq import heappush

from .addressing import FORWARDING_TTL_US
from .kernel import Simulator, US_PER_S


class Policy(str, enum.Enum):
    PASSIVE_ONLY = "PassiveOnly"
    PING_ON_IDLE = "PingOnIdle"


@dataclass
class TransportParams:
    one_way_us: int = 20_000
    bandwidth_mbps: float = 40.0
    packet_bytes: int = 1200
    ack_delay_us: int = 2_000
    keepalive_interval_us: int = 25_000
    forwarding_enabled: bool = False
    forwarding_ttl_us: int = FORWARDING_TTL_US
    give_up_us: int = 5_000_000
    idle_deadline_factor: float = 1.5

    def __post_init__(self):
        for name in ("one_way_us", "bandwidth_mbps", "packet_bytes",
                     "keepalive_interval_us", "forwarding_ttl_us",
                     "give_up_us", "idle_deadline_factor"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}")
        # an ack may leave at once
        if not 0 <= self.ack_delay_us < math.inf:
            raise ValueError("ack_delay_us must be nonnegative and finite,"
                             f" got {self.ack_delay_us}")
        # simulated time is whole µs, and a packet whole bytes
        for name, unit in (("one_way_us", "us"), ("ack_delay_us", "us"),
                           ("keepalive_interval_us", "us"),
                           ("forwarding_ttl_us", "us"), ("give_up_us", "us"),
                           ("packet_bytes", "bytes")):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(
                    f"{name} must be a whole number of {unit}, got {value!r}")

    @property
    def rtt_us(self):
        return 2 * self.one_way_us + self.ack_delay_us

    @property
    def rto_us(self):
        return 2 * self.rtt_us

    def packet_interval_us(self, rate_mbps=None):
        rate = self.bandwidth_mbps if rate_mbps is None else rate_mbps
        return max(1, round(self.packet_bytes * 8 / rate))


@dataclass
class AppMetrics:
    app: str
    policy: str = ""
    handovers: int = 0
    throughput_mbps: float = 0.0
    retx_count: int = 0
    retx_rate: float = 0.0
    stall_s: float = 0.0
    mean_buffer_s: float = 0.0
    mean_quality: float = 0.0
    frames_delivered: int = 0
    fps: float = 0.0
    deadlocked: bool = False
    pings: int = 0

    def to_csv_row(self):
        return (self.app, self.policy, self.handovers,
                round(self.throughput_mbps, 3), round(self.retx_rate, 5),
                round(self.stall_s, 3), round(self.mean_buffer_s, 3),
                round(self.mean_quality, 3), round(self.fps, 3),
                int(self.deadlocked))


class MobilityNet:
    """The client's path (`path`, its move count), the path of the last
    client packet the server received (`server_path`) and the sorted
    times of its moves (`move_times`). Moves fire in time order, so the
    client left path k at `move_times[k]`."""

    def __init__(self, params):
        self.params = params
        self.path = 0
        self.server_path = 0
        self.move_times = []

    def migrate(self):
        """The client moves to the next path; the server is not told."""
        self.path += 1

    def address_at(self, later_us):
        """The client's path at `later_us`, no earlier than now: the count
        of moves due by then. Every move is a set-up event, so a move due
        at `later_us` fires before any event the run schedules for that
        µs, and `path` now equals the count of moves due by now."""
        return bisect_right(self.move_times, later_us)

    def reaches_client(self, dest, arrival_us):
        """Can a packet sent to path `dest` reach the client at this time?
        An older path's base station forwards to the next path until
        forwarding_ttl_us after the client left it, so a packet follows
        the chain from `dest` while every hop is live. The client leaves
        its paths in time order and every hop has the same TTL, so the
        first hop expires first: the chain is live while it is.
        `_DownlinkServer._data_arrives` makes the first test itself and
        calls this only for a path the client has left."""
        if dest == self.path:
            return True
        params = self.params
        return (params.forwarding_enabled and arrival_us
                < self.move_times[dest] + params.forwarding_ttl_us)


class _DownlinkServer:
    """One server carries every app's downlink over one connection to a
    mobile client: unreliable sends to the last-known path, reliable sends
    with a doubling retransmission timer that is scheduled only when a
    transmission is lost, and path learning from every client packet
    (acks, requests, keepalives, pings).

    Data and client-packet arrivals are each due one_way_us after their
    send, so the server queues them in its own one-way FIFO, `_one_way`,
    a FIFO of heap entries that the drain serves as it serves a lane's
    (see the `kernel` module docstring). `transmit`, `send_reliable` and
    `client_packet` each append (now + one_way_us, seq, action, FIFO,
    data) themselves, taking the seq from the simulator's counter, and
    push the entry onto the heap only when the FIFO was empty. The check
    that `Lane.schedule` makes cannot fail here: `now` is an int and
    never decreases, and one_way_us is a positive int (`TransportParams`
    checks it), so the entry's time is an int after `now` and no earlier
    than the FIFO's last. A timeout is due a fixed delay after its send,
    not after the loss that schedules it, so it goes to
    `Simulator.schedule`, as does an ack (at most one per move). The
    apps' sends on a fixed grid (bulk packets, a chunk's paced packets and
    live frames) are each one train (see `kernel.Train`), keyed when it is
    made, whose action is `transmit` or `send_reliable` itself.

    No packet makes a closure. A data packet's arrival runs one bound
    method, `_data_arrives`, with (dest path, send µs, RTO or None) as
    its data; a client packet's runs `_client_arrives` with the client's
    path at its send. Each method is bound once per server.

    A delivered packet costs two events, the send and the arrival, and a
    third if it sends an ack (below). Most cost two Python calls, one per
    event. A packet sent to the client's current path reaches it, so the
    arrival asks `MobilityNet.reaches_client` only about a packet sent to
    a path the client has left. It wakes the app only at the delivery the
    app waits for: the server counts its deliveries (`delivered`) and
    keeps the last one's time (`last_delivery_us`); an app sets
    `wake_count` to the count it waits for, and the arrival that makes
    `delivered` equal to it calls `on_wake(now)`. At 0, the start, no
    delivery wakes the app, since `delivered` is at least 1 after one.

    The ack leaves ack_delay_us after the delivery, from the address the
    move schedule gives for that µs, and all it does on arrival is set
    the server's path, `net.server_path`. An ack is an event scheduled at
    its delivery.

    A delivery sends its ack only if the ack's path differs from the last
    sent ack's (at first, the server's starting path 0); any other ack
    writes nothing a read can see. Every write to the server's path, an
    ack or a client packet, arrives one_way_us after it leaves and carries
    the client's path at that moment, and moves only raise that path, so
    in (time, seq) order the writes never go down: every write between two
    acks with the same path carries that path, and the second one changes
    no read. The server keeps the µs at which the client leaves the last
    sent ack's path (`move_times[path]`, or inf), so a delivery whose ack
    leaves before it compares one int. A run with k moves sends at most k
    acks, and so at most k ack events. The argument needs one return delay
    for every write and an ack that only writes the path: a delay per
    path, or acks that drive congestion control, must revisit it.

    Packets carry no id and the server keeps none: it counts deliveries.
    A packet is delivered at most once (see `send_reliable`), so every
    delivery is a packet's first.

    The server's bound methods, the app's callback and the pending
    events hold the server in reference cycles; each run ends with
    `close`, which drops them."""

    def __init__(self, params, seed):
        self.sim = Simulator(seed)
        # data and client-packet arrivals are both one_way_us away
        self._one_way = deque()  # their heap entries; the first is in the heap
        self._one_way_us = params.one_way_us
        self._first_rto_us = params.rto_us
        # the one-way arrivals' actions, bound once
        self._arrive = self._data_arrives
        self._client_arrive = self._client_arrives
        self._ack_delay_us = params.ack_delay_us
        # when the client leaves the last sent ack's path (at first the
        # server's own path 0): an ack that leaves before it is not sent
        self._path_left_us = math.inf
        self._moves_set = False  # schedule_handovers has been called
        self._alive = None  # keep_alive's (running, busy)
        self.net = MobilityNet(params)
        self.params = params
        self.handovers = 0
        self.delivered = 0
        self.last_delivery_us = 0
        self.retx_count = 0
        self.tx_count = 0
        self.wake_count = 0  # the delivery count that calls on_wake
        self.on_wake = None  # callback(now)

    def schedule_handovers(self, times_us, active):
        """The client moves at each time; the server is not told. A move
        counts as a handover of the app while `active()` holds. Call it
        once, during set-up: acks read their address from these times (see
        `MobilityNet.address_at`), and a second call, whose moves would
        fire beside the first call's, raises ValueError. Each time must be
        a whole number of µs, at or after 0."""
        if self._moves_set:
            raise ValueError("schedule_handovers may be called only once")
        for t in times_us:
            if not (type(t) is int and t >= 0):
                raise ValueError("handover_times_us must be nonnegative whole"
                                 f" numbers of us, got {t!r}")
        self._moves_set = True

        def migrate(sim):
            if active():
                self.handovers += 1
            self.net.migrate()

        for t in times_us:
            self.sim.schedule(t, migrate)
        move_times = self.net.move_times = sorted(times_us)
        self._path_left_us = move_times[0] if move_times else math.inf

    def transmit(self, sim, _k=None):
        """One unreliable send to the last-known path, such as a live
        frame; a train's action (see `kernel.Train`)."""
        self.tx_count += 1
        now = sim.now
        fifo = self._one_way
        entry = (now + self._one_way_us, sim._seq, self._arrive, fifo,
                 (self.net.server_path, now, None))
        sim._seq += 1
        if not fifo:
            heappush(sim._queue, entry)
        fifo.append(entry)

    def send_reliable(self, sim, _k=None, rto_us=None):
        """Transmit until delivered, doubling the timeout after each loss.
        A train calls it for a packet's first transmission, whose timeout
        is the first RTO, read once per run; a timeout calls it with
        `rto_us` for the retransmission.

        A delivered transmission's ack arrives rtt_us after the send, and
        client packets are never lost, so a timeout at send + rto_us
        (rto_us is at least the first RTO, 2 * rtt_us) would fire after
        the ack and do nothing: only a lost transmission schedules its
        timeout, when its arrival finds the client unreachable. Each
        retransmission is made only by the timeout of the transmission
        before it, which was lost. A packet therefore has at most one
        transmission in flight, is delivered at most once, and has no ack
        when its timeout fires: the timeout retransmits without a check.

        That timeout fires in the same µs as one scheduled at the send,
        but takes its seq at the loss (send + one_way_us), so only an event
        due in that µs and scheduled in between could swap order with it.
        The first RTO is 4 * one_way_us + 2 * ack_delay_us, which rules out
        every kind but one: data arrivals and client-packet arrivals cannot
        land in that µs; an ack's arrival, keyed at its delivery d, shares
        a timeout's µs only if d + ack_delay_us + one_way_us = send +
        rto_us, so d >= send + 3 * one_way_us + ack_delay_us, after the
        loss, and it takes its seq after the timeout either way; bulk
        sends and live frames are keyed at set-up by a train, and moves
        are scheduled then; buffered chunk activity starts only when no
        loss is pending. The one left is a keepalive tick, when the
        interval lies in [rto_us - one_way_us, rto_us]. A tick and a
        timeout commute: the timeout reads `server_path` and the tick does
        not write it, and their arrivals one one_way_us later touch
        disjoint state."""
        self.tx_count += 1
        now = sim.now
        fifo = self._one_way
        entry = (now + self._one_way_us, sim._seq, self._arrive, fifo,
                 (self.net.server_path, now, rto_us or self._first_rto_us))
        sim._seq += 1
        if not fifo:
            heappush(sim._queue, entry)
        fifo.append(entry)

    def _data_arrives(self, sim, packet):
        """The arrival of a data packet, (dest path, send µs, RTO or
        None). If it reaches the client, deliver it: count it, keep its
        time, send its ack if the ack leaves at or after the µs the client
        leaves the last sent ack's path (only then does it move the
        server's path when it arrives; see the class docstring), and wake
        the app if this is the delivery it waits for. If not, and the
        packet is reliable, schedule its timeout."""
        dest, sent_at, rto_us = packet
        now = sim.now
        net = self.net
        if dest == net.path or net.reaches_client(dest, now):
            delivered = self.delivered = self.delivered + 1
            self.last_delivery_us = now
            leaves = now + self._ack_delay_us
            if leaves >= self._path_left_us:
                path = net.address_at(leaves)
                self._ack(leaves + self._one_way_us, path)
                move_times = net.move_times
                self._path_left_us = (move_times[path]
                                      if path < len(move_times) else math.inf)
            if delivered == self.wake_count:
                self.on_wake(now)
        elif rto_us is not None:
            self._lost(sent_at, rto_us)

    def _lost(self, sent_at, rto_us):
        """Schedule the retransmission of a packet sent at `sent_at` whose
        transmission was lost (see `send_reliable`). Its closure is made
        here, so an arrival that reaches the client makes no cell."""
        def timeout(sim):
            self.retx_count += 1
            self.send_reliable(sim, rto_us=rto_us * 2)

        self.sim.schedule(sent_at + rto_us, timeout)

    def _ack(self, arrives_us, path):
        """Schedule the arrival of an ack from `path`, which moves the
        server's path there. Its closure is made here, as in `_lost`, so
        a data arrival makes no cell."""
        net = self.net

        def ack_arrives(sim):
            net.server_path = path

        self.sim.schedule(arrives_us, ack_arrives)

    def client_packet(self):
        """A client packet (a request, a keepalive or a ping) leaves from
        the client's path at this instant and moves the server's path
        there on arrival."""
        sim = self.sim
        fifo = self._one_way
        entry = (sim.now + self._one_way_us, sim._seq, self._client_arrive,
                 fifo, self.net.path)
        sim._seq += 1
        if not fifo:
            heappush(sim._queue, entry)
        fifo.append(entry)

    def _client_arrives(self, sim, path):
        """A client packet sent from `path` arrives."""
        self.net.server_path = path

    def keep_alive(self, running, busy):
        """A client mid-download is never idle: a window update every
        keepalive interval while `busy()`, ticking while `running()`. The
        first tick is jittered."""
        self._alive = (running, busy)
        self.sim.schedule(
            self.sim.rng.randrange(self.params.keepalive_interval_us),
            self._tick)

    def _tick(self, sim):
        """A keepalive tick. A method, since a closure that schedules
        itself would be a reference cycle."""
        running, busy = self._alive
        if running():
            if busy():
                self.client_packet()
            sim.schedule(sim.now + self.params.keepalive_interval_us,
                         self._tick)

    def close(self):
        """End the run: drop the pending events, with the packets in
        flight that their entries carry, and the bound methods and
        callbacks that hold the server, so the run's objects are freed
        when it returns, with no collection."""
        self.sim.close()
        self._arrive = self._client_arrive = self._alive = self.on_wake = None

    def metrics(self, app, **fields):
        return AppMetrics(app=app, handovers=self.handovers,
                          retx_count=self.retx_count,
                          retx_rate=self.retx_count / max(1, self.tx_count),
                          **fields)


# The most packets (or live frames) one app run may send. A packet costs
# about 2.5-4.5 µs of run time, so a run at the bound takes up to about
# 4.5 s (measured at 200,000 packets per app on a 2-CPU x86-64 host,
# Python 3.11, five runs each: bulk 2.8-3.5, buffered 2.4-3.7, live
# 3.1-4.5 µs).
MAX_PACKETS_PER_RUN = 1_000_000
FRAME_INTERVAL_US = 41_667  # a live stream's 24 frames per second


def bulk_packets(file_bytes, params):
    """The packets a bulk run of `file_bytes` sends, before rounding up."""
    return file_bytes / params.packet_bytes


def buffered_packets(duration_s, params):
    """The packets a buffered run of `duration_s` sends at the top rung,
    the most it can fetch."""
    return duration_s * DEFAULT_LADDER[-1][1] / (8 * params.packet_bytes)


def live_frames(duration_s, frame_interval_us=FRAME_INTERVAL_US):
    """The frames a live run of `duration_s` sends."""
    return duration_s * US_PER_S / frame_interval_us


def check_packets(name, value, packets):
    """Raise ValueError, naming `name`, if a run of size `value` sends
    more than MAX_PACKETS_PER_RUN packets. `packets` is a float count, so
    an infinite size is caught before any rounding."""
    if not packets <= MAX_PACKETS_PER_RUN:
        raise ValueError(f"{name} must keep a run at most"
                         f" {MAX_PACKETS_PER_RUN} packets, got {value}"
                         f" ({packets:.3g} packets)")


def run_bulk(file_bytes, handover_times_us, params=None, seed=0):
    """Reliable download of a single file; one continuous packet train."""
    if not file_bytes > 0:
        raise ValueError(f"file_bytes must be positive, got {file_bytes}")
    params = params or TransportParams()
    packets = bulk_packets(file_bytes, params)
    check_packets("file_bytes", file_bytes, packets)
    server = _DownlinkServer(params, seed)
    sim = server.sim

    n_packets = max(1, math.ceil(packets))
    interval = params.packet_interval_us()
    finish_us = [None]

    def finished(now):
        finish_us[0] = now

    def downloading():
        return server.delivered < n_packets

    server.wake_count = n_packets
    server.on_wake = finished
    sim.train(0, interval, n_packets, server.send_reliable)
    server.schedule_handovers(handover_times_us, downloading)
    server.keep_alive(downloading, downloading)

    horizon = n_packets * interval * 4 + 60 * US_PER_S
    sim.run_until(horizon)
    server.close()
    done = finish_us[0] if finish_us[0] else horizon
    return server.metrics(
        "bulk", throughput_mbps=file_bytes * 8 / done if done else 0.0)


# (level, bitrate bps): one rung more than BUFFER_THRESHOLDS_S has entries
DEFAULT_LADDER = [(1, 1.0e6), (2, 1.5e6), (3, 2.0e6), (4, 3.0e6), (5, 4.0e6)]
BUFFER_THRESHOLDS_S = (5.0, 10.0, 15.0, 20.0)
CHUNK_DURATION_S = 2.0
BUFFER_CAP_S = 40.0
INITIAL_BUFFER_S = 25.0
PACE_MBPS = 8.0


def _check_duration(duration_s):
    # simulated time is whole microseconds, so a shorter run has no time
    if not 1 / US_PER_S <= duration_s < math.inf:
        raise ValueError("duration_s must be at least 1 us and finite,"
                         f" got {duration_s}")


def select_level(buffer_s):
    """Buffer-based rung selection: more buffer, higher quality."""
    return DEFAULT_LADDER[sum(1 for t in BUFFER_THRESHOLDS_S if buffer_s >= t)]


def run_buffered(duration_s, handover_times_us, params=None, seed=0):
    """Buffered ABR playback. The buffer starts primed (steady-state
    window), so ample bandwidth keeps the top rung throughout."""
    _check_duration(duration_s)
    params = params or TransportParams()
    check_packets("duration_s", duration_s,
                  buffered_packets(duration_s, params))
    server = _DownlinkServer(params, seed)
    sim = server.sim

    state = {
        "buffer_s": INITIAL_BUFFER_S,
        "last_update": 0,
        "stall_us": 0,
        "qualities": [],
        "buffer_integral": 0.0,  # buffer-seconds, for the time average
    }
    duration_us = round(duration_s * US_PER_S)
    pace_interval = params.packet_interval_us(PACE_MBPS)

    def update_buffer(now):
        dt = (now - state["last_update"]) / US_PER_S
        if dt <= 0:
            return
        buf = state["buffer_s"]
        if dt <= buf:
            state["buffer_integral"] += buf * dt - dt * dt / 2
            state["buffer_s"] = buf - dt
        else:
            state["buffer_integral"] += buf * buf / 2
            state["stall_us"] += round((dt - buf) * US_PER_S)
            state["buffer_s"] = 0.0
        state["last_update"] = now

    def request_chunk(sim):
        if sim.now >= duration_us:
            return
        update_buffer(sim.now)
        if state["buffer_s"] > BUFFER_CAP_S - CHUNK_DURATION_S:
            wait = round((state["buffer_s"] - (BUFFER_CAP_S - CHUNK_DURATION_S))
                         * US_PER_S)
            sim.schedule(sim.now + wait, request_chunk)
            return
        level, bitrate = select_level(state["buffer_s"])
        state["qualities"].append(level)
        chunk_bytes = bitrate * CHUNK_DURATION_S / 8
        n_pkts = max(1, math.ceil(chunk_bytes / params.packet_bytes))
        # wake at the chunk's last packet: request_chunk runs as one
        # chain, re-armed once per completed chunk, so at most one chunk
        # is in flight and every delivery belongs to it
        server.wake_count = server.delivered + n_pkts
        server.client_packet()  # the chunk request

        def start_sending(s):
            s.train(s.now, pace_interval, n_pkts, server.send_reliable)

        sim.schedule(sim.now + params.one_way_us, start_sending)

    def chunk_delivered(now):
        update_buffer(now)
        state["buffer_s"] += CHUNK_DURATION_S
        sim.schedule(now, request_chunk)

    def playing():
        return sim.now < duration_us

    server.on_wake = chunk_delivered
    sim.schedule(0, request_chunk)
    server.schedule_handovers(handover_times_us, playing)
    # busy while the requested chunk has packets to deliver
    server.keep_alive(playing, lambda: server.delivered < server.wake_count)
    sim.run_until(duration_us)
    update_buffer(duration_us)
    server.close()
    del request_chunk  # it schedules itself: a reference cycle

    return server.metrics(
        "buffered",
        stall_s=state["stall_us"] / US_PER_S,
        mean_buffer_s=state["buffer_integral"] / duration_s,
        mean_quality=(sum(state["qualities"]) / len(state["qualities"])
                      if state["qualities"] else 0.0),
        throughput_mbps=(server.delivered * params.packet_bytes * 8
                         / duration_us))


def run_live(duration_s, handover_times_us, policy=Policy.PASSIVE_ONLY,
             params=None, seed=0, frame_interval_us=FRAME_INTERVAL_US):
    """Live stream: the server pushes frames on a fixed cadence and the
    client sends nothing but acks (and pings, under the idle policy).
    Frames are not retransmitted; loss shows up as missing frames, and a
    stale path with no recovery shows up as a deadlock."""
    policy = Policy(policy)
    _check_duration(duration_s)
    if not (type(frame_interval_us) is int and frame_interval_us > 0):
        raise ValueError("frame_interval_us must be a positive whole number"
                         f" of us, got {frame_interval_us!r}")
    check_packets("duration_s", duration_s,
                  live_frames(duration_s, frame_interval_us))
    params = params or TransportParams()
    server = _DownlinkServer(params, seed)
    sim = server.sim
    duration_us = round(duration_s * US_PER_S)
    idle_deadline = round(params.idle_deadline_factor * frame_interval_us)

    state = {"pings": 0, "ping_muted_until": -1}
    n_frames = duration_us // frame_interval_us
    last_send_us = (n_frames - 1) * frame_interval_us
    last_arrival_us = last_send_us + params.one_way_us

    def check(s):
        if s.now >= last_arrival_us:
            return  # stream over; nothing left to expect
        if server.last_delivery_us + idle_deadline > s.now:
            return  # a frame arrived in the meantime; its delivery re-armed us
        if s.now < state["ping_muted_until"]:
            return
        # missed deadline: one ping from the current address
        state["pings"] += 1
        state["ping_muted_until"] = s.now + idle_deadline + params.rtt_us
        server.client_packet()
        s.schedule(s.now + idle_deadline + params.rtt_us, check)

    def arm_deadline(now):
        """Wait idle_deadline for a delivery, and wake at the next one."""
        server.wake_count += 1
        sim.schedule(now + idle_deadline, check)

    sim.train(0, frame_interval_us, n_frames, server.transmit)
    server.schedule_handovers(handover_times_us, lambda: sim.now < duration_us)
    # a passive stream wakes at no delivery: it reads last_delivery_us
    if policy == Policy.PING_ON_IDLE:
        server.on_wake = arm_deadline
        arm_deadline(0)

    sim.run_until(duration_us + params.give_up_us)
    server.close()
    del check  # it schedules itself: a reference cycle

    # deadlocked: the stream went permanently silent mid-run, i.e. frames
    # kept being pushed for at least the give-up horizon past the last
    # delivery and none arrived
    delivered = server.delivered
    deadlocked = (delivered < server.tx_count
                  and server.last_delivery_us + params.give_up_us
                  <= last_send_us)
    return server.metrics("live", policy=policy.value,
                          frames_delivered=delivered,
                          fps=delivered / duration_s, deadlocked=deadlocked,
                          pings=state["pings"])
