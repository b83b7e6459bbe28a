"""
Deterministic discrete-event simulation kernel.

Time is an integer count of simulated microseconds. Events are totally
ordered by (time, insertion sequence), so runs with the same seed and
scenario produce identical results; a scheduled event cannot be
cancelled. Events scheduled in time order can go through a FIFO of heap
entries (below), which keeps only its earliest event in the heap. A
series on a fixed grid, start + k·interval for k < count, is one
`Train`: it is keyed once, when it is made, and only its next event is
in the heap. The drain fires each event with one heap operation: it pops
a plain event, and replaces a FIFO's or a train's event with its
successor before the action runs.

A FIFO of heap entries is a deque of entries (time, seq, action, FIFO),
owned by whatever makes its events. To queue an event, the owner builds
its entry with the simulator's next seq (`_seq`, which it then
increments), pushes the entry onto the heap (`_queue`) only if the FIFO
is empty, and appends it. The time must be an int, no earlier than `now`
and than the FIFO's last entry; an owner that does not check this states
why it cannot fail. Then the keys within a FIFO strictly increase, and
an entry that is not in the heap has an earlier entry of its own FIFO
there, with a smaller key. The drain fires the head and puts the next
entry in its place, so the heap's minimum is the minimum over every
pending event, and events fire in the same (time, insertion) order as
if each had been scheduled on the simulator directly. `Lane.schedule`
follows this with the checks; `Simulator.send` (a node's completions)
and `transport._DownlinkServer` (its one-way arrivals) follow it without
them.

Nodes are capacity-limited FIFO servers. A node owns its inbound
latency and loss: every message sent to it takes the node's latency to
arrive and is dropped with the node's loss probability. Since one node
has one latency, messages reach a node in the order they were sent to
it, and `send` fixes a message's service slot when it is sent: its only
event is its completion, which takes its key at send time. Completions
due in the same microsecond at different nodes therefore fire in send
order, which is their arrival order when every node has the same
latency. An exponential service time is drawn at send time. A node's
completions fall due at strictly increasing times in send order, so each
is queued in the node's own completion FIFO of heap entries, and the
message waits in the node's inbox: no closure is made per message, and
the heap holds at most one completion per node.

`Simulator.close` ends a simulation: it drops every pending event, with
whatever the events captured, and the reference cycles through the
simulator.
"""
import random
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from math import inf
from operator import index

US_PER_S = 1_000_000


class SchedulingError(Exception):
    """Raised when an event is scheduled in the past, at a time that is not
    a whole number of µs (an int), or earlier than the last event of its
    lane, when a train's interval is negative or not an int or its count
    is negative, when a run's horizon is not an int, or when a message is
    sent to a node of another simulator or after `close`."""


@dataclass
class RunStats:
    """Snapshot of counters collected during a run: messages sent,
    delivered and dropped, `delivered_by_category` as {node id: messages
    that node delivered}, and one latency, send to completion in µs, per
    delivered message."""
    events_processed: int = 0
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    delivered_by_category: dict = field(default_factory=dict)
    latencies_us: list = field(default_factory=list)

    @property
    def in_flight(self):
        return self.sent - self.delivered - self.dropped


class Node:
    """Capacity-limited processing node with a FIFO service discipline,
    made by `Simulator.add_node`.

    Every message sent to it arrives `latency_us` (a whole number of µs,
    at least 0) after its send, unless it is dropped, with probability
    `loss_probability` in [0, 1]. It is served in 1 / service_rate
    seconds, rounded to a whole µs of at least 1, or in an exponential
    time of that mean with `exponential_service`; then `service_us` is
    None. A bad parameter raises ValueError naming it.

    `inbox` holds (latency, msg, on_delivered) for every message sent to
    it and not yet complete, in send order. `completions` holds their
    completions' heap entries, (time, seq, `complete`, `completions`), in
    the same order: a FIFO of heap entries (see the module docstring and
    `Simulator.send`). Each completion runs `complete`, which takes the
    head of `inbox`."""

    def __init__(self, node_id, service_rate, latency_us=0,
                 loss_probability=0.0, exponential_service=False):
        if not 0 < service_rate < inf:
            raise ValueError(
                f"service_rate must be positive and finite, got {service_rate}")
        if type(latency_us) is not int or latency_us < 0:
            raise ValueError("latency must be a nonnegative whole number of"
                             f" µs, got {latency_us!r}")
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1], got"
                             f" {loss_probability!r}")
        self.id = node_id
        self.service_rate = service_rate
        self.latency_us = latency_us
        self.loss_probability = loss_probability
        # a deterministic node serves every message in the same whole µs
        self.service_us = (None if exponential_service
                           else max(1, round(US_PER_S / service_rate)))
        self.busy_until = 0
        self.inbox = deque()
        self.completions = deque()
        self._owner = None  # its simulator, set by `add_node`; None after close
        self._complete = self.complete  # the completions' action, bound once

    def complete(self, sim):
        """The message at the head of `inbox` leaves service now."""
        latency_us, msg, on_delivered = self.inbox.popleft()
        stats = sim.stats
        stats.delivered += 1
        by_node = stats.delivered_by_category
        by_node[self.id] = by_node.get(self.id, 0) + 1
        stats.latencies_us.append(latency_us)
        if on_delivered is not None:
            on_delivered(sim, msg)


class Lane:
    """A checked FIFO of heap entries (see the module docstring) for
    events whose times never decrease in the order they are scheduled,
    such as every event a fixed delay after `now`.

    Only the lane's earliest pending event sits in the simulator's heap;
    when it fires, the drain replaces it with the next one. The heap
    stays as small as the number of busy lanes plus the events scheduled
    directly. A heap entry carries its lane's FIFO, so the drain loop
    needs no lane lookup. Each event takes the key (time, seq) that
    `Simulator.schedule` would give it, and `schedule` checks the time,
    so the FIFO's order argument holds.
    FIFOs stay for speed, not for order: when the transport's one-way
    arrivals went through a lane, pushing each on the heap directly
    instead, as `Simulator.schedule` does, gave the same results but a
    slower `mobility_apps` benchmark round (wall_s median 0.176 -> 0.199
    s, slower in 8 of 8 alternating 10 s pairs on a 2-CPU x86-64 host,
    Python 3.11).
    """

    __slots__ = ("_sim", "_pending", "_last")

    def __init__(self, sim):
        self._sim = sim
        self._pending = deque()  # heap entries; the first one is in the heap
        self._last = 0

    def schedule(self, at, action):
        """Schedule `action(sim)` at absolute time `at`, no earlier than
        the lane's last event."""
        sim = self._sim
        if type(at) is not int or not sim.now <= at or at < self._last:
            raise SchedulingError(
                f"cannot schedule at t={at!r} in a lane: times are whole µs,"
                f" now is t={sim.now}, the lane's last event is at"
                f" t={self._last}")
        pending = self._pending
        entry = (at, sim._seq, action, pending)
        sim._seq += 1
        self._last = at
        pending.append(entry)
        if len(pending) == 1:
            heappush(sim._queue, entry)


class Train:
    """`count` events on a fixed grid: `action(sim, k)` at start +
    k * interval for each k < count, made by `Simulator.train`.

    The train takes `count` consecutive seqs, seq0 to `last_seq`, from
    the simulator's counter when it is made, so event k has the key
    (start + k * interval, seq0 + k), the key `Simulator.schedule` would
    give it in a loop at that moment. Only the next event sits in the
    heap, as (time, seq, action, train). The drain replaces that entry
    with event k + 1's before it runs `action(sim, seq - seq0)`.

    Order: the keys within a train strictly increase, since times never
    decrease and seqs increase. An event that is not in the heap has an earlier
    event of its own train there, with a smaller key. The heap's minimum
    is therefore the minimum over every pending event, and events fire in
    the same (time, insertion) order as if each had been scheduled on the
    simulator directly when the train was made.
    """

    __slots__ = ("interval", "seq0", "last_seq")

    def __init__(self, interval, seq0, last_seq):
        self.interval = interval
        self.seq0 = seq0
        self.last_seq = last_seq


class Simulator:
    def __init__(self, seed=0):
        self.now = 0
        self.rng = random.Random(seed)
        self.nodes = {}
        self.stats = RunStats()
        self._queue = []
        self._seq = 0

    # -- topology ---------------------------------------------------------

    def add_node(self, node_id, *args, **kwargs):
        """Add and return `Node(node_id, *args, **kwargs)`: its service
        rate, inbound latency, loss probability and service discipline.
        A node that its checks reject is not added."""
        node = Node(node_id, *args, **kwargs)
        node._owner = self
        self.nodes[node_id] = node
        return node

    # -- event queue ------------------------------------------------------

    def schedule(self, at, action):
        """Schedule `action(sim)` at absolute time `at`. Events fire in
        (time, insertion) order; a scheduled event cannot be cancelled."""
        # an int is finite, and NaN and inf are floats
        if type(at) is not int or not self.now <= at:
            raise SchedulingError(f"cannot schedule at t={at!r}: times are"
                                  f" whole µs, now is t={self.now}")
        heappush(self._queue, (at, self._seq, action, None))
        self._seq += 1

    def lane(self):
        """A new FIFO lane for events scheduled in nondecreasing time."""
        return Lane(self)

    def train(self, start, interval, count, action):
        """Schedule `action(sim, k)` at start + k * interval for each
        k < count, with the keys `schedule` would give in a loop now (see
        `Train`). A count that is not an int raises TypeError, as in
        `range`; other bad input raises SchedulingError. Either way
        nothing is scheduled."""
        count = index(count)
        if not (type(start) is int and type(interval) is int
                and self.now <= start and interval >= 0 and count >= 0):
            raise SchedulingError(
                f"cannot schedule {count} events from t={start!r} every"
                f" {interval!r} µs: times are whole µs, now is t={self.now}")
        if count:
            seq0 = self._seq
            self._seq += count
            heappush(self._queue, (start, seq0, action,
                                   Train(interval, seq0, seq0 + count - 1)))

    def send(self, node, msg, on_delivered=None):
        """Send msg into the service queue of `node`, a `Node` that this
        simulator's `add_node` returned, unless the node's loss drops it.
        Any other node, or any node after `close`, raises SchedulingError
        naming it, and nothing is counted.

        on_delivered(sim, msg) fires when the node finishes servicing the
        message. Every message into a node takes the node's one latency,
        so no message sent later can reach it before this one: its service
        slot is fixed now, and its completion is its only event, keyed at
        send time. An exponential service time is drawn now.

        A completion is done = max(busy_until, now + latency) + service,
        with service at least 1 µs, so a node's completions are due at
        strictly increasing times in send order, exponential service
        included. Its heap entry is queued in the node's `completions`, a
        FIFO of heap entries (see the module docstring), so the heap holds
        at most one completion per node, and the message waits in the
        node's `inbox`: no closure is made per message.

        The FIFO's time check is not made, and cannot fail here: `done` is
        an int, as `now`, the latency and the service are; it is greater
        than `now`, since the service is at least 1 µs; and it is greater
        than the node's previous completion, `busy_until`.
        """
        if node._owner is not self:
            raise SchedulingError(
                f"cannot send to node {node.id!r}: it is not a node of this"
                " simulator, or the simulator is closed")
        stats = self.stats
        stats.sent += 1
        loss_probability = node.loss_probability
        if loss_probability > 0.0 and self.rng.random() < loss_probability:
            stats.dropped += 1
            return
        sent_at = self.now
        service = node.service_us
        if service is None:
            service = round(self.rng.expovariate(node.service_rate) * US_PER_S)
            if service < 1:
                service = 1
        start = node.busy_until
        arrival = sent_at + node.latency_us
        if arrival > start:
            start = arrival
        done = start + service
        node.busy_until = done
        node.inbox.append((done - sent_at, msg, on_delivered))
        fifo = node.completions
        entry = (done, self._seq, node._complete, fifo)
        self._seq += 1
        if not fifo:
            heappush(self._queue, entry)
        fifo.append(entry)

    def close(self):
        """End the simulation: drop every pending event (the heap, the
        queued events of every FIFO of heap entries with an event in it,
        and the nodes' queued messages) and each node's simulator and
        completion method, which
        hold the simulator and the node. What the events captured is freed
        with them, so nothing closes a reference cycle through the
        simulator. A message sent after it raises SchedulingError."""
        for entry in self._queue:
            if type(entry[3]) is deque:
                entry[3].clear()
        self._queue.clear()
        for node in self.nodes.values():
            node.inbox.clear()
            node._owner = node._complete = None

    def _drain(self, t_end):
        """Execute every event with time <= t_end, in (time, insertion)
        order. Each event leaves the heap, or gives its place to its FIFO's
        or train's next one, before its action runs."""
        queue = self._queue
        pop = heappop
        replace = heapreplace
        events = 0
        try:
            while queue:
                at, seq, action, tail = queue[0]
                if at > t_end:
                    break
                self.now = at
                events += 1
                if tail is None:
                    pop(queue)
                    action(self)
                elif type(tail) is Train:
                    if seq < tail.last_seq:
                        replace(queue, (at + tail.interval, seq + 1, action,
                                        tail))
                    else:
                        pop(queue)
                    action(self, seq - tail.seq0)
                else:
                    tail.popleft()
                    if tail:
                        replace(queue, tail[0])
                    else:
                        pop(queue)
                    action(self)
        finally:
            self.stats.events_processed += events

    def run_until(self, t_end):
        """Execute every event with time <= t_end; returns the stats so
        far. The horizon is a time, a whole number of µs, so `now` stays
        one: `run` drains the queue."""
        if type(t_end) is not int:
            raise SchedulingError(
                f"run_until needs a whole-µs horizon, got {t_end!r}")
        self._drain(t_end)
        self.now = max(self.now, t_end)
        return self.stats

    def run(self):
        """Run until the event queue drains; `now` is the last event's
        time."""
        self._drain(inf)
        return self.stats
