"""
Deterministic discrete-event simulation kernel.

Time is an integer count of simulated microseconds. Events are totally
ordered by (time, insertion sequence), so runs with the same seed and
scenario produce identical results. Nodes are capacity-limited FIFO
servers; links add latency and may drop messages probabilistically.
"""
import heapq
import math
import random
from dataclasses import dataclass, field

US_PER_S = 1_000_000


class SchedulingError(Exception):
    """Raised when an event is scheduled in the past or at NaN."""


class RoutingError(Exception):
    """Raised when no link exists between two nodes."""


@dataclass
class RunStats:
    """Snapshot of counters collected during a run."""
    events_processed: int = 0
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    delivered_by_category: dict = field(default_factory=dict)
    latencies_us: list = field(default_factory=list)

    @property
    def in_flight(self):
        return self.sent - self.delivered - self.dropped

    def mean_latency_us(self):
        if not self.latencies_us:
            return 0.0
        return sum(self.latencies_us) / len(self.latencies_us)

    def to_csv_rows(self):
        """Rows of (metric, category, value)."""
        rows = [
            ("events_processed", "", self.events_processed),
            ("sent", "", self.sent),
            ("delivered", "", self.delivered),
            ("dropped", "", self.dropped),
            ("in_flight", "", self.in_flight),
        ]
        for cat in sorted(self.delivered_by_category):
            rows.append(("delivered", cat, self.delivered_by_category[cat]))
        rows.append(("mean_latency_us", "", self.mean_latency_us()))
        return rows


class EventHandle:
    """Permits cancelling a scheduled event before it fires."""

    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class Node:
    """Capacity-limited processing node with a FIFO service discipline."""

    def __init__(self, node_id, service_rate, exponential_service=False):
        if not 0 < service_rate < math.inf:
            raise ValueError(
                f"service_rate must be positive and finite, got {service_rate}")
        self.id = node_id
        self.service_rate = service_rate
        self.exponential_service = exponential_service
        self.busy_until = 0
        self.processed = 0


class Simulator:
    def __init__(self, seed=0):
        self.now = 0
        self.rng = random.Random(seed)
        self.nodes = {}
        self.links = {}  # (src, dst) -> (latency_us, loss_probability)
        self.stats = RunStats()
        self._queue = []
        self._seq = 0

    # -- topology ---------------------------------------------------------

    def add_node(self, node_id, service_rate, exponential_service=False):
        node = Node(node_id, service_rate, exponential_service)
        self.nodes[node_id] = node
        return node

    def add_link(self, a, b, latency_us, loss_probability=0.0, bidirectional=True):
        if not 0 <= latency_us < math.inf:
            raise ValueError(
                f"latency must be nonnegative and finite, got {latency_us}")
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        self.links[(a, b)] = (latency_us, loss_probability)
        if bidirectional:
            self.links[(b, a)] = (latency_us, loss_probability)

    # -- event queue ------------------------------------------------------

    def schedule(self, at, action):
        """Schedule `action(sim)` at absolute time `at`. Returns a handle."""
        if not at >= self.now:  # also rejects NaN, which never fires
            raise SchedulingError(f"cannot schedule at t={at}, now is t={self.now}")
        handle = EventHandle()
        heapq.heappush(self._queue, (at, self._seq, action, handle))
        self._seq += 1
        return handle

    def send(self, src, dst, msg, on_delivered=None, category=None):
        """Send msg over the (src, dst) link into dst's service queue.

        on_delivered(sim, msg) fires when dst finishes servicing the message.
        """
        link = self.links.get((src, dst))
        if link is None:
            raise RoutingError(f"no link {src} -> {dst}")
        latency_us, loss_probability = link
        self.stats.sent += 1
        if loss_probability > 0.0 and self.rng.random() < loss_probability:
            self.stats.dropped += 1
            return None
        sent_at = self.now
        node = self.nodes[dst]

        def arrive(sim):
            start = max(node.busy_until, sim.now)
            if node.exponential_service:
                service = sim.rng.expovariate(node.service_rate) * US_PER_S
            else:
                service = US_PER_S / node.service_rate
            done = start + max(1, round(service))
            node.busy_until = done

            def complete(sim):
                node.processed += 1
                sim.stats.delivered += 1
                cat = category if category is not None else type(msg).__name__
                by_cat = sim.stats.delivered_by_category
                by_cat[cat] = by_cat.get(cat, 0) + 1
                sim.stats.latencies_us.append(sim.now - sent_at)
                if on_delivered is not None:
                    on_delivered(sim, msg)

            sim.schedule(done, complete)

        return self.schedule(self.now + latency_us, arrive)

    def _drain(self, t_end):
        """Execute every event with time <= t_end, in (time, insertion)
        order, skipping cancelled ones."""
        queue = self._queue
        while queue and queue[0][0] <= t_end:
            at, _, action, handle = heapq.heappop(queue)
            if handle.cancelled:
                continue
            self.now = at
            self.stats.events_processed += 1
            action(self)

    def run_until(self, t_end):
        """Execute every event with time <= t_end; returns the stats so far."""
        self._drain(t_end)
        self.now = max(self.now, t_end)
        return self.stats

    def run(self):
        """Run until the event queue drains."""
        self._drain(math.inf)
        return self.stats
