"""
Outside-in tracing of encorsim: wraps the public functions and methods of
each module, records spans and counts, and derives the per-layer metrics.

Wrapping happens on module and class attributes, so it only sees calls that
look a name up at call time: calls from this benchmark through a module
attribute, method calls on instances, and calls inside a module to its own
globals (``security.prf``, ``placement.haversine_km``,
``mecsweep.classify_moves``, ``experiments._run_load_point``).

Three kinds of wrapper, chosen by how often the target runs:

- ``span``: one span per call (name, start, end, parent, operation id),
  kept in memory; self time is the span minus its child spans;
- ``time``: a call count and total inclusive time, no span (hot calls);
- ``count``: a call count only (the hottest calls).
"""
import json
import statistics
import time
from collections import Counter

from encorsim import (addressing, charging, control, datasets, experiments,
                      kernel, lte, mecsweep, placement, security, transport)
from encorsim.messages import count_messages


def _on_run_stats(tr, stats):
    c = tr.counts
    c["kernel.events"] += stats.events_processed
    c["kernel.delivered"] += stats.delivered
    c["kernel.dropped"] += stats.dropped
    c["kernel.latency_samples"] += len(stats.latencies_us)


def _on_app_metrics(tr, m):
    c = tr.counts
    c["transport.retx_count"] += m.retx_count
    c["transport.pings"] += m.pings
    if m.app != "live":
        c["transport.retx_rate_sum"] += m.retx_rate
        c["transport.retx_runs"] += 1


def _on_lookup(tr, target):
    if target is not None:
        tr.counts["addressing.moved_hits"] += 1


def _on_nat_downlink(tr, result):
    if result[0] is addressing.Decision.DROP:
        tr.counts["addressing.downlink_dropped"] += 1


def _on_handover(mode):
    def on_result(tr, trace):
        if trace.failed:
            tr.counts["control.ho_failed"] += 1
        else:
            _count_trace(tr, mode, trace)
    return on_result


def _on_s1(tr, result):
    _count_trace(tr, "s1", result[0])


def _count_trace(tr, mode, trace):
    _, via_core = count_messages(trace)
    c = tr.counts
    c[f"messages.handovers.{mode}"] += 1
    c[f"messages.total.{mode}"] += len(trace)
    c[f"messages.via_core.{mode}"] += via_core


def _on_deliver_downlink(tr, outcome):
    if outcome == "buffered":
        tr.counts["lte.buffered"] += 1
    elif outcome == "dropped":
        tr.counts["lte.buffer_drops"] += 1


def _on_load_point(tr, point):
    tr.counts["experiments.completions"] += point.completions


def _on_moves(tr, moves):
    tr.counts["mecsweep.moves"] += len(moves)


# (owner, attribute, span/metric name, kind, on_result)
TARGETS = (
    (kernel.Simulator, "run", "kernel.run", "span", _on_run_stats),
    (kernel.Simulator, "run_until", "kernel.run", "span", _on_run_stats),
    (kernel.Simulator, "schedule", "kernel.schedule", "count", None),
    (kernel.Simulator, "send", "kernel.send", "count", None),
    (transport, "run_bulk", "transport.bulk", "span", _on_app_metrics),
    (transport, "run_buffered", "transport.buffered", "span", _on_app_metrics),
    (transport, "run_live", "transport.live", "span", _on_app_metrics),
    (transport.MobilityNet, "reaches_client", "transport.reaches_client",
     "time", None),
    (transport.MobilityNet, "migrate", "transport.migrate", "count", None),
    (addressing, "nat_uplink", "addressing.nat", "time", None),
    (addressing, "nat_downlink", "addressing.nat", "time", _on_nat_downlink),
    (addressing.RecentlyMovedTable, "lookup", "addressing.moved_lookup",
     "count", _on_lookup),
    (security, "prf", "security.prf", "time", None),
    (security, "generate_auth_vector", "security.aka", "span", None),
    (security, "ue_process_challenge", "security.aka", "span", None),
    (security, "derive_k_enb", "security.derive_k_enb", "span", None),
    (security, "chain_k_enb", "security.chain_k_enb", "span", None),
    (control, "attach", "control.attach", "span", None),
    (control, "handover_core_assisted", "control.ho_core_assisted", "span",
     _on_handover("core_assisted")),
    (control, "handover_direct", "control.ho_direct", "span",
     _on_handover("direct")),
    (lte, "attach_lte", "lte.attach", "span", None),
    (lte, "s1_handover", "lte.s1", "span", _on_s1),
    (lte, "deliver_downlink", "lte.deliver_downlink", "count",
     _on_deliver_downlink),
    (charging.InbQuota, "consume", "charging.consume", "time", None),
    (charging.ChargingProxy, "subquota", "charging.subquota", "count", None),
    (charging.Ocs, "grant", "charging.ocs_grant", "count", None),
    (charging.ChargingLog, "record", "charging.ledger_event", "count", None),
    (experiments, "run_load_sweep", "experiments.load_sweep", "span", None),
    (experiments, "_run_load_point", "experiments.load_point", "span",
     _on_load_point),
    (mecsweep, "sweep", "mecsweep.sweep", "span", None),
    (mecsweep, "generate_moves", "mecsweep.generate", "span", _on_moves),
    (mecsweep, "classify_moves", "mecsweep.classify", "span", None),
    (placement, "greedy_place", "placement.greedy", "span", None),
    (placement, "coverage", "placement.coverage", "span", None),
    (placement, "best_tail_km", "placement.best_tail", "count", None),
    (placement, "haversine_km", "placement.haversine", "count", None),
    (datasets, "generate_synthetic", "datasets.generate", "span", None),
)

# (metric, unit) in report order; every traced run reports all of them,
# zero where the workload does not reach the layer.
LAYER_METRICS = (
    ("kernel.events", "count"),
    ("kernel.run_s", "s"),
    ("kernel.events_per_s", "1/s"),
    ("kernel.schedule_calls", "count"),
    ("kernel.sends", "count"),
    ("kernel.delivered", "count"),
    ("kernel.dropped", "count"),
    ("kernel.latency_samples", "count"),
    ("transport.bulk_s", "s"),
    ("transport.buffered_s", "s"),
    ("transport.live_s", "s"),
    ("transport.retx_count", "count"),
    ("transport.useful_tx_ratio", "ratio"),
    ("transport.reaches_client_calls", "count"),
    ("transport.reaches_client_s", "s"),
    ("transport.migrations", "count"),
    ("transport.pings", "count"),
    ("addressing.nat_ops", "count"),
    ("addressing.nat_ops_per_s", "1/s"),
    ("addressing.moved_lookups", "count"),
    ("addressing.moved_hit_ratio", "ratio"),
    ("addressing.downlink_dropped", "count"),
    ("security.prf_calls", "count"),
    ("security.prf_s", "s"),
    ("security.aka_s", "s"),
    ("control.attach_per_s", "1/s"),
    ("control.attach_self_s", "s"),
    ("control.ho_core_assisted_per_s", "1/s"),
    ("control.ho_direct_per_s", "1/s"),
    ("control.ho_failed", "count"),
    ("lte.attach_per_s", "1/s"),
    ("lte.s1_per_s", "1/s"),
    ("lte.buffered", "count"),
    ("lte.buffer_drops", "count"),
    ("messages.per_handover.core_assisted", "count"),
    ("messages.per_handover.direct", "count"),
    ("messages.per_handover.s1", "count"),
    ("messages.via_core_per_handover.core_assisted", "count"),
    ("messages.via_core_per_handover.direct", "count"),
    ("messages.via_core_per_handover.s1", "count"),
    ("charging.consume_calls", "count"),
    ("charging.consume_per_s", "1/s"),
    ("charging.subquota_calls", "count"),
    ("charging.ocs_grants", "count"),
    ("charging.ledger_events", "count"),
    ("experiments.load_points", "count"),
    ("experiments.load_point_s_median", "s"),
    ("experiments.load_point_s_max", "s"),
    ("experiments.completions", "count"),
    ("mecsweep.moves", "count"),
    ("mecsweep.generate_s", "s"),
    ("mecsweep.classify_s", "s"),
    ("mecsweep.classify_moves_per_s", "1/s"),
    ("mecsweep.densities", "count"),
    ("placement.greedy_calls", "count"),
    ("placement.greedy_s", "s"),
    ("placement.coverage_calls", "count"),
    ("placement.coverage_s", "s"),
    ("placement.best_tail_calls", "count"),
    ("placement.haversine_calls", "count"),
    ("datasets.generate_s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Installs wrappers on enter and restores the originals on exit.
    Spans are [name, start, end, parent index, operation id]."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.times = Counter()
        self.op_id = 0
        self.missing = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        for owner, attr, name, kind, on_result in TARGETS:
            orig = owner.__dict__.get(attr)
            if orig is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name, kind, on_result))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False

    def _wrap(self, orig, name, kind, on_result):
        counts, times, spans, stack = (self.counts, self.times, self.spans,
                                       self._stack)
        clock = time.perf_counter

        if kind == "count":
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = orig(*args, **kwargs)
                if on_result is not None:
                    on_result(self, result)
                return result
        elif kind == "time":
            def wrapper(*args, **kwargs):
                counts[name] += 1
                t0 = clock()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    times[name] += clock() - t0
                if on_result is not None:
                    on_result(self, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                span = [name, clock(), None, stack[-1] if stack else -1,
                        self.op_id]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                if on_result is not None:
                    on_result(self, result)
                return result
        wrapper.__wrapped__ = orig
        return wrapper

    def span_times(self):
        """(inclusive, self) seconds per span name, and the list of
        inclusive durations per name."""
        inclusive, child, durations = Counter(), Counter(), {}
        for name, start, end, parent, _ in self.spans:
            d = end - start
            inclusive[name] += d
            durations.setdefault(name, []).append(d)
            if parent >= 0:
                child[parent] += d
        own = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        return inclusive, own, durations

    def metrics(self):
        """The per-layer metrics of everything traced so far, without
        the trace.* entries, which need the untraced rounds too."""
        c, t = self.counts, self.times
        incl, own, durations = self.span_times()

        def rate(n, s):
            return n / s if s > 0 else 0.0

        def per(mode, what):
            n = c[f"messages.handovers.{mode}"]
            return c[f"messages.{what}.{mode}"] / n if n else 0.0

        point_s = durations.get("experiments.load_point", [])
        m = {
            "kernel.events": c["kernel.events"],
            "kernel.run_s": incl["kernel.run"],
            "kernel.events_per_s": rate(c["kernel.events"],
                                        incl["kernel.run"]),
            "kernel.schedule_calls": c["kernel.schedule"],
            "kernel.sends": c["kernel.send"],
            "kernel.delivered": c["kernel.delivered"],
            "kernel.dropped": c["kernel.dropped"],
            "kernel.latency_samples": c["kernel.latency_samples"],
            "transport.bulk_s": incl["transport.bulk"],
            "transport.buffered_s": incl["transport.buffered"],
            "transport.live_s": incl["transport.live"],
            "transport.retx_count": c["transport.retx_count"],
            "transport.useful_tx_ratio": (
                1.0 - c["transport.retx_rate_sum"] / c["transport.retx_runs"]
                if c["transport.retx_runs"] else 0.0),
            "transport.reaches_client_calls": c["transport.reaches_client"],
            "transport.reaches_client_s": t["transport.reaches_client"],
            "transport.migrations": c["transport.migrate"],
            "transport.pings": c["transport.pings"],
            "addressing.nat_ops": c["addressing.nat"],
            "addressing.nat_ops_per_s": rate(c["addressing.nat"],
                                             t["addressing.nat"]),
            "addressing.moved_lookups": c["addressing.moved_lookup"],
            "addressing.moved_hit_ratio": rate(c["addressing.moved_hits"],
                                               c["addressing.moved_lookup"]),
            "addressing.downlink_dropped": c["addressing.downlink_dropped"],
            "security.prf_calls": c["security.prf"],
            "security.prf_s": t["security.prf"],
            "security.aka_s": incl["security.aka"],
            "control.attach_per_s": rate(c["control.attach"],
                                         incl["control.attach"]),
            "control.attach_self_s": own["control.attach"],
            "control.ho_core_assisted_per_s": rate(
                c["control.ho_core_assisted"],
                incl["control.ho_core_assisted"]),
            "control.ho_direct_per_s": rate(c["control.ho_direct"],
                                            incl["control.ho_direct"]),
            "control.ho_failed": c["control.ho_failed"],
            "lte.attach_per_s": rate(c["lte.attach"], incl["lte.attach"]),
            "lte.s1_per_s": rate(c["lte.s1"], incl["lte.s1"]),
            "lte.buffered": c["lte.buffered"],
            "lte.buffer_drops": c["lte.buffer_drops"],
            "charging.consume_calls": c["charging.consume"],
            "charging.consume_per_s": rate(c["charging.consume"],
                                           t["charging.consume"]),
            "charging.subquota_calls": c["charging.subquota"],
            "charging.ocs_grants": c["charging.ocs_grant"],
            "charging.ledger_events": c["charging.ledger_event"],
            "experiments.load_points": len(point_s),
            "experiments.load_point_s_median": (statistics.median(point_s)
                                                if point_s else 0.0),
            "experiments.load_point_s_max": max(point_s, default=0.0),
            "experiments.completions": c["experiments.completions"],
            "mecsweep.moves": c["mecsweep.moves"],
            "mecsweep.generate_s": incl["mecsweep.generate"],
            "mecsweep.classify_s": incl["mecsweep.classify"],
            "mecsweep.classify_moves_per_s": rate(
                c["mecsweep.moves"] * c["mecsweep.classify"],
                incl["mecsweep.classify"]),
            "mecsweep.densities": c["mecsweep.classify"],
            "placement.greedy_calls": c["placement.greedy"],
            "placement.greedy_s": incl["placement.greedy"],
            "placement.coverage_calls": c["placement.coverage"],
            "placement.coverage_s": incl["placement.coverage"],
            "placement.best_tail_calls": c["placement.best_tail"],
            "placement.haversine_calls": c["placement.haversine"],
            "datasets.generate_s": incl["datasets.generate"],
            "trace.spans": len(self.spans),
        }
        for mode in ("core_assisted", "direct", "s1"):
            m[f"messages.per_handover.{mode}"] = per(mode, "total")
            m[f"messages.via_core_per_handover.{mode}"] = per(mode, "via_core")
        return m

    def write_spans(self, path):
        with open(path, "w") as f:
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start,
                                    "end": end, "parent": parent,
                                    "op": op_id}) + "\n")
