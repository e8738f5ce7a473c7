"""The metrics snapshotter: the stack's own counters -> registry -> series.

Every count behind ``metrics.json`` is an always-on attribute of the
object that counts it.  At each tick of a fixed sim-time period and at the
end of the run, :class:`MetricsSnapshotter` writes those counters into a
:class:`~repro.obs.registry.MetricsHub` under the catalogue's names and
scopes (:meth:`~MetricsSnapshotter._read_stack`), then appends one row per
instrument (``scope:name``) to the series.  A counter appears at the first
sample after the first event it counts (``radio.busy_ns`` with the first
claim, even one of 0 ns); a histogram observes the samples its source
recorded since the last sample; a closing connection's endpoint counters
fold into its node at the next sample; the ``spans.*`` metrics fold the
journeys the span hub closed since the last sample, in close order.
Ticks land at exact multiples of the period, so the series is byte-stable
across worker counts.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.registry import (
    PHASE_BUCKETS_S, REATTACH_BUCKETS_S, RTT_BUCKETS_S, MetricsHub,
)
from repro.phy.channels import BLE_NUM_DATA_CHANNELS
from repro.phy.frames import BLE_1M_OVERHEAD_BYTES
from repro.sim.units import USEC, ns_to_s

#: A BLE endpoint's counters, in the order of :func:`_endpoint_counts`.
ENDPOINT_COUNTERS = (
    "ble.retransmissions", "ble.conn_events_skipped_radio",
    "ble.conn_events_skipped_policy", "ble.conn_events_missed_window",
    "ble.conn_events_served", "ble.conn_events_crc_abort",
    "l2cap.pool_stalls", "l2cap.credit_stalls",
)
_NO_COUNTS = [0] * (len(ENDPOINT_COUNTERS) + BLE_NUM_DATA_CHANNELS)


def _endpoint_counts(conn: Any, ep: Any) -> List[int]:
    """``ep``'s :data:`ENDPOINT_COUNTERS`, then its data PDUs per channel."""
    stats = ep.stats
    coc = getattr(conn, "_ipsp_coc", None)
    end = coc.end_of(ep.controller) if coc is not None else None
    return [
        stats.tx_data_retx, stats.events_skipped_radio,
        stats.events_skipped_policy, stats.events_missed_window,
        # both ends serve each event the coordinator's end counts per channel
        sum(row[0] for row in conn.coord.stats.per_channel_events),
        stats.events_crc_abort,
        end.pool_stalls if end is not None else 0,
        end.credit_stalls if end is not None else 0,
    ] + [row[0] for row in stats.per_channel]


class MetricsSnapshotter:
    """Samples the counters of ``net`` (``sim``, ``medium``, ``nodes``) into
    ``hub`` every ``period_ns``.  ``links`` is a BLE run's
    :class:`~repro.exp.links.LinkSampler` (``None`` on 802.15.4),
    ``producers`` its CoAP producers, ``driver`` its workload driver and
    ``spans`` its :class:`~repro.spans.hub.SpanHub` (``None`` unspanned)."""

    def __init__(
        self, net: Any, hub: MetricsHub, period_ns: int, links: Optional[Any] = None,
        producers: Sequence[Any] = (), driver: Optional[Any] = None,
        spans: Optional[Any] = None,
    ) -> None:
        if period_ns <= 0:
            raise ValueError("snapshot period must be positive")
        self.net, self.sim, self.hub, self.period_ns = net, net.sim, hub, int(period_ns)
        self.links, self.producers, self.driver = links, list(producers), driver
        self.spans = spans
        self.times_ns: List[int] = []
        #: "scope:name" -> per-tick values (a key first seen at tick k gets
        #: zeros for ticks 0..k-1).
        self._columns: Dict[str, List[float]] = {}
        #: node scope -> summed counts of its closed connections' endpoints
        self._closed: Dict[str, List[int]] = {}
        #: (scope, connection, endpoint) closed since the last sample
        self._closing: List[Tuple[str, Any, Any]] = []
        self._rtts_seen = [0] * len(self.producers)
        self._reattaches_seen = 0
        self._journeys_seen = 0
        if links is not None:
            for node in net.nodes:
                node.controller.conn_close_listeners.append(partial(self._on_close, node))

    def start(self) -> None:
        """Schedule the first tick one period from now."""
        self.sim.after(self.period_ns, self._tick)

    def _tick(self) -> None:
        self._collect()
        self.sim.after(self.period_ns, self._tick)

    def finish(self) -> None:
        """Sample the final partial window, unless a tick landed now (the
        kernel stops *before* dispatching the horizon's events)."""
        if not self.times_ns or self.times_ns[-1] != self.sim.now:
            self._collect()

    def _on_close(self, node: Any, conn: Any, reason: Any) -> None:
        self._closing.append((f"node{node.node_id}", conn, conn.endpoint_of(node.controller)))

    def _collect(self) -> None:
        self._read_stack()
        self.hub.set_gauge("sim", "kernel.timer_queue_depth", self.sim.queue_depth())
        row = len(self.times_ns)
        self.times_ns.append(self.sim.now)
        for scope_name, registry in sorted(self.hub.scopes().items()):
            for name, counter in registry.counters.items():
                self._append(f"{scope_name}:{name}", row, counter.value)
            for name, gauge in registry.gauges.items():
                if gauge.updates:
                    self._append(f"{scope_name}:{name}", row, gauge.value)

    def _append(self, key: str, row: int, value: float) -> None:
        column = self._columns.get(key)
        if column is None:
            column = self._columns[key] = [0] * row
        column.append(value)

    def _count(self, scope: str, name: str, value: int, seen: int = -1) -> None:
        """Write ``name`` once it has counted an event (``seen``, else ``value``, > 0)."""
        if (value if seen < 0 else seen) > 0:
            self.hub.scope(scope).counter(name).value = value

    def _vector(self, scope: str, name: str, key: str, counts: Iterable[Tuple[Any, int]]) -> None:
        values = {str(label): n for label, n in counts if n > 0}
        if values:
            self.hub.scope(scope).vector(name, key).values.update(values)

    def _read_stack(self) -> None:
        """The catalogue: write each metric from the counter it reads."""
        hub, net, links, count = self.hub, self.net, self.links, self._count
        count("sim", "kernel.events_dispatched", self.sim.events_dispatched)
        medium = net.medium
        if links is not None:
            sampled = medium.packets_sampled
            count("phy", "phy.packets_sampled", sampled)
            on_air = medium.payload_bytes_sampled + BLE_1M_OVERHEAD_BYTES * sampled
            count("phy", "phy.airtime_ns", on_air * 8 * USEC, sampled)
            count("phy", "phy.ber_drops", medium.packets_lost)
            for scope, conn, ep in self._closing:
                folded = self._closed.get(scope, _NO_COUNTS)
                self._closed[scope] = [a + b for a, b in zip(folded, _endpoint_counts(conn, ep))]
            self._closing.clear()
            resets = Counter(loss.node for loss in links.losses)
            hub.set_gauge("obs", "shading.links_degraded", len(links.degraded))
            hub.set_gauge("obs", "shading.onsets_total", links.onsets)
        else:
            count("phy", "phy.frames_sent", medium.frames_sent)
            count("phy", "phy.airtime_ns", medium.airtime_ns, medium.frames_sent)
            count("phy", "phy.collisions", medium.collisions)
            netifs = [node.netif for node in net.nodes]
            cut = sum(n.fragmentations for n in netifs)
            count("sixlo", "sixlo.datagrams_fragmented", cut)
            count("sixlo", "sixlo.fragments_tx", sum(n.fragments_made for n in netifs), cut)
            reasm = [n.reassembler for n in netifs]
            count("sixlo", "sixlo.fragments_rx", sum(r.fragments_received for r in reasm))
            count("sixlo", "sixlo.reassembled", sum(r.datagrams_reassembled for r in reasm))
            count("sixlo", "sixlo.reasm_timeouts", sum(r.timeouts for r in reasm))
        for node in net.nodes:
            scope, ip = f"node{node.node_id}", node.ip
            count(scope, "ip.originated", ip.originated)
            count(scope, "ip.forwarded", ip.forwarded)
            count(scope, "ip.delivered", ip.delivered)
            self._vector(scope, "ip.drops", "cause", (
                ("hop-limit", ip.drops_hop_limit), ("no-handler", ip.drops_no_handler),
                ("no-route", ip.drops_no_route), ("no-neighbor", ip.drops_no_neighbor),
                ("link", ip.drops_link),
            ))
            if links is None:
                continue
            controller = node.controller
            totals = self._closed.get(scope, _NO_COUNTS)
            for conn in controller.connections:
                counts = _endpoint_counts(conn, conn.endpoint_of(controller))
                totals = [a + b for a, b in zip(totals, counts)]
            for name, value in zip(ENDPOINT_COUNTERS, totals):
                count(scope, name, value)
            per_channel = enumerate(totals[len(ENDPOINT_COUNTERS):])
            self._vector(scope, "ble.pdus_by_channel", "channel", per_channel)
            count(scope, "ble.supervision_resets", resets[node.node_id])
            sched = controller.scheduler
            count(scope, "radio.claims", sched.claims)
            count(scope, "radio.busy_ns", sched.busy_ns_total, sched.claims)
            count(scope, "radio.denials", sched.denials)
            count(scope, "workload.rotations", controller.rotations)
        for i, producer in enumerate(self.producers):
            scope, ep = f"node{producer.node.node_id}", producer.endpoint
            count(scope, "coap.requests", ep.requests_sent)
            count(scope, "coap.timeouts", ep.timeouts)
            count(scope, "coap.retransmissions", ep.retransmissions)
            for _, rtt_ns in producer.rtt_samples[self._rtts_seen[i]:]:
                hub.observe(scope, "coap.rtt_seconds", ns_to_s(rtt_ns), RTT_BUCKETS_S)
            self._rtts_seen[i] = len(producer.rtt_samples)
        driver = self.driver
        if driver is not None:
            for node_id, n in enumerate(driver.node_departures):
                count(f"node{node_id}", "workload.departures", n)
            for node_id, n in enumerate(driver.node_arrivals):
                count(f"node{node_id}", "workload.arrivals", n)
            for mobile in driver.mobiles:
                count(f"node{mobile.node.node_id}", "workload.moves", mobile.moves)
            latencies = driver.reattach_latencies
            for node_id, latency_ns in latencies[self._reattaches_seen:]:
                reattach_s = ns_to_s(latency_ns)
                hub.observe(f"node{node_id}", "workload.reattach_s", reattach_s, REATTACH_BUCKETS_S)
            self._reattaches_seen = len(latencies)
        if self.spans is not None:
            self._read_spans(self.spans.closed)

    def _read_spans(self, closed: List[Any]) -> None:
        """Each journey closed since the last sample: its outcome and, when
        delivered, its duration at its source; its hops, their
        retransmissions and their phases at each hop's sender."""
        hub = self.hub
        for journey in closed[self._journeys_seen:]:
            src = journey.src
            hub.inc_vec(src, "spans.journey_outcomes", journey.outcome, label_key="outcome")
            if journey.outcome == "ok":
                seconds = ns_to_s(journey.end_ns - journey.begin_ns)
                hub.observe(src, "spans.journey_seconds", seconds, RTT_BUCKETS_S)
            for attempt in journey.attempts:
                for hop in attempt.hops:
                    hub.inc(hop.src, "spans.hops")
                    if hop.retx:
                        hub.inc(hop.src, "spans.hop_retx", hop.retx)
                    for phase in hop.phases:
                        name = f"spans.phase_{phase.name}_seconds"
                        seconds = ns_to_s(phase.end_ns - phase.begin_ns)
                        hub.observe(hop.src, name, seconds, PHASE_BUCKETS_S)
        self._journeys_seen = len(closed)

    def series(self) -> Optional[dict]:
        """The sampled time series, JSON-safe; ``None`` when no ticks ran."""
        if not self.times_ns:
            return None
        return {"times_ns": list(self.times_ns), "values": dict(sorted(self._columns.items()))}
