"""Experiment execution.

Builds the configured network (BLE or 802.15.4), attaches the
producer/consumer workload, samples cumulative per-link statistics at a
fixed cadence (so a 24-hour run stores kilobytes, not gigabytes), runs the
kernel, and returns an :class:`ExperimentResult`: plain, picklable data
with everything the figure/table benches need, including a per-node
counter table read off the network at the end of the run.

Link statistics survive reconnects: the :class:`~repro.exp.links.LinkSampler`
takes deltas per connection and accumulates them into per-link totals
keyed by the (coordinator, subordinate) identity pair, so a link that went
through five connection generations still has one continuous time series.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.ble.config import BleConfig, SchedulerPolicy
from repro.ble.chanmap import ChannelMap
from repro.core.statconn import StatconnConfig
from repro.core.intervals import IntervalPolicy, StaticIntervalPolicy
from repro.energy import EnergyModel
from repro.exp.config import (
    SPATIAL_TOPOLOGIES,
    ExperimentConfig,
    parse_interval_spec,
)
from repro.exp.links import ConnLoss, LinkKey, LinkSampler, LinkSeries
from repro.obs.registry import MetricsHub
from repro.obs.sampler import MetricsSnapshotter
from repro.phy.medium import InterferenceModel
from repro.sim import RngRegistry
from repro.sim.units import MSEC, SEC, s_to_ns
from repro.spans.hub import SPANS
from repro.testbed.dynamic import DynamicBleNetwork
from repro.testbed.iotlab import JAMMED_CHANNEL
from repro.testbed.topology import LAYOUTS, BleNetwork
from repro.testbed.traffic import Consumer, Producer, TrafficConfig
from repro.topo import Topology, make_topology
from repro.trace.record import TraceRecord
from repro.trace.sinks import RingBufferSink
from repro.trace.tracer import TRACE
from repro.workload.driver import WorkloadDriver
from repro.workload.spec import WorkloadSpec

@dataclass
class ProducerRecord:
    """The measurements of one producer, detached from its node."""

    node_id: int
    requests_sent: int
    acks_received: int
    send_failures: int
    request_times: List[int]
    #: (send_time_ns, rtt_ns) per acknowledged request.
    rtt_samples: List[Tuple[int, int]]
    ack_times: List[int]

    @classmethod
    def of(cls, producer: Producer) -> "ProducerRecord":
        """Record a live :class:`~repro.testbed.traffic.Producer`."""
        return cls(
            node_id=producer.node.node_id,
            requests_sent=producer.requests_sent,
            acks_received=producer.acks_received,
            send_failures=producer.send_failures,
            request_times=producer.request_times,
            rtt_samples=producer.rtt_samples,
            ack_times=producer.ack_times,
        )

    @property
    def pdr(self) -> float:
        """Acknowledgements received / requests sent (1.0 before traffic)."""
        if self.requests_sent == 0:
            return 1.0
        return self.acks_received / self.requests_sent


@dataclass
class ConsumerRecord:
    """The consumer's per-producer request tally."""

    requests_by_producer: Dict[int, int]

    @property
    def total_requests(self) -> int:
        """Requests that reached the consumer."""
        return sum(self.requests_by_producer.values())


@dataclass
class NodeCounters:
    """One node's counters at the end of a run: what the benches read."""

    #: Packets dropped for want of packet-buffer space.
    pktbuf_drops: int
    #: Peak packet-buffer occupancy (bytes).
    pktbuf_peak: int
    #: 802.15.4 frames given up after the MAC's retries; 0 on BLE.
    mac_drops: int = 0
    #: 802.15.4 datagrams sent as RFC 4944 fragments; 0 on BLE.
    fragmented: int = 0
    #: 802.15.4 reassemblies that timed out; 0 on BLE.
    reassembly_timeouts: int = 0
    #: Connection events aborted on a CRC error at this node's end of each
    #: connection still open at the end; 0 on 802.15.4.
    crc_aborts: int = 0
    #: Average BLE current over the run (µA, §5.4 model); None on 802.15.4.
    current_ua: Optional[float] = None


def _node_counters(net: Any, config: ExperimentConfig) -> List[NodeCounters]:
    """The per-node counter table, indexed by node id."""
    if config.link_layer != "ble":
        return [
            NodeCounters(
                pktbuf_drops=node.netif.drops_pktbuf,
                pktbuf_peak=node.pktbuf.peak_used,
                mac_drops=node.netif.drops_mac,
                fragmented=node.netif.tx_fragmented_datagrams,
                reassembly_timeouts=node.netif.reassembler.timeouts,
            )
            for node in net.nodes
        ]
    energy = EnergyModel()
    return [
        NodeCounters(
            pktbuf_drops=node.netif.drops_pktbuf,
            pktbuf_peak=node.pktbuf.peak_used,
            crc_aborts=sum(
                conn.endpoint_of(node.controller).stats.events_crc_abort
                for conn in node.controller.connections
            ),
            current_ua=energy.controller_current_ua(
                node.controller, config.total_runtime_s
            ),
        )
        for node in net.nodes
    ]


@dataclass
class ExperimentResult:
    """Everything a run produced, as plain picklable data.

    :func:`run_experiment`, a worker process of
    :class:`~repro.exp.parallel.ParallelEngine` and the result cache all
    hand back equal results.  A caller that needs the live network builds an
    :class:`ExperimentRunner` and reads ``runner.network`` after the run.
    """

    config: ExperimentConfig
    producers: List[ProducerRecord]
    consumer: ConsumerRecord
    #: Per-node counters, indexed by node id.
    nodes: List[NodeCounters]
    #: Supervision-timeout losses, one record per end, in close order.
    conn_losses: List[ConnLoss]
    #: (link, direction) -> cumulative series (per-channel totals included).
    link_series: Dict[Tuple[LinkKey, str], LinkSeries]
    #: Cross-layer trace records, when the config asked for them (or the
    #: caller pre-configured :data:`repro.trace.TRACE` with its own sinks,
    #: in which case this stays empty and the sinks hold the trace).
    trace_records: List[TraceRecord] = field(default_factory=list)
    #: Runtime metrics payload (``{"sim_time_ns", "scopes", "series"}``)
    #: when the config asked for metrics collection; ``None`` otherwise.
    metrics: Optional[dict] = None
    #: Workload summary (churn/mobility/rotation; see
    #: :meth:`repro.workload.driver.WorkloadDriver.summary`) when the config
    #: enabled any workload axis; ``None`` otherwise.
    workload: Optional[dict] = None
    #: Packet-journey span payload (see
    #: :meth:`repro.spans.hub.SpanHub.export_payload`) when the config
    #: asked for span collection; ``None`` otherwise.
    spans: Optional[dict] = None

    # -- CoAP metrics -------------------------------------------------------

    def coap_sent(self) -> int:
        """Total CoAP requests sent."""
        return sum(p.requests_sent for p in self.producers)

    def coap_acked(self) -> int:
        """Total CoAP acknowledgements received."""
        return sum(p.acks_received for p in self.producers)

    def coap_pdr(self) -> float:
        """Overall CoAP packet delivery rate (the paper's headline metric)."""
        sent = self.coap_sent()
        return self.coap_acked() / sent if sent else 1.0

    def coap_pdr_per_producer(self) -> Dict[int, float]:
        """Per-producer PDR (the rows of Fig. 9's heatmap)."""
        return {p.node_id: p.pdr for p in self.producers}

    def rtts_s(self) -> List[float]:
        """All CoAP round-trip times in seconds."""
        return [rtt / SEC for p in self.producers for _, rtt in p.rtt_samples]

    def coap_losses(self) -> int:
        """Requests that never got acknowledged."""
        return self.coap_sent() - self.coap_acked()

    # -- link-layer metrics -------------------------------------------------

    def link_pdr_overall(self) -> float:
        """Network-wide link-layer PDR over the whole run."""
        attempts = acked = 0
        for series in self.link_series.values():
            if series.tx_attempts:
                attempts += series.tx_attempts[-1]
                acked += series.tx_acked[-1]
        return acked / attempts if attempts else 1.0

    def upstream_series(self, child: int) -> Optional[LinkSeries]:
        """The child's upstream (towards-consumer) link series."""
        for (key, direction), series in self.link_series.items():
            if direction == "up" and key[0] == child:
                return series
        return None

    def connection_losses(self) -> List[Tuple[float, int, int]]:
        """(time_s, node, peer) per supervision-timeout loss (deduplicated:
        one entry per loss, from the coordinator's point of view)."""
        return [
            (loss.time_ns / SEC, loss.node, loss.peer)
            for loss in self.conn_losses
            if loss.role == "coordinator"
        ]

    def num_connection_losses(self) -> int:
        """Count of connection losses in the run."""
        return len(self.connection_losses())

    # -- energy metrics (§5.4 integration) -----------------------------------

    def fleet_current_ua(self) -> Optional[Dict[int, float]]:
        """Per-node average BLE currents (µA), or ``None`` for 802.15.4."""
        if self.config.link_layer != "ble":
            return None
        return {node_id: node.current_ua for node_id, node in enumerate(self.nodes)}


class ExperimentRunner:
    """Builds and executes one configured experiment.

    After :meth:`run`, ``network`` holds the live network (BleNetwork,
    DynamicBleNetwork or CsmaNetwork) for deep inspection.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        self.config = config
        self.network: Any = None

    # -- construction helpers --------------------------------------------------

    def _edges(self) -> List[Tuple[int, int]]:
        return LAYOUTS[self.config.topology](self.config.n_nodes)

    def _spatial_topology(self, kind: str) -> Topology:
        """Generate the placed layout for a spatial run (scale tier)."""
        cfg = self.config
        return make_topology(
            kind,
            cfg.n_nodes,
            seed=cfg.seed,
            radio_range_m=cfg.radio_range_m,
            spacing_m=cfg.node_spacing_m,
        )

    def _build_ble_dynamic(self) -> Any:
        """The §9 mode: no configured links; dynconn + RPL self-form."""
        cfg = self.config
        policy = SchedulerPolicy(cfg.scheduler_policy)
        interference = InterferenceModel(
            base_ber=cfg.base_ber, jammed_channels=(JAMMED_CHANNEL,)
        )
        chan_map = ChannelMap.excluding([JAMMED_CHANNEL])
        max_event_len_ns = int(cfg.max_event_len_ms * MSEC)

        def ble_factory(node_id: int) -> BleConfig:
            return BleConfig(
                scheduler_policy=policy,
                chan_map=chan_map,
                max_event_len_ns=max_event_len_ns,
                abort_event_on_crc_error=cfg.abort_event_on_crc_error,
            )

        if cfg.drift_ppms is not None:
            ppms = list(cfg.drift_ppms)
        else:
            drift_rng = RngRegistry(cfg.seed).stream("clock-drift")
            span = cfg.drift_ppm_span
            ppms = [drift_rng.uniform(-span, span) for _ in range(cfg.n_nodes)]
        probe = parse_interval_spec(cfg.conn_interval, random.Random(0))
        if hasattr(probe, "lo_ns"):
            window_ms = (probe.lo_ns // 1_000_000, probe.hi_ns // 1_000_000)
        else:
            window_ms = None
        geometry = None
        if cfg.geometry != "none":
            geometry = self._spatial_topology(cfg.geometry).geometry(
                index=cfg.spatial_index
            )
        net = DynamicBleNetwork(
            cfg.n_nodes,
            seed=cfg.seed,
            ppms=ppms,
            ble_config_factory=ble_factory,
            interference=interference,
            max_children=cfg.max_children,
            pktbuf_capacity=cfg.pktbuf_bytes,
            geometry=geometry,
            **({"interval_window_ms": window_ms} if window_ms else {}),
        )
        if window_ms is None:
            # a static interval spec: dynconn adopts with that interval
            for node, dynconn in zip(net.nodes, net.dynconns):
                dynconn.config.interval_policy = StaticIntervalPolicy(
                    probe.interval_ns
                )
                dynconn.config.reject_interval_collisions = False
        net.start()
        return net

    def _build_ble(self) -> BleNetwork:
        cfg = self.config
        policy = SchedulerPolicy(cfg.scheduler_policy)
        interference = InterferenceModel(
            base_ber=cfg.base_ber, jammed_channels=(JAMMED_CHANNEL,)
        )
        chan_map = ChannelMap.excluding([JAMMED_CHANNEL])

        # The event-length cap models the controller's per-event slot
        # reservation.  It is calibrated as 6 ms at the paper's default
        # 75 ms interval (which reproduces the §5.2 high-load PDR of ~75 %),
        # grows with the interval so slower configurations keep a useful
        # duty cycle, and saturates at 2x -- real controllers do not reserve
        # arbitrarily long events, which is what turns the 2 s-interval
        # burst regime into the Fig. 9b collapse.
        probe = parse_interval_spec(cfg.conn_interval, random.Random(0))
        if hasattr(probe, "lo_ns"):
            interval_mid_ns = (probe.lo_ns + probe.hi_ns) // 2
        else:
            interval_mid_ns = probe.interval_ns
        duty_scale = min(max(1.0, interval_mid_ns / (75 * MSEC)), 2.0)
        max_event_len_ns = int(cfg.max_event_len_ms * MSEC * duty_scale)

        def ble_factory(node_id: int) -> BleConfig:
            return BleConfig(
                scheduler_policy=policy,
                chan_map=chan_map,
                max_event_len_ns=max_event_len_ns,
                abort_event_on_crc_error=cfg.abort_event_on_crc_error,
            )

        if cfg.drift_ppms is not None:
            ppms = list(cfg.drift_ppms)
        else:
            drift_rng = RngRegistry(cfg.seed).stream("clock-drift")
            span = cfg.drift_ppm_span
            ppms = [drift_rng.uniform(-span, span) for _ in range(cfg.n_nodes)]
        # Spatial scale tier: generated positions, range-gated medium,
        # statconn over the BFS spanning tree of the radio graph.
        geometry = None
        if cfg.topology in SPATIAL_TOPOLOGIES:
            layout = self._spatial_topology(cfg.topology)
            geometry = layout.geometry(index=cfg.spatial_index)
            edges = layout.tree_edges()
        else:
            edges = self._edges()
        net = BleNetwork(
            cfg.n_nodes,
            seed=cfg.seed,
            ppms=ppms,
            ble_config_factory=ble_factory,
            statconn_config_factory=lambda i: StatconnConfig(),
            interference=interference,
            pktbuf_capacity=cfg.pktbuf_bytes,
            geometry=geometry,
        )
        # per-node interval policies drawing from node-scoped streams
        for node in net.nodes:
            node.statconn.config.interval_policy = self._interval_policy(
                net.rngs.stream(f"intervals-{node.node_id}")
            )
            node.statconn.config.reject_interval_collisions = (
                cfg.uses_random_intervals
            )
        net.apply_edges(edges)
        return net

    def _interval_policy(self, rng: random.Random) -> IntervalPolicy:
        policy = parse_interval_spec(self.config.conn_interval, rng)
        if self.config.subordinate_latency:
            policy.latency = self.config.subordinate_latency
        return policy

    def _build_802154(self) -> Any:
        from repro.ieee802154 import CsmaNetwork

        cfg = self.config
        net = CsmaNetwork(
            cfg.n_nodes,
            seed=cfg.seed,
            interference=InterferenceModel(base_ber=cfg.base_ber),
            pktbuf_capacity=cfg.pktbuf_bytes,
        )
        net.apply_edges(self._edges())
        return net

    # -- execution ------------------------------------------------------------------

    def run(self) -> ExperimentResult:
        """Execute the experiment and collect results.

        When ``config.trace`` is set and the global tracer is idle, the run
        captures its trace into a ring buffer and returns the records on the
        result.  A caller that already configured :data:`TRACE` with its
        own sinks keeps them; the runner then only late-binds the simulator
        clock.
        """
        cfg = self.config
        ring = None
        if cfg.trace and not TRACE.enabled:
            layers = {s.strip() for s in cfg.trace_layers.split(",") if s.strip()}
            ring = RingBufferSink()
            TRACE.configure(sinks=[ring], layers=layers or None)
        own_spans = cfg.spans and not SPANS.enabled
        if own_spans:
            SPANS.configure()
        try:
            return self._run(ring)
        finally:
            if ring is not None:
                TRACE.reset()
            if own_spans:
                SPANS.reset()

    def _run(self, ring: Optional[RingBufferSink]) -> ExperimentResult:
        cfg = self.config
        is_ble = cfg.link_layer == "ble"
        if cfg.topology == "dynamic":
            net = self._build_ble_dynamic()
        elif is_ble:
            net = self._build_ble()
        else:
            net = self._build_802154()
        self.network = net
        if TRACE.enabled:
            TRACE.attach_sim(net.sim)
        if SPANS.enabled:
            SPANS.attach_sim(net.sim)
        # link series, connection losses and the shading gauges (BLE only;
        # 802.15.4 has no connections)
        links = LinkSampler(net, s_to_ns(cfg.sample_period_s)) if is_ble else None

        consumer = Consumer(net.nodes[0])
        traffic = TrafficConfig(
            interval_ns=s_to_ns(cfg.producer_interval_s),
            jitter_ns=s_to_ns(cfg.producer_jitter_s),
            payload_len=cfg.payload_len,
            confirmable=cfg.confirmable,
        )
        producers = []
        for node in net.nodes[1:]:
            producer = Producer(
                node,
                net.nodes[0].mesh_local,
                config=traffic,
                rng=(
                    net.rngs.stream(f"traffic-{node.node_id}")
                    if hasattr(net, "rngs")
                    else None
                ),
            )
            producer.start(delay_ns=s_to_ns(cfg.warmup_s))
            producers.append(producer)

        stop_at = s_to_ns(cfg.warmup_s + cfg.duration_s)
        for producer in producers:
            net.sim.at(stop_at, producer.stop)

        # Scenario dynamics (churn / mobility / MAC rotation): only built
        # when a workload block is configured, so workload-free runs execute
        # byte-identically to runs predating the workload layer.
        driver = None
        workload_spec = WorkloadSpec.from_config(cfg)
        if workload_spec is not None:
            driver = WorkloadDriver(net, workload_spec, cfg.seed)
            driver.bind_producers(
                {p.node.node_id: p for p in producers},
                traffic_start_ns=s_to_ns(cfg.warmup_s),
                traffic_stop_ns=stop_at,
            )
            driver.install(s_to_ns(cfg.warmup_s), stop_at)

        # The link sampler starts before the snapshotter and finishes
        # before it: both tick at the same instants, the sampler first, so
        # each snapshot row reads the shading state of that instant.
        if links is not None:
            links.start()
        snapper = None
        if cfg.metrics:
            snapper = MetricsSnapshotter(
                net, MetricsHub(), s_to_ns(cfg.sample_period_s), links, producers,
                driver, SPANS if SPANS.enabled else None,
            )
            snapper.start()

        net.sim.run(until=s_to_ns(cfg.total_runtime_s))
        if links is not None:
            links.finish()
        spans_payload = None
        if SPANS.enabled:
            # Journeys still in flight flush as lost at the horizon; the
            # streaming checker has then judged every journey of the run.
            SPANS.finish(net.sim.now)
            spans_payload = SPANS.export_payload()
        metrics_payload = None
        if snapper is not None:
            # after the span flush: its journeys land in the final sample
            snapper.finish()
            metrics_payload = {
                "sim_time_ns": net.sim.now,
                "scopes": snapper.hub.snapshot(),
                "series": snapper.series(),
            }
        return ExperimentResult(
            config=cfg,
            producers=[ProducerRecord.of(p) for p in producers],
            consumer=ConsumerRecord(consumer.requests_by_producer),
            nodes=_node_counters(net, cfg),
            conn_losses=links.losses if links is not None else [],
            link_series=links.series if links is not None else {},
            trace_records=list(ring.records()) if ring is not None else [],
            metrics=metrics_payload,
            workload=driver.summary() if driver is not None else None,
            spans=spans_payload,
        )


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Convenience one-shot: build, run, and return the result."""
    return ExperimentRunner(config).run()
