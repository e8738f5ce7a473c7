"""Picklable experiment results (the parallel engine's wire format).

A full :class:`~repro.exp.runner.ExperimentResult` drags the whole network
behind it -- nodes, controllers, the simulator with its timer heap of bound
methods -- none of which survives a trip through a ``multiprocessing`` pipe
or a pickle file.  :class:`PortableResult` is the flat, data-only view: it
captures every series and counter the figure/table benches read, computes
the energy numbers up front (they need the network), and provides the same
metric methods, so aggregation code is agnostic about which of the two it
holds.

The shared metric implementations live in :class:`ResultMetricsMixin`,
which both result classes inherit; the contract is only that ``self`` has
``producers`` (objects with ``node.node_id`` / ``requests_sent`` /
``acks_received`` / ``pdr`` / ``request_times`` / ``rtt_samples``),
``conn_losses``, and ``link_series``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.exp.config import ExperimentConfig
from repro.exp.links import ConnLoss, LinkKey, LinkSeries
from repro.sim.units import SEC
from repro.trace.record import TraceRecord


class ResultMetricsMixin:
    """Metric methods shared by the live and the portable result."""

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
        return {p.node.node_id: p.pdr for p in self.producers}

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


@dataclass(frozen=True)
class NodeRef:
    """A node stripped to its identity (artifact writers read ``node_id``)."""

    node_id: int


@dataclass
class PortableProducer:
    """The measurement state of one producer, detached from its node."""

    node: NodeRef
    requests_sent: int
    acks_received: int
    send_failures: int
    request_times: List[int]
    rtt_samples: List[Tuple[int, int]]
    ack_times: List[int]

    @classmethod
    def from_producer(cls, producer: Any) -> "PortableProducer":
        """Snapshot a live :class:`~repro.testbed.traffic.Producer`."""
        return cls(
            node=NodeRef(producer.node.node_id),
            requests_sent=producer.requests_sent,
            acks_received=producer.acks_received,
            send_failures=producer.send_failures,
            request_times=list(producer.request_times),
            rtt_samples=[tuple(s) for s in producer.rtt_samples],
            ack_times=list(producer.ack_times),
        )

    @property
    def node_id(self) -> int:
        """The producing node's id."""
        return self.node.node_id

    @property
    def pdr(self) -> float:
        """Acknowledgements received / requests sent (1.0 before traffic)."""
        if self.requests_sent == 0:
            return 1.0
        return self.acks_received / self.requests_sent


@dataclass
class PortableResult(ResultMetricsMixin):
    """Everything a run produced, in picklable form.

    Built in the worker process via :meth:`from_result`, shipped to the
    parent over a pipe, and stored verbatim by the result cache.  Energy
    currents are precomputed because they need the (non-portable) network.
    """

    config: ExperimentConfig
    producers: List[PortableProducer]
    #: The consumer's per-producer request tally.
    consumer_requests: Dict[int, int]
    #: Supervision-timeout losses, one record per end, in close order.
    conn_losses: List[ConnLoss]
    #: (link, direction) -> cumulative series (per-channel totals included).
    link_series: Dict[Tuple[LinkKey, str], LinkSeries]
    #: Precomputed per-node average BLE current (µA); None for 802.15.4.
    node_currents_ua: Optional[Dict[int, float]]
    #: Cross-layer trace records (empty unless the config enabled tracing).
    #: TraceRecords are plain frozen dataclasses of scalars/strings/bytes,
    #: so they pickle across the worker pipe unchanged.
    trace_records: List[TraceRecord] = field(default_factory=list)
    #: Runtime metrics payload (see :mod:`repro.obs`): plain dicts of
    #: counters/histogram states, picklable and deterministic, so metric
    #: snapshots merge identically whatever ``max_workers`` produced them.
    metrics: Optional[dict] = None
    #: Workload summary (churn/mobility/rotation), already a plain dict.
    workload: Optional[dict] = None
    #: Packet-journey span payload (see :mod:`repro.spans`), a plain dict.
    spans: Optional[dict] = None

    @classmethod
    def from_result(cls, result: Any) -> "PortableResult":
        """Flatten a live :class:`~repro.exp.runner.ExperimentResult`."""
        return cls(
            config=result.config,
            producers=[
                PortableProducer.from_producer(p) for p in result.producers
            ],
            consumer_requests=dict(result.consumer.requests_by_producer),
            conn_losses=result.conn_losses,
            link_series=result.link_series,
            node_currents_ua=result.fleet_current_ua(),
            trace_records=list(getattr(result, "trace_records", ())),
            metrics=getattr(result, "metrics", None),
            workload=getattr(result, "workload", None),
            spans=getattr(result, "spans", None),
        )

    # -- energy metrics (precomputed in the worker) --------------------------

    def node_current_ua(self, node_id: int) -> Optional[float]:
        """Average BLE current of one node (µA); ``None`` for 802.15.4."""
        if self.node_currents_ua is None:
            return None
        return self.node_currents_ua.get(node_id)

    def fleet_current_ua(self) -> Optional[Dict[int, float]]:
        """Per-node average BLE currents (µA), or ``None`` for 802.15.4."""
        return self.node_currents_ua
