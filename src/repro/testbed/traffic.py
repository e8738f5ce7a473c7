"""The producer/consumer CoAP workload (paper §4.3).

Fourteen producers each send a periodic non-confirmable CoAP GET request
with a 39-byte payload towards the consumer; the consumer acknowledges every
request.  Jitter is added to the producer interval so requests do not
synchronise.  The two headline metrics fall out here:

* **CoAP PDR** -- acknowledgements received / requests sent,
* **CoAP RTT** -- request handed to the stack until the ACK returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.coap import CoapEndpoint
from repro.sim.units import MSEC, SEC
from repro.core.node import Node
from repro.sixlowpan.ipv6 import Ipv6Address

#: The resource path; 5 segments-bytes chosen so the CoAP request framing is
#: 13 bytes and the IP packet lands at exactly 100 bytes (§4.3).
RESOURCE_PATH = "sense"
#: The paper's CoAP payload size.
DEFAULT_PAYLOAD_LEN = 39


@dataclass
class TrafficConfig:
    """Producer traffic parameters.

    :param interval_ns: nominal producer interval (paper default 1 s).
    :param jitter_ns: uniform jitter half-width (paper default ±0.5 s).
    :param payload_len: CoAP payload bytes (paper: 39).
    :param confirmable: send CON instead of NON (off in the paper's runs).
    """

    interval_ns: int = 1 * SEC
    jitter_ns: int = 500 * MSEC
    payload_len: int = DEFAULT_PAYLOAD_LEN
    confirmable: bool = False


class Producer:
    """A periodic CoAP requester on one node.

    :param node: the producing node.
    :param consumer_addr: where requests go.
    :param config: timing parameters.
    :param rng: jitter stream.
    """

    def __init__(
        self,
        node: Node,
        consumer_addr: Ipv6Address,
        config: Optional[TrafficConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.node = node
        self.consumer_addr = consumer_addr
        self.config = config or TrafficConfig()
        self.rng = rng or random.Random(node.node_id ^ 0x7A11)
        self.endpoint = CoapEndpoint(node)
        self.running = False
        #: Incremented on every start(); pending ticks from an older
        #: start/stop generation see a stale epoch and die, so a node that
        #: departs and returns (churn) never runs two tick chains at once.
        self._epoch = 0
        # Metrics.
        self.requests_sent = 0
        self.acks_received = 0
        self.send_failures = 0
        #: (send_time_ns, rtt_ns) per acknowledged request.
        self.rtt_samples: List[tuple[int, int]] = []
        #: send_time_ns of every request (for time-binned PDR series).
        self.request_times: List[int] = []
        self.ack_times: List[int] = []

    def start(self, delay_ns: int = 0) -> None:
        """Begin producing after ``delay_ns`` (plus one jittered interval).

        Restart-safe: a second start() supersedes any still-pending tick of
        the previous generation instead of doubling the tick chain.
        """
        self.running = True
        self._epoch += 1
        epoch = self._epoch
        self.node.sim.after(delay_ns + self._next_gap(), self._tick, epoch)

    def stop(self) -> None:
        """Stop producing (in-flight requests still complete)."""
        self.running = False

    def _next_gap(self) -> int:
        jitter = self.config.jitter_ns
        gap = self.config.interval_ns + (
            self.rng.randint(-jitter, jitter) if jitter else 0
        )
        return max(gap, 1 * MSEC)

    def _tick(self, epoch: int) -> None:
        if not self.running or epoch != self._epoch:
            return
        sent_at = self.node.sim.now
        payload = bytes(self.config.payload_len)
        ok = self.endpoint.request(
            self.consumer_addr,
            RESOURCE_PATH,
            payload,
            confirmable=self.config.confirmable,
            on_response=lambda msg, rtt, t=sent_at: self._on_ack(t, rtt),
        )
        self.requests_sent += 1
        self.request_times.append(sent_at)
        if not ok:
            self.send_failures += 1
        self.node.sim.after(self._next_gap(), self._tick, epoch)

    def _on_ack(self, sent_at: int, rtt_ns: int) -> None:
        self.acks_received += 1
        self.rtt_samples.append((sent_at, rtt_ns))
        self.ack_times.append(self.node.sim.now)

    @property
    def pdr(self) -> float:
        """Acknowledgements received / requests sent (1.0 before traffic)."""
        if self.requests_sent == 0:
            return 1.0
        return self.acks_received / self.requests_sent


class Consumer:
    """The acknowledging sink on the consumer node."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.endpoint = CoapEndpoint(node)
        self.requests_by_producer: dict[int, int] = {}
        self.endpoint.add_resource(RESOURCE_PATH, self._serve)

    def _serve(self, payload: bytes, src: Ipv6Address) -> Optional[bytes]:
        producer = src.node_id()
        if producer is not None:
            self.requests_by_producer[producer] = (
                self.requests_by_producer.get(producer, 0) + 1
            )
        return None  # empty ACK, exactly the paper's consumer

    @property
    def total_requests(self) -> int:
        """Requests that reached the consumer."""
        return sum(self.requests_by_producer.values())
