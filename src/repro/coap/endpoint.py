"""gcoap-equivalent CoAP endpoint: server resources + client requests.

Matches the paper's usage (§4.2-§4.3): an endpoint bound to the default
CoAP port serves resources and issues requests; non-confirmable requests are
acknowledged by the peer application with a CoAP ACK, confirmable requests
additionally arm the RFC 7252 retransmission timers (2 s base timeout --
which §8 warns collides with multi-second connection intervals).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.coap.message import (
    CoapCode,
    CoapDecodeError,
    CoapMessage,
    CoapType,
    empty_ack_bytes,
    request_bytes,
    uri_path_options,
)
from repro.sim.kernel import Timer
from repro.sim.units import SEC
from repro.sixlowpan.ipv6 import Ipv6Address
from repro.spans.hub import SPANS
from repro.trace.tracer import TRACE

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import Node

#: The default CoAP UDP port.
COAP_DEFAULT_PORT = 5683
#: RFC 7252 §4.8 transmission parameters.
ACK_TIMEOUT_NS = 2 * SEC
ACK_RANDOM_FACTOR = 1.5
MAX_RETRANSMIT = 4

#: ``handler(payload, src_addr) -> response payload or None`` for resources;
#: ``None`` yields an empty ACK (the paper's consumer behaviour).
ResourceHandler = Callable[[bytes, Ipv6Address], Optional[bytes]]
#: ``on_response(message, rtt_ns)`` for request completions.
ResponseHandler = Callable[[CoapMessage, int], None]

# What the datagram demux compares against, bound once: an enum member read
# off its class is slow on CPython 3.11.
_REQUEST_CODES = (CoapCode.GET, CoapCode.POST, CoapCode.PUT, CoapCode.DELETE)
_REQUEST_TYPES = (CoapType.CON, CoapType.NON)
_ACK = CoapType.ACK
_EMPTY = CoapCode.EMPTY


@dataclass(slots=True)
class _Pending:
    """A request awaiting its acknowledgement / response.

    ``data`` is the request as encoded, sent again on each retransmission.
    """

    data: bytes
    dst: Ipv6Address
    sent_at: int
    on_response: Optional[ResponseHandler]
    on_timeout: Optional[Callable[[], None]]
    retransmits_left: int
    timer: Optional[Timer] = None
    timeout_ns: int = ACK_TIMEOUT_NS


class CoapEndpoint:
    """One node's CoAP client+server.

    :param node: the owning :class:`repro.core.node.Node`.
    :param port: UDP port to bind (default 5683).
    :param rng: random stream for the ACK_RANDOM_FACTOR jitter.
    """

    def __init__(
        self,
        node: "Node",
        port: int = COAP_DEFAULT_PORT,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.node = node
        self.port = port
        self.rng = rng or random.Random(node.node_id ^ 0xC0A9)
        self._resources: Dict[str, ResourceHandler] = {}
        #: Each requested path's Uri-Path options, encoded once.
        self._path_options: Dict[str, bytes] = {}
        self._pending: Dict[Tuple[bytes, int], _Pending] = {}
        # MID and token advance in lockstep, so each names at most one
        # pending request: these index ``_pending`` for O(1) matching.  A
        # lost NON request never leaves it, so a walk would grow with the
        # run.
        self._key_by_mid: Dict[int, Tuple[bytes, int]] = {}
        self._key_by_token: Dict[bytes, Tuple[bytes, int]] = {}
        self._next_mid = self.rng.randrange(0, 0x10000)
        self._next_token = self.rng.randrange(0, 0x10000)
        # Statistics.
        self.requests_sent = 0
        self.responses_received = 0
        self.requests_served = 0
        self.acks_sent = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.decode_errors = 0
        node.udp.bind(port, self._on_datagram)

    # -- server side ------------------------------------------------------------

    def add_resource(self, path: str, handler: ResourceHandler) -> None:
        """Register a resource at ``path`` (no leading slash)."""
        self._resources[path] = handler

    # -- client side ---------------------------------------------------------------

    def request(
        self,
        dst: Ipv6Address,
        path: str,
        payload: bytes = b"",
        confirmable: bool = False,
        on_response: Optional[ResponseHandler] = None,
        on_timeout: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Issue a GET request; completion arrives via ``on_response``.

        :returns: False when the local stack dropped the request (e.g. the
            packet buffer was full); the request is *not* tracked then.
        """
        mid = self._next_mid
        self._next_mid = (self._next_mid + 1) & 0xFFFF
        token = self._next_token.to_bytes(2, "big")
        self._next_token = (self._next_token + 1) & 0xFFFF
        options = self._path_options.get(path)
        if options is None:
            options = self._path_options[path] = uri_path_options(path)
        data = request_bytes(options, payload, mid, token, confirmable)
        pending = _Pending(
            data=data,
            dst=dst,
            sent_at=self.node.sim.now,
            on_response=on_response,
            on_timeout=on_timeout,
            retransmits_left=MAX_RETRANSMIT if confirmable else 0,
        )
        if SPANS.enabled:
            # The journey context covers the whole synchronous send chain:
            # every hop span the datagram opens below attaches to it.
            span_prev = SPANS.journey_begin(
                self.node.node_id, str(dst), token, mid, confirmable
            )
            try:
                sent = self._transmit(data, dst)
            finally:
                SPANS.ctx_restore(span_prev)
            if not sent:
                SPANS.journey_complete(self.node.node_id, token, mid, "drop")
        else:
            sent = self._transmit(data, dst)
        if not sent:
            return False
        self.requests_sent += 1
        if TRACE.enabled:
            TRACE.emit(
                self.node.sim.now, "coap", "request",
                node=self.node.node_id, mid=mid, token=token.hex(),
                path=path, confirmable=confirmable,
            )
        key = (token, mid)
        self._pending[key] = pending
        self._key_by_mid[mid] = key
        self._key_by_token[token] = key
        if confirmable:
            timeout = int(
                ACK_TIMEOUT_NS * (1 + (ACK_RANDOM_FACTOR - 1) * self.rng.random())
            )
            pending.timeout_ns = timeout
            pending.timer = self.node.sim.after(timeout, self._retransmit, key)
        return True

    def _transmit(self, data: bytes, dst: Ipv6Address) -> bool:
        return self.node.udp.sendto(data, dst, self.port, self.port)

    def _retransmit(self, key: Tuple[bytes, int]) -> None:
        pending = self._pending.get(key)
        if pending is None:
            return
        if pending.retransmits_left <= 0:
            self._forget(key)
            self.timeouts += 1
            if TRACE.enabled:
                TRACE.emit(
                    self.node.sim.now, "coap", "timeout",
                    node=self.node.node_id, mid=key[1],
                )
            if SPANS.enabled:
                SPANS.journey_complete(
                    self.node.node_id, key[0], key[1], "timeout"
                )
            if pending.on_timeout is not None:
                pending.on_timeout()
            return
        pending.retransmits_left -= 1
        self.retransmissions += 1
        if TRACE.enabled:
            TRACE.emit(
                self.node.sim.now, "coap", "retransmit",
                node=self.node.node_id, mid=key[1],
                retransmits_left=pending.retransmits_left,
            )
        if SPANS.enabled:
            span_prev = SPANS.journey_retransmit(
                self.node.node_id, key[0], key[1]
            )
            try:
                self._transmit(pending.data, pending.dst)
            finally:
                SPANS.ctx_restore(span_prev)
        else:
            self._transmit(pending.data, pending.dst)
        pending.timeout_ns *= 2  # binary exponential backoff
        pending.timer = self.node.sim.after(
            pending.timeout_ns, self._retransmit, key
        )

    # -- datagram demux -----------------------------------------------------------

    def _on_datagram(self, payload: bytes, src: Ipv6Address, src_port: int) -> None:
        try:
            message = CoapMessage.decode(payload)
        except CoapDecodeError:
            self.decode_errors += 1
            return
        is_request = (
            message.code in _REQUEST_CODES and message.mtype in _REQUEST_TYPES
        )
        if is_request:
            self._serve(message, src, src_port)
        else:
            self._complete(message)

    def _serve(self, message: CoapMessage, src: Ipv6Address, src_port: int) -> None:
        handler = self._resources.get(message.uri_path())
        if handler is None:
            reply = message.make_ack(CoapCode.NOT_FOUND).encode()
        else:
            self.requests_served += 1
            response_payload = handler(message.payload, src)
            if response_payload is None:
                reply = empty_ack_bytes(message.mid)  # the paper's consumer
            else:
                reply = message.make_ack(CoapCode.CONTENT, response_payload).encode()
        self.acks_sent += 1
        if SPANS.enabled:
            # The reply rides the same journey context the delivered
            # request installed; hops below here are the response leg.
            SPANS.response_leg()
        self.node.udp.sendto(reply, src, src_port, self.port)

    def _forget(self, key: Tuple[bytes, int]) -> _Pending:
        """Remove one request from the pending table and its indexes."""
        del self._key_by_token[key[0]]
        del self._key_by_mid[key[1]]
        return self._pending.pop(key)

    def _complete(self, message: CoapMessage) -> None:
        """Match a response/ACK against the pending table."""
        if message.mtype is _ACK and message.code is _EMPTY:
            # empty ACKs carry no token: match by message id
            key = self._key_by_mid.get(message.mid)
        else:
            key = self._key_by_token.get(message.token)
        if key is None:
            return  # duplicate or stale response
        pending = self._forget(key)
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None  # cancelled handles must not be retained
        self.responses_received += 1
        rtt_ns = self.node.sim.now - pending.sent_at
        if TRACE.enabled:
            TRACE.emit(
                self.node.sim.now, "coap", "response",
                node=self.node.node_id, mid=message.mid, rtt_ns=rtt_ns,
            )
        if SPANS.enabled:
            SPANS.journey_complete(self.node.node_id, key[0], key[1], "ok")
        if pending.on_response is not None:
            pending.on_response(message, rtt_ns)
