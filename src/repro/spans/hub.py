"""The process-wide span hub: journey propagation and span lifecycle.

Instrumented code throughout the stack guards every call with::

    if SPANS.enabled:
        SPANS.hop_delivered()

:data:`SPANS` is a module-level singleton that is *never replaced* -- the
same discipline as :data:`repro.trace.tracer.TRACE` -- so the hot-path
cost with spans disabled is one attribute load and one branch.

Journey ids are propagated *causally*, not on the wire: inside one kernel
dispatch every piece of downstream work a packet triggers runs
synchronously, so the hub holds a "current journey" context that entry
points (a CoAP request, a link-layer SDU delivery) install and restore
around the work they cause.  No message format changes, no extra timers,
no RNG draws -- a spans-enabled run is byte-identical to a disabled one
in every trace and metric the simulator produces.

Because simulation time does not advance inside a dispatch (``sim.now``
is frozen at the carrying event's anchor), the BLE exchange loop publishes
its exact per-PDU times through :attr:`SpanHub.now_hint`; every span
opened or closed during a delivery chain is stamped with the true air
time rather than the anchor, which is what makes consecutive hops tile
exactly.

Hops live in one table.  On BLE the key is the L2CAP SDU record
carrying the hop, by identity (:class:`repro.l2cap.coc._CocEnd` queues one
record per SDU and stamps its K-frames with it), which bridges the
asynchronous gap between SDU submission and the connection events that
carry the fragments.  A link layer without fragment-level hooks
(802.15.4) keys a *coarse* single-phase hop by a hashable datagram key
that both ends can build.

The hub keeps the journeys it has closed, in close order; a metered run's
:class:`~repro.obs.sampler.MetricsSnapshotter` reads their ``spans.*``
metrics from there.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.spans.check import SpanViolation, check_journey
from repro.spans.model import SPANS_SCHEMA, HopSpan, Journey, TxEvent


class _Ctx:
    """The propagated journey context of one synchronous causal chain."""

    __slots__ = ("journey", "attempt", "leg", "hop")

    def __init__(self, journey: Journey, attempt: Any, leg: str,
                 hop: Optional[HopSpan] = None) -> None:
        self.journey = journey
        self.attempt = attempt
        self.leg = leg
        #: The hop currently being received (set by :meth:`SpanHub.rx_enter`).
        self.hop = hop


class SpanHub:
    """Journey registry, propagation context, and span lifecycle seams."""

    __slots__ = (
        "enabled",
        "now_hint",
        "journeys",
        "closed",
        "violations",
        "_sim",
        "_next_id",
        "_ctx",
        "_by_key",
        "_hops",
        "_open_by_conn",
    )

    def __init__(self) -> None:
        #: The hot-path gate; instrumented code checks this before anything.
        self.enabled = False
        #: Exact in-event time published by the BLE exchange loop while a
        #: delivery chain runs (``None`` = use ``sim.now``).
        self.now_hint: Optional[int] = None
        #: Every journey of the run, in begin order (dense per-run ids).
        self.journeys: List[Journey] = []
        #: The journeys closed so far, in close order.
        self.closed: List[Journey] = []
        #: Conformance violations found by the streaming checker.
        self.violations: List[SpanViolation] = []
        self._sim: Any = None
        self._next_id = 0
        self._ctx: Optional[_Ctx] = None
        #: ``(node_id, token, mid) -> journey`` for CoAP completion/timeout.
        self._by_key: Dict[Tuple[int, bytes, int], Journey] = {}
        #: The open hops, ``key -> (hop, journey, attempt)`` (see
        #: :meth:`hop_open`); an entry leaves as its hop closes.
        self._hops: Dict[Any, Tuple[HopSpan, Journey, Any]] = {}
        #: ``id(conn) -> [hop, ...]`` so teardown can close orphans.
        self._open_by_conn: Dict[int, List[HopSpan]] = {}

    # -- lifecycle -----------------------------------------------------------

    def configure(self, sim: Any = None) -> None:
        """Arm the hub: reset per-run state, enable collection."""
        self._sim = sim
        self.now_hint = None
        self.journeys = []
        self.closed = []
        self.violations = []
        self._next_id = 0
        self._ctx = None
        self._by_key = {}
        self._hops = {}
        self._open_by_conn = {}
        self.enabled = True

    def attach_sim(self, sim: Any) -> None:
        """Late-bind the simulator (the runner knows it after net build)."""
        self._sim = sim

    def reset(self) -> None:
        """Disarm the hub and drop all state."""
        self.enabled = False
        self.now_hint = None
        self._sim = None
        self._ctx = None
        self.journeys = []
        self.closed = []
        self.violations = []
        self._by_key = {}
        self._hops = {}
        self._open_by_conn = {}

    def now(self) -> int:
        """Exact current time: the in-event hint when set, else ``sim.now``."""
        hint = self.now_hint
        if hint is not None:
            return hint
        sim = self._sim
        return int(sim.now) if sim is not None else 0

    # -- context propagation -------------------------------------------------

    def ctx_restore(self, prev: Optional[_Ctx]) -> None:
        """Restore the context an entry point swapped out."""
        self._ctx = prev

    # -- journey seams (CoAP endpoint) ---------------------------------------

    def journey_begin(
        self, node_id: int, dst: str, token: bytes, mid: int, con: bool
    ) -> Optional[_Ctx]:
        """A CoAP request is being sent; returns the context to restore."""
        begin = self.now()
        journey = Journey(
            self._next_id, f"node{node_id}", dst, token.hex(), mid, con, begin
        )
        self._next_id += 1
        self.journeys.append(journey)
        self._by_key[(node_id, token, mid)] = journey
        attempt = journey.new_attempt(begin)
        prev = self._ctx
        self._ctx = _Ctx(journey, attempt, "request")
        return prev

    def journey_retransmit(
        self, node_id: int, token: bytes, mid: int
    ) -> Optional[_Ctx]:
        """A CoAP retransmission fires; opens the next attempt."""
        prev = self._ctx
        journey = self._by_key.get((node_id, token, mid))
        if journey is None or journey.closed:
            return prev
        attempt = journey.new_attempt(self.now())
        self._ctx = _Ctx(journey, attempt, "request")
        return prev

    def journey_complete(
        self, node_id: int, token: bytes, mid: int, outcome: str
    ) -> None:
        """The client matched a response (``ok``) or gave up (``timeout``)."""
        journey = self._by_key.pop((node_id, token, mid), None)
        if journey is None or journey.closed:
            return
        now = self.now()
        ctx = self._ctx
        if ctx is not None and ctx.journey is journey and not ctx.attempt.closed:
            # The delivering attempt ends at the completion instant; any
            # sibling still in flight is closed as abandoned by close().
            ctx.attempt.close(now, outcome)
        for attempt in journey.attempts:
            if not attempt.closed:
                attempt.close(now, "abandoned" if outcome == "ok" else outcome)
        journey.close(now, outcome)
        self._finish_journey(journey)

    def response_leg(self) -> None:
        """The server is about to send the response for the current chain."""
        ctx = self._ctx
        if ctx is not None:
            ctx.leg = "response"

    def drop(self, cause: str) -> None:
        """The packet of the current chain was dropped (IP or buffer)."""
        ctx = self._ctx
        if ctx is None or ctx.attempt.closed:
            return
        ctx.attempt.close(self.now(), f"drop:{cause}")

    # -- hop seams (netif / L2CAP / link layer) ------------------------------

    def hop_open(self, key: Any, conn: Any, src: str, dst: str) -> None:
        """A datagram of the current chain was queued on a link.

        On BLE ``key`` is the L2CAP SDU record and ``conn`` its connection;
        a link without connections (``conn`` None) passes a hashable
        datagram key the receiver rebuilds, and its hop is coarse.
        """
        ctx = self._ctx
        if ctx is None or ctx.attempt.closed:
            return
        hop = ctx.attempt.new_hop(src, dst, ctx.leg, self.now())
        hop.key = key
        self._hops[key] = (hop, ctx.journey, ctx.attempt)
        if conn is None:
            hop.coarse = True
        else:
            self._open_by_conn.setdefault(id(conn), []).append(hop)

    def ll_tx(
        self,
        rec: Any,
        begin_ns: int,
        end_ns: int,
        nbytes: int,
        lost: bool,
        retx: bool,
        anchor_ns: int,
        interval_ns: int,
    ) -> None:
        """One K-frame of ``rec`` went on the air (from the exchange loop)."""
        entry = self._hops.get(rec)
        if entry is not None:
            entry[0].txs.append(
                TxEvent(begin_ns, end_ns, nbytes, lost, retx, anchor_ns, interval_ns)
            )

    def rx_enter(self, key: Any) -> Optional[_Ctx]:
        """A frame of ``key``'s hop arrived; install its chain context."""
        prev = self._ctx
        entry = self._hops.get(key)
        if entry is None:
            return prev
        hop, journey, attempt = entry
        if not journey.closed:
            self._ctx = _Ctx(journey, attempt, hop.leg, hop)
        return prev

    def hop_delivered(self) -> None:
        """The datagram being received reassembled completely; close its hop."""
        ctx = self._ctx
        hop = ctx.hop if ctx is not None else None
        if hop is None or hop.closed:
            return
        self._close_hop(hop, self.now(), "ok")

    def hop_lost(self, key: Any) -> None:
        """The link gave up on (a frame of) ``key``'s datagram."""
        entry = self._hops.get(key)
        if entry is not None:
            self._close_hop(entry[0], self.now(), "lost")

    def conn_closed(self, conn: Any) -> None:
        """A link went down; its in-flight hops are lost."""
        hops = self._open_by_conn.pop(id(conn), None)
        if not hops:
            return
        now = self.now()
        for hop in hops:
            if not hop.closed:
                self._close_hop(hop, now, "lost")

    # -- end of run ----------------------------------------------------------

    def finish(self, end_ns: int) -> None:
        """Close everything still open at the end of the run as ``lost``.

        Journeys whose datagram is still in flight (or whose NON request
        vanished without a retransmission to notice) flush here; the
        checker exempts nothing -- their spans must still nest and tile up
        to the flush point.
        """
        for entry in list(self._hops.values()):
            self._close_hop(entry[0], end_ns, "lost")
        self._open_by_conn = {}
        for journey in self.journeys:
            if not journey.closed:
                journey.close(end_ns, "lost")
                self._finish_journey(journey)
        self._by_key = {}
        self._ctx = None

    def export_payload(self) -> Dict[str, Any]:
        """The run's journeys as a JSON-safe, byte-stable payload."""
        outcomes: Dict[str, int] = {}
        hops = frames = 0
        for journey in self.journeys:
            outcomes[journey.outcome or "open"] = (
                outcomes.get(journey.outcome or "open", 0) + 1
            )
            for attempt in journey.attempts:
                hops += len(attempt.hops)
                for hop in attempt.hops:
                    frames += hop.frames
        return {
            "schema": SPANS_SCHEMA,
            "journeys": [j.to_dict() for j in self.journeys],
            "violations": [v.to_dict() for v in self.violations],
            "summary": {
                "journeys": len(self.journeys),
                "outcomes": {k: outcomes[k] for k in sorted(outcomes)},
                "hops": hops,
                "frames": frames,
            },
        }

    # -- internals -----------------------------------------------------------

    def _close_hop(self, hop: HopSpan, end_ns: int, outcome: str) -> None:
        hop.close(end_ns, outcome)
        self._hops.pop(hop.key, None)
        hop.key = None

    def _finish_journey(self, journey: Journey) -> None:
        """Check a freshly closed journey and keep it in close order."""
        self.violations.extend(check_journey(journey))
        self.closed.append(journey)


#: The singleton every instrumented module imports.  Never rebind it.
SPANS = SpanHub()
