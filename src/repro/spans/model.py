"""Span-tree data model: journeys, attempts, hops, phases.

A *journey* is one CoAP exchange followed end to end: the request leaving
the client, every 6LoWPAN/L2CAP fragment of every hop, the server turn,
and the response coming back.  Journeys decompose causally::

    Journey            one CoAP token/mid pair, begin -> outcome
      Attempt          one CoAP transmission (initial + each retransmit)
        HopSpan        one link traversal of the datagram (request or
                       response leg); consecutive hops are contiguous --
                       a hop starts the instant the previous one delivered
          Phase        named wait/air intervals that exactly tile the hop

    All times are integer nanoseconds of simulation time.

The tiling property is the load-bearing invariant: phases are emitted from
a running boundary (:func:`compute_phases`), so gaps and overlaps cannot
arise by construction, and :mod:`repro.spans.check` re-verifies the
property on every closed journey -- a violation means an instrumentation
seam lost an event, which is exactly what the conformance gate exists to
catch.

Like :mod:`repro.trace.record`, this module depends only on the standard
library: the link layer imports the hub, so the model must sit below every
other layer of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Schema tag stamped into every exported journeys payload.
SPANS_SCHEMA = "repro.spans/1"

# -- phase names --------------------------------------------------------------
#: Wait from SDU submission until the first connection-event anchor that
#: could have carried it.
PHASE_ANCHOR_WAIT = "anchor_wait"
#: Additional wait in the L2CAP/pktbuf queue: whole connection events that
#: passed without carrying this SDU (credit stalls, earlier SDUs) plus the
#: in-event backlog before the first fragment went out.
PHASE_QUEUE = "queue"
#: A PDU on the air.
PHASE_AIR = "air"
#: IFS + acknowledgement exchange between fragments inside one event.
PHASE_TURNAROUND = "turnaround"
#: The SDU straddled connection events: wait for the next anchor.
PHASE_EVENT_WAIT = "event_wait"
#: Wait for a link-layer retransmission after a lost PDU.
PHASE_RETX_WAIT = "retx_wait"
#: Between the last fragment arriving and the reassembled SDU being
#: delivered upward (zero on the BLE path: delivery is synchronous).
PHASE_REASSEMBLY = "reassembly"
#: A lost hop's tail: last observed activity until the hop was closed
#: (teardown, drop, or end of run).
PHASE_STALLED = "stalled"
#: Coarse single-phase hop for link layers without fragment-level
#: instrumentation (the IEEE 802.15.4 path).
PHASE_LINK = "link"

#: Every phase name a conforming hop may contain, in waterfall legend order.
PHASE_NAMES: Tuple[str, ...] = (
    PHASE_ANCHOR_WAIT,
    PHASE_QUEUE,
    PHASE_AIR,
    PHASE_TURNAROUND,
    PHASE_EVENT_WAIT,
    PHASE_RETX_WAIT,
    PHASE_REASSEMBLY,
    PHASE_STALLED,
    PHASE_LINK,
)


@dataclass(frozen=True)
class Phase:
    """One named interval of a hop; phases exactly tile their hop."""

    name: str
    begin_ns: int
    end_ns: int
    attrs: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form."""
        out: Dict[str, Any] = {
            "name": self.name,
            "begin_ns": self.begin_ns,
            "end_ns": self.end_ns,
        }
        for key, value in self.attrs:
            out[key] = value
        return out


class TxEvent:
    """One link-layer transmission of a fragment of the hop's SDU."""

    __slots__ = ("begin_ns", "end_ns", "nbytes", "lost", "retx",
                 "anchor_ns", "interval_ns")

    def __init__(
        self,
        begin_ns: int,
        end_ns: int,
        nbytes: int,
        lost: bool,
        retx: bool,
        anchor_ns: int,
        interval_ns: int,
    ) -> None:
        self.begin_ns = begin_ns
        self.end_ns = end_ns
        self.nbytes = nbytes
        self.lost = lost
        self.retx = retx
        #: Anchor of the connection event that carried this transmission.
        self.anchor_ns = anchor_ns
        #: Negotiated (true) connection interval of the carrying link.
        self.interval_ns = interval_ns


class HopSpan:
    """One link traversal: SDU submission on ``src`` until delivery on
    ``dst`` (or loss)."""

    __slots__ = ("src", "dst", "leg", "begin_ns", "end_ns", "outcome",
                 "txs", "phases", "coarse", "key")

    def __init__(self, src: str, dst: str, leg: str, begin_ns: int) -> None:
        self.src = src
        self.dst = dst
        #: ``request`` or ``response``.
        self.leg = leg
        self.begin_ns = begin_ns
        self.end_ns: Optional[int] = None
        self.outcome: Optional[str] = None
        self.txs: List[TxEvent] = []
        self.phases: List[Phase] = []
        #: Set for link layers without fragment-level hooks: the whole hop
        #: becomes one ``link`` phase.
        self.coarse = False
        #: The key of this hop in the span hub's table while it is open
        #: (internal bookkeeping, never exported).
        self.key: Any = None

    @property
    def closed(self) -> bool:
        """Whether the hop has been closed."""
        return self.end_ns is not None

    def close(self, end_ns: int, outcome: str) -> None:
        """Close the hop and derive its phase tiling."""
        self.end_ns = max(end_ns, self.begin_ns)
        self.outcome = outcome
        self.phases = compute_phases(
            self.begin_ns, self.end_ns, self.txs,
            ok=(outcome == "ok"), coarse=self.coarse,
        )

    @property
    def frames(self) -> int:
        """Number of link-layer transmissions, retransmissions included."""
        return len(self.txs)

    @property
    def retx(self) -> int:
        """Number of link-layer retransmissions."""
        return sum(1 for tx in self.txs if tx.retx)

    @property
    def reassembly_hold_ns(self) -> int:
        """How long the first delivered fragment waited for the last one."""
        if self.end_ns is None:
            return 0
        for tx in self.txs:
            if not tx.lost:
                return max(0, self.end_ns - tx.end_ns)
        return 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form."""
        return {
            "src": self.src,
            "dst": self.dst,
            "leg": self.leg,
            "begin_ns": self.begin_ns,
            "end_ns": self.end_ns,
            "outcome": self.outcome,
            "frames": self.frames,
            "retx": self.retx,
            "reassembly_hold_ns": self.reassembly_hold_ns,
            "phases": [p.to_dict() for p in self.phases],
        }


class Attempt:
    """One CoAP transmission and the hop chain it caused."""

    __slots__ = ("index", "begin_ns", "end_ns", "outcome", "hops")

    def __init__(self, index: int, begin_ns: int) -> None:
        self.index = index
        self.begin_ns = begin_ns
        self.end_ns: Optional[int] = None
        self.outcome: Optional[str] = None
        self.hops: List[HopSpan] = []

    @property
    def closed(self) -> bool:
        """Whether the attempt has been closed."""
        return self.end_ns is not None

    def close(self, end_ns: int, outcome: str) -> None:
        """Close the attempt (hops are closed by their own seams)."""
        self.end_ns = max(end_ns, self.begin_ns)
        self.outcome = outcome

    def new_hop(self, src: str, dst: str, leg: str, begin_ns: int) -> HopSpan:
        """Open the next hop of this attempt's chain."""
        hop = HopSpan(src, dst, leg, begin_ns)
        self.hops.append(hop)
        return hop

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form."""
        return {
            "index": self.index,
            "begin_ns": self.begin_ns,
            "end_ns": self.end_ns,
            "outcome": self.outcome,
            "hops": [h.to_dict() for h in self.hops],
        }


class Journey:
    """One CoAP exchange followed end to end."""

    __slots__ = ("id", "src", "dst", "token", "mid", "con",
                 "begin_ns", "end_ns", "outcome", "attempts")

    def __init__(
        self,
        journey_id: int,
        src: str,
        dst: str,
        token: str,
        mid: int,
        con: bool,
        begin_ns: int,
    ) -> None:
        self.id = journey_id
        self.src = src
        self.dst = dst
        #: Hex form of the CoAP token (deterministic, JSON-safe).
        self.token = token
        self.mid = mid
        self.con = con
        self.begin_ns = begin_ns
        self.end_ns: Optional[int] = None
        self.outcome: Optional[str] = None
        self.attempts: List[Attempt] = []

    @property
    def closed(self) -> bool:
        """Whether the journey has been closed."""
        return self.end_ns is not None

    def new_attempt(self, begin_ns: int) -> Attempt:
        """Open the next CoAP transmission attempt."""
        attempt = Attempt(len(self.attempts), begin_ns)
        self.attempts.append(attempt)
        return attempt

    def close(self, end_ns: int, outcome: str) -> None:
        """Close the journey; still-open attempts close alongside it.

        The attempt whose delivery completed the journey (``winner``, if
        any) inherits the journey outcome; other stragglers close as
        ``abandoned``.
        """
        self.end_ns = max(end_ns, self.begin_ns)
        self.outcome = outcome
        for attempt in self.attempts:
            if not attempt.closed:
                attempt.close(self.end_ns, outcome)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form."""
        return {
            "id": self.id,
            "src": self.src,
            "dst": self.dst,
            "token": self.token,
            "mid": self.mid,
            "con": self.con,
            "begin_ns": self.begin_ns,
            "end_ns": self.end_ns,
            "outcome": self.outcome,
            "attempts": [a.to_dict() for a in self.attempts],
        }


def compute_phases(
    begin_ns: int,
    end_ns: int,
    txs: List[TxEvent],
    ok: bool,
    coarse: bool = False,
) -> List[Phase]:
    """Derive the phase tiling of a hop from its raw transmission list.

    Phases are cut from a single running boundary, so the result tiles
    ``[begin_ns, end_ns]`` exactly -- monotone, gap-free, overlap-free --
    no matter how the raw events are shaped.  Out-of-order inputs (a
    forwarded SDU can be enqueued with an in-event time hint that exceeds
    the carrying event's anchor) clamp to the boundary instead of
    producing an overlap; the distortion is bounded by one event budget
    and only affects attribution, never conformance.

    Zero-length phases are skipped.
    """
    phases: List[Phase] = []
    last = begin_ns

    def cut(name: str, until_ns: int, **attrs: Any) -> None:
        nonlocal last
        until = min(max(until_ns, last), end_ns)
        if until > last:
            phases.append(Phase(name, last, until, tuple(attrs.items())))
            last = until

    if begin_ns >= end_ns:
        return phases
    if coarse:
        cut(PHASE_LINK, end_ns)
        return phases
    if txs:
        first = txs[0]
        # The first event anchor at or after submission: everything before
        # it is unavoidable anchor wait, everything after is queueing.
        n0 = begin_ns
        if first.anchor_ns > begin_ns and first.interval_ns > 0:
            skipped = (first.anchor_ns - begin_ns) // first.interval_ns
            n0 = first.anchor_ns - skipped * first.interval_ns
        cut(PHASE_ANCHOR_WAIT, n0)
        cut(PHASE_QUEUE, first.begin_ns)
        prev: Optional[TxEvent] = None
        for tx in txs:
            if prev is not None:
                if prev.lost or tx.retx:
                    cut(PHASE_RETX_WAIT, tx.begin_ns)
                elif tx.anchor_ns == prev.anchor_ns:
                    cut(PHASE_TURNAROUND, tx.begin_ns)
                else:
                    cut(PHASE_EVENT_WAIT, tx.begin_ns)
            cut(PHASE_AIR, tx.end_ns,
                nbytes=tx.nbytes, lost=tx.lost, retx=tx.retx)
            prev = tx
    # The tail reaches the hop end by construction, keeping the tiling
    # exact: reassembly hold for delivered hops (zero on the synchronous
    # BLE path), stalled time for lost ones.
    cut(PHASE_REASSEMBLY if ok else PHASE_STALLED, end_ns)
    return phases
