"""LE credit-based connection-oriented channel (CoC).

Framing (Bluetooth Core 5.2 Vol 3 Part A):

* every L2CAP PDU starts with a 4-byte *basic header*: payload length (2)
  and channel id (2);
* a **K-frame** carries SDU data on the channel's CID; the *first* K-frame
  of an SDU additionally carries the total SDU length (2 bytes);
* **LE Flow Control Credit** signalling packets (CID 0x0005, code 0x16)
  return transmit credits to the peer; one credit pays for one K-frame.

Segmentation is sized so each K-frame fits a single LL data PDU (the data
length extension gives 251 bytes of LL payload, §4.2), which is also how
NimBLE moves IPSP traffic.  The credit economy means a slow consumer stalls
the sender -- back-pressure propagates to the IP packet buffer, where the
paper's overload losses happen (§5.2).
"""

from __future__ import annotations

import struct
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.ble.conn import Connection, Endpoint
from repro.ble.pdu import DataPdu, Llid
from repro.spans.hub import SPANS
from repro.trace.tracer import TRACE

if TYPE_CHECKING:  # pragma: no cover
    from repro.ble.controller import BleController

#: L2CAP LE signalling channel id.
SIGNALLING_CID = 0x0005
#: LE Credit Based Connection Request / Response signalling codes
#: (BT 5.2 Vol 3 Part A §4.22/§4.23).
LE_CREDIT_CONN_REQ = 0x14
LE_CREDIT_CONN_RSP = 0x15
#: LE Flow Control Credit signalling code.
LE_FLOW_CONTROL_CREDIT = 0x16
#: Connection response result codes.
RESULT_SUCCESS = 0x0000
RESULT_PSM_NOT_SUPPORTED = 0x0002
#: Default dynamic CID used for the IPSP data channel on both sides.
DEFAULT_COC_CID = 0x0040
#: IPSP LE_PSM (RFC 7668 §4; Internet Protocol Support Profile).
IPSP_PSM = 0x0023

_BASIC_HEADER = struct.Struct("<HH")
_SDU_LEN = struct.Struct("<H")
#: The first K-frame's basic header followed by the SDU length.
_FIRST_KFRAME_HEADER = struct.Struct("<HHH")
_CREDIT_PACKET = struct.Struct("<HHBBHHH")
#: header(len,cid) + code,id,len + psm,scid,mtu,mps,credits
_CONN_REQ = struct.Struct("<HHBBHHHHHH")
#: header(len,cid) + code,id,len + dcid,mtu,mps,credits,result
_CONN_RSP = struct.Struct("<HHBBHHHHHH")
#: Bound once: an enum member read off its class is slow on CPython 3.11.
_DATA_START = Llid.DATA_START


class CocConfig:
    """Channel parameters.

    :param mtu: maximum SDU size; RFC 7668 requires >= 1280 (IPv6 MTU).
    :param mps: maximum K-frame *payload* size.  The default (247) makes a
        continuation K-frame exactly fill a 251-byte LL PDU.
    :param initial_credits: K-frames the peer may send before the first
        credit return.
    """

    def __init__(self, mtu: int = 1280, mps: int = 247, initial_credits: int = 10):
        if mps < 23:
            raise ValueError("MPS below the L2CAP minimum of 23")
        if mtu < mps:
            raise ValueError("MTU must be at least one MPS")
        if initial_credits < 1:
            raise ValueError("need at least one initial credit")
        self.mtu = mtu
        self.mps = mps
        self.initial_credits = initial_credits


class _SduRecord:
    """One queued outbound SDU and its segmentation progress."""

    __slots__ = ("data", "offset", "tag", "frames_sent", "frames_acked", "complete")

    def __init__(self, data: bytes, tag: Optional[object]):
        self.data = data
        self.offset = 0
        self.tag = tag
        self.frames_sent = 0
        self.frames_acked = 0
        self.complete = False  # all frames handed to LL


class _CocEnd:
    """One side of the channel: credits, segmentation, reassembly."""

    def __init__(self, coc: "L2capCoc", ll_end: Endpoint, config: CocConfig):
        self.coc = coc
        self.ll_end = ll_end
        self.config = config
        #: K-frames we may still send (granted by the peer).
        self.credits = config.initial_credits
        self.tx_sdus: Deque[_SduRecord] = deque()
        self._rx_buf = bytearray()
        self._rx_expected: Optional[int] = None
        self._rx_frames = 0
        self._stalled_on_pool = False
        self._pending_credit_grant = 0
        #: K-frames received and not yet paid back.
        self._consumed_since_grant = 0
        #: K-frames the peer may still send: our grants minus the frames
        #: received (both ends start with the channel's initial credits).
        self._peer_credits = config.initial_credits
        # Return credits in batches (half the initial window), like real
        # stacks do -- a per-SDU grant would double the packet load on
        # saturated links.
        self._grant_threshold = max(1, config.initial_credits // 2)
        self._sig_identifier = 1
        #: Upper-layer delivery hook: ``on_sdu(bytes)``.
        self.on_sdu: Optional[Callable[[bytes], None]] = None
        #: Completion hook: ``on_sdu_sent(tag)`` after the last frame is
        #: acknowledged on the link layer.
        self.on_sdu_sent: Optional[Callable[[Optional[object]], None]] = None
        # Statistics.
        self.sdus_sent = 0
        self.sdus_received = 0
        self.credits_returned = 0
        self.bytes_sent = 0
        #: Pumps stopped by a full LL buffer pool, or by no credit (§5.2).
        self.pool_stalls = 0
        self.credit_stalls = 0

        ll_end.on_rx_pdu = self._on_ll_rx
        ll_end.on_pdu_acked = self._on_ll_acked

    # -- transmit ---------------------------------------------------------

    def queue_bytes(self) -> int:
        """Bytes of SDUs not yet fully acknowledged on this side."""
        return sum(len(rec.data) for rec in self.tx_sdus)

    def send_sdu(self, sdu: bytes, tag: Optional[object] = None) -> None:
        """Queue one SDU for segmentation and transfer."""
        if len(sdu) > self.config.mtu:
            raise ValueError(f"SDU of {len(sdu)} bytes exceeds MTU {self.config.mtu}")
        rec = _SduRecord(sdu, tag)
        self.tx_sdus.append(rec)
        if SPANS.enabled:
            controller = self.ll_end.controller
            peer = self.coc.conn.peer_of(controller).identity
            SPANS.hop_open(
                rec, self.coc.conn,
                f"node{controller.identity}", f"node{peer}",
            )
        self.pump()

    def pump(self) -> None:
        """Push K-frames to the LL while credits and buffers allow."""
        if not self.coc.is_open:
            return  # queued SDUs wait for the channel handshake
        while self.tx_sdus and self.credits > 0:
            rec = self.tx_sdus[0]
            if rec.complete:
                # head is fully handed to LL, awaiting acks; nothing to push
                break
            offset = rec.offset
            frame, is_last = self._build_kframe(rec)
            ok = self.ll_end.send(
                frame, _DATA_START, ("kframe", self, rec, is_last)
            )
            if not ok:
                rec.offset = offset  # the frame is built again once acks free the pool
                self._stalled_on_pool = True
                self.pool_stalls += 1
                return
            self._stalled_on_pool = False
            self.credits -= 1
            rec.frames_sent += 1
            self.bytes_sent += len(frame)
            if is_last:
                rec.complete = True
            if TRACE.enabled:
                TRACE.emit(
                    self.coc.conn.sim.now, "l2cap", "kframe_tx",
                    conn=self.coc.conn.conn_id,
                    node=self.ll_end.controller.name,
                    frame_len=len(frame), credits_left=self.credits,
                    last=is_last,
                )
        if self.credits == 0 and self.tx_sdus and not self.tx_sdus[0].complete:
            # the head SDU still has frames to push but the peer owes us
            # credits: the back-pressure situation of §5.2
            self.credit_stalls += 1

    def _build_kframe(self, rec: _SduRecord) -> tuple[bytes, bool]:
        """Produce the next K-frame of ``rec`` (without sending it)."""
        data = rec.data
        offset = rec.offset
        if offset == 0:
            chunk = data[: self.config.mps - _SDU_LEN.size]
            frame = _FIRST_KFRAME_HEADER.pack(
                _SDU_LEN.size + len(chunk), DEFAULT_COC_CID, len(data)
            ) + chunk
        else:
            chunk = data[offset : offset + self.config.mps]
            frame = _BASIC_HEADER.pack(len(chunk), DEFAULT_COC_CID) + chunk
        rec.offset = offset = offset + len(chunk)
        return frame, offset >= len(data)

    def _on_ll_acked(self, pdu: DataPdu) -> None:
        """LL acknowledged one of our PDUs: progress + possibly completion."""
        tag = pdu.tag
        if isinstance(tag, tuple) and tag[0] == "kframe":
            _, end, rec, is_last = tag
            rec.frames_acked += 1
            if is_last and rec.complete:
                if self.tx_sdus and self.tx_sdus[0] is rec:
                    self.tx_sdus.popleft()
                self.sdus_sent += 1
                if TRACE.enabled:
                    TRACE.emit(
                        self.coc.conn.sim.now, "l2cap", "sdu_sent",
                        conn=self.coc.conn.conn_id,
                        node=self.ll_end.controller.name,
                        len=len(rec.data),
                    )
                if self.on_sdu_sent is not None:
                    self.on_sdu_sent(rec.tag)
        # acked PDUs free LL buffer space: resume stalled grants and pumps
        if self._pending_credit_grant:
            self._flush_credit_grant()
        if self.tx_sdus:
            self.pump()

    # -- receive ----------------------------------------------------------

    def _on_ll_rx(self, pdu: DataPdu) -> None:
        """Parse one LL payload as an L2CAP PDU."""
        data = pdu.payload
        if len(data) < _BASIC_HEADER.size:
            return  # malformed; drop silently like a real controller
        length, cid = _BASIC_HEADER.unpack_from(data)
        body = data[_BASIC_HEADER.size : _BASIC_HEADER.size + length]
        if cid == SIGNALLING_CID:
            self._on_signalling(body)
        elif cid == DEFAULT_COC_CID:
            tag = pdu.tag
            if SPANS.enabled and isinstance(tag, tuple) and tag[0] == "kframe":
                # Install the carrying hop's journey context around the
                # whole delivery chain: reassembly completion closes this
                # hop, and a forwarded SDU opens the next one under the
                # same journey.
                span_prev = SPANS.rx_enter(tag[2])
                try:
                    self._on_kframe(body)
                finally:
                    SPANS.ctx_restore(span_prev)
            else:
                self._on_kframe(body)
        else:
            handler = self.coc.fixed_handlers.get(
                (cid, self.ll_end.controller)
            )
            if handler is not None:
                handler(body)

    def _on_signalling(self, body: bytes) -> None:
        """Dispatch one LE signalling command."""
        if len(body) < 4:
            return
        code = body[0]
        if code == LE_FLOW_CONTROL_CREDIT and len(body) >= 8:
            credits = struct.unpack_from("<H", body, 6)[0]
            self.credits += credits
            self.pump()
        elif code == LE_CREDIT_CONN_REQ and len(body) >= 14:
            psm, _scid, _mtu, _mps, credits = struct.unpack_from("<HHHHH", body, 4)
            self.coc._on_conn_request(self, psm, credits)
        elif code == LE_CREDIT_CONN_RSP and len(body) >= 14:
            _dcid, _mtu, _mps, credits, result = struct.unpack_from(
                "<HHHHH", body, 4
            )
            self.coc._on_conn_response(self, credits, result)

    def _on_kframe(self, body: bytes) -> None:
        """Reassemble K-frames into SDUs and deliver them."""
        self._peer_credits -= 1
        self._consumed_since_grant += 1
        if self._rx_expected is None:
            if len(body) < _SDU_LEN.size:
                return
            expected = _SDU_LEN.unpack_from(body)[0]
            if len(body) >= _SDU_LEN.size + expected:
                # the whole SDU rode in its first K-frame
                self._deliver(body[_SDU_LEN.size : _SDU_LEN.size + expected], 1)
                return
            self._rx_expected = expected
            body = body[_SDU_LEN.size :]
            self._rx_buf.clear()
            self._rx_frames = 0
        self._rx_buf.extend(body)
        self._rx_frames += 1
        if len(self._rx_buf) >= self._rx_expected:
            sdu = bytes(self._rx_buf[: self._rx_expected])
            frames = self._rx_frames
            self._rx_expected = None
            self._rx_buf.clear()
            self._rx_frames = 0
            self._deliver(sdu, frames)
        elif self._peer_credits == 0:
            # The peer cannot send the rest of this SDU before it is paid:
            # grant what was consumed now, below the batch threshold too.
            self._grant_consumed()

    def _deliver(self, sdu: bytes, frames: int) -> None:
        """Hand one reassembled SDU up; pay back the consumed K-frames once
        a batch has accrued."""
        self.sdus_received += 1
        if TRACE.enabled:
            TRACE.emit(
                self.coc.conn.sim.now, "l2cap", "sdu_rx",
                conn=self.coc.conn.conn_id,
                node=self.ll_end.controller.name,
                len=len(sdu), frames=frames,
            )
        if self._consumed_since_grant >= self._grant_threshold:
            self._grant_consumed()
        if SPANS.enabled:
            SPANS.hop_delivered()
        if self.on_sdu is not None:
            self.on_sdu(sdu)

    def _grant_consumed(self) -> None:
        """Pay back every K-frame consumed since the last grant."""
        self._pending_credit_grant += self._consumed_since_grant
        self._consumed_since_grant = 0
        self._flush_credit_grant()

    def _flush_credit_grant(self) -> None:
        """Send any pending credit grant; retried when buffers free up so a
        full pool cannot permanently strand the peer without credits."""
        if self._pending_credit_grant == 0:
            return
        n = self._pending_credit_grant
        packet = _CREDIT_PACKET.pack(
            10,  # signalling payload length: code+id+len+cid+credits
            SIGNALLING_CID,
            LE_FLOW_CONTROL_CREDIT,
            self._sig_identifier & 0xFF,
            6,  # data length of the command
            DEFAULT_COC_CID,
            n,
        )
        if self.ll_end.send(packet, _DATA_START, ("credit",)):
            self._sig_identifier += 1
            self.credits_returned += n
            self._peer_credits += n
            self._pending_credit_grant = 0
            if TRACE.enabled:
                TRACE.emit(
                    self.coc.conn.sim.now, "l2cap", "credits",
                    conn=self.coc.conn.conn_id,
                    node=self.ll_end.controller.name,
                    granted=n,
                )


class L2capCoc:
    """A credit-based channel spanning one BLE connection.

    :param conn: the underlying :class:`~repro.ble.conn.Connection`.
    :param config: channel parameters (defaults follow NimBLE's IPSP setup).
    :param handshake: when True the channel starts closed and must be
        established with :meth:`open_channel` (the LE Credit Based
        Connection Request/Response exchange on a PSM, as RFC 7668
        prescribes for IPSP).  When False -- the default, used by unit
        tests and direct library users -- the channel is born open.
    """

    def __init__(
        self,
        conn: Connection,
        config: Optional[CocConfig] = None,
        handshake: bool = False,
    ):
        self.conn = conn
        self.config = config or CocConfig()
        #: 'open', 'idle' (awaiting open_channel), 'requested', 'refused'.
        self.state = "idle" if handshake else "open"
        #: PSMs this channel's responder side accepts (the netif registers
        #: the IPSP PSM; an empty set refuses everything).
        self.accepted_psms = set() if handshake else {IPSP_PSM}
        #: Subscribers called with (coc, success: bool) after the handshake.
        self.open_listeners: list = []
        self._open_notified = False
        #: Fixed-channel demux: (cid, receiving controller) -> handler(body).
        #: ATT (CID 0x0004) registers here; see :mod:`repro.gatt`.
        self.fixed_handlers = {}
        self._ends = {
            conn.coord.controller: _CocEnd(self, conn.coord, self.config),
            conn.sub.controller: _CocEnd(self, conn.sub, self.config),
        }

    def end_of(self, controller: "BleController") -> _CocEnd:
        """The channel endpoint owned by ``controller``."""
        return self._ends[controller]

    @property
    def is_open(self) -> bool:
        """Whether data may flow (handshake complete or not required)."""
        return self.state == "open"

    def register_fixed_channel(self, cid: int, controller, handler) -> None:
        """Attach a fixed-channel handler for PDUs arriving at ``controller``."""
        self.fixed_handlers[(cid, controller)] = handler

    def send_fixed(self, controller, cid: int, body: bytes) -> bool:
        """Send one fixed-channel L2CAP PDU from ``controller``'s side."""
        packet = _BASIC_HEADER.pack(len(body), cid) + body
        return self.conn.send(
            controller, packet, llid=Llid.DATA_START, tag=("fixed", cid)
        )

    def accept_psm(self, psm: int) -> None:
        """Allow incoming channel requests for ``psm`` (responder side)."""
        self.accepted_psms.add(psm)

    def open_channel(self, controller: "BleController", psm: int = IPSP_PSM) -> None:
        """Initiate the LE credit-based connection handshake from
        ``controller``'s side (RFC 7668: the coordinator/6LN initiates)."""
        if self.state == "open":
            return
        self.state = "requested"
        end = self.end_of(controller)
        packet = _CONN_REQ.pack(
            14,
            SIGNALLING_CID,
            LE_CREDIT_CONN_REQ,
            end._sig_identifier & 0xFF,
            10,
            psm,
            DEFAULT_COC_CID,
            self.config.mtu,
            self.config.mps,
            self.config.initial_credits,
        )
        end._sig_identifier += 1
        self.conn.send(controller, packet, llid=Llid.DATA_START, tag=("conn-req",))

    # -- handshake handling (called from the receiving end) -----------------

    def _on_conn_request(self, receiver_end: _CocEnd, psm: int, credits: int) -> None:
        accepted = psm in self.accepted_psms
        result = RESULT_SUCCESS if accepted else RESULT_PSM_NOT_SUPPORTED
        packet = _CONN_RSP.pack(
            14,
            SIGNALLING_CID,
            LE_CREDIT_CONN_RSP,
            receiver_end._sig_identifier & 0xFF,
            10,
            DEFAULT_COC_CID,
            self.config.mtu,
            self.config.mps,
            self.config.initial_credits if accepted else 0,
            result,
        )
        receiver_end._sig_identifier += 1
        self.conn.send(
            receiver_end.ll_end.controller, packet, llid=Llid.DATA_START,
            tag=("conn-rsp",),
        )
        if accepted:
            # the requester granted us `credits` for our transmissions
            receiver_end.credits = credits
            self.state = "open"
            self._notify_open(True)
            receiver_end.pump()

    def _on_conn_response(self, receiver_end: _CocEnd, credits: int, result: int) -> None:
        if result == RESULT_SUCCESS:
            receiver_end.credits = credits
            self.state = "open"
            self._notify_open(True)
            receiver_end.pump()
        else:
            self.state = "refused"
            self._notify_open(False)

    def _notify_open(self, success: bool) -> None:
        # the channel object is shared by both endpoints; notify once
        if self._open_notified:
            return
        self._open_notified = True
        for listener in list(self.open_listeners):
            listener(self, success)

    def send(
        self,
        controller: "BleController",
        sdu: bytes,
        tag: Optional[object] = None,
    ) -> None:
        """Send ``sdu`` from ``controller``'s side of the link."""
        self.end_of(controller).send_sdu(sdu, tag)

    def set_rx_handler(
        self, controller: "BleController", handler: Callable[[bytes], None]
    ) -> None:
        """Install the SDU delivery callback for ``controller``'s side."""
        self.end_of(controller).on_sdu = handler

    @property
    def open(self) -> bool:
        """Whether the underlying connection is still alive."""
        return self.conn.open
