"""The BLE network interface (the paper's ``nimble_netif``, §3).

One :class:`BleNetif` per node bridges the IP stack and the BLE controller:

* on connection open it attaches an L2CAP CoC to the link, installs
  neighbour-cache entries for the peer (RFC 7668 derives the IID from the
  device address, no address resolution needed), and starts forwarding;
* outbound packets are IPHC-compressed, charged against the GNRC packet
  buffer, and handed to the CoC; the buffer bytes are released only when the
  SDU is acknowledged on the link layer -- so a stalled link holds buffer
  space, which is precisely how the paper's overload losses arise (§5.2);
* on connection close all held buffer bytes are released and the neighbour
  entries are withdrawn.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.ble.conn import Connection, DisconnectReason
from repro.ble.controller import BleController
from repro.l2cap import CocConfig, L2capCoc
from repro.net.pktbuf import PacketBuffer
from repro.sixlowpan.adapt import BleAdaptation
from repro.sixlowpan.ipv6 import Ipv6Packet
from repro.spans.hub import SPANS
from repro.trace.tracer import TRACE

if TYPE_CHECKING:  # pragma: no cover
    from repro.l2cap.coc import _CocEnd
    from repro.net.ip import Ipv6Stack


def coc_of(
    conn: Connection,
    config: Optional[CocConfig] = None,
    handshake: bool = False,
) -> L2capCoc:
    """The single shared CoC of a connection (created on first use).

    Both endpoints' netifs must drive the *same* channel object, so it is
    cached on the connection.
    """
    coc = getattr(conn, "_ipsp_coc", None)
    if coc is None:
        coc = L2capCoc(conn, config, handshake=handshake)
        conn._ipsp_coc = coc
    return coc


class _Link:
    """What ``send`` needs of one live connection, resolved when it opens.

    :param end: this node's end of the connection's IPSP channel.
    :param peer_iid: the RFC 7668 IID of the peer's identity.
    """

    __slots__ = ("end", "peer_iid", "held")

    def __init__(self, end: _CocEnd, peer_iid: bytes) -> None:
        self.end = end
        self.peer_iid = peer_iid
        #: Packet-buffer bytes of SDUs queued on the link and not yet
        #: acknowledged.
        self.held = 0


class BleNetif:
    """IPv6-over-BLE interface for one node.

    :param controller: the node's BLE controller.
    :param pktbuf: the node's GNRC packet buffer.
    :param coc_config: L2CAP channel parameters.
    """

    def __init__(
        self,
        controller: BleController,
        pktbuf: PacketBuffer,
        coc_config: Optional[CocConfig] = None,
    ) -> None:
        self.controller = controller
        self.pktbuf = pktbuf
        self.coc_config = coc_config
        self.adaptation = BleAdaptation()
        # RFC 7668 IID of this node, derived once: the identity never changes.
        self._iid = BleAdaptation.iid_for_node(controller.identity)
        #: Set by :meth:`repro.net.ip.Ipv6Stack.add_netif`.
        self.ip: Optional["Ipv6Stack"] = None
        self._links: Dict[Connection, _Link] = {}
        # Statistics.
        self.tx_packets = 0
        self.rx_packets = 0
        self.drops_pktbuf = 0
        self.drops_no_link = 0
        self.rx_decode_errors = 0
        controller.conn_open_listeners.append(self._on_conn_open)
        controller.conn_close_listeners.append(self._on_conn_close)

    @property
    def ll_addr(self) -> int:
        """This interface's link-layer *identity* address.

        The IID (RFC 7668) derives from the identity, not from the current
        on-air address, so IPv6 addressing survives RPA rotation (see
        :mod:`repro.ble.rpa`).
        """
        return self.controller.identity

    # -- link lifecycle ----------------------------------------------------

    def _on_conn_open(self, conn: Connection) -> None:
        from repro.ble.conn import Role
        from repro.l2cap.coc import IPSP_PSM

        coc = coc_of(conn, self.coc_config, handshake=True)
        coc.accept_psm(IPSP_PSM)
        end = coc.end_of(self.controller)
        peer_ll = conn.peer_of(self.controller).identity
        peer_iid = BleAdaptation.iid_for_node(peer_ll)
        end.on_sdu = lambda sdu: self._on_rx_sdu(sdu, peer_ll, peer_iid)
        end.on_sdu_sent = self._on_sdu_sent
        self._links[conn] = _Link(end, peer_iid)
        # RFC 7668: the coordinator (6LN/central) initiates the IPSP channel
        if self.controller.role_of(conn) is Role.COORDINATOR:
            coc.open_channel(self.controller, IPSP_PSM)
        if self.ip is not None:
            self.ip.neighbor_up(peer_ll, self)

    def _on_conn_close(self, conn: Connection, reason: DisconnectReason) -> None:
        link = self._links.pop(conn, None)
        if link is not None:
            # the held bytes are freed here, so a late acknowledgement must
            # not free them again
            link.end.on_sdu_sent = None
            if link.held:
                self.pktbuf.free(link.held)
        if SPANS.enabled:
            SPANS.conn_closed(conn)
        if self.ip is not None:
            self.ip.neighbor_down(conn.peer_of(self.controller).identity)

    # -- data path ----------------------------------------------------------

    def send(self, packet: Ipv6Packet, next_hop_ll: int) -> bool:
        """Queue ``packet`` towards the neighbour at ``next_hop_ll``.

        :returns: False when the link is down or the packet buffer is full
            (the packet is dropped and counted either way).
        """
        conn = self.controller.connection_to(next_hop_ll)
        if conn is None or not conn.open:
            self.drops_no_link += 1
            if SPANS.enabled:
                SPANS.drop("no-link")
            return False
        # every open connection has a record: the netif exists before any
        # connection opens, and the record lives until the close listener
        link = self._links[conn]
        wire = self.adaptation.to_link(packet, self._iid, link.peer_iid)
        if not self.pktbuf.try_alloc(len(wire)):
            self.drops_pktbuf += 1
            if SPANS.enabled:
                SPANS.drop("pktbuf")
            return False
        if TRACE.enabled:
            TRACE.emit(
                self.controller.sim.now, "sixlo", "tx",
                node=self.ll_addr, peer=next_hop_ll,
                in_len=packet.total_len, out_len=len(wire), data=wire,
            )
        link.held += len(wire)
        link.end.send_sdu(wire, tag=(link, len(wire)))
        self.tx_packets += 1
        return True

    def send_multicast(self, packet: Ipv6Packet) -> int:
        """Unicast one copy per live connection (RFC 7668 §3.2.3 mapping).

        :returns: the number of copies actually queued.
        """
        sent = 0
        for conn in list(self.controller.connections):
            if conn.open and self.send(packet, conn.peer_of(self.controller).identity):
                sent += 1
        return sent

    def _on_sdu_sent(self, tag: object) -> None:
        """The link layer acknowledged a full SDU: release its buffer bytes."""
        if not isinstance(tag, tuple):
            return
        link, nbytes = tag
        link.held -= nbytes
        self.pktbuf.free(nbytes)

    def _on_rx_sdu(self, sdu: bytes, peer_ll: int, peer_iid: bytes) -> None:
        """Decompress an inbound SDU and push it up to the IP stack."""
        try:
            packet = self.adaptation.from_link(sdu, peer_iid, self._iid)
        except ValueError:
            self.rx_decode_errors += 1
            return
        self.rx_packets += 1
        if TRACE.enabled:
            TRACE.emit(
                self.controller.sim.now, "sixlo", "rx",
                node=self.ll_addr, peer=peer_ll, len=len(sdu), data=sdu,
            )
        if self.ip is not None:
            self.ip.receive(packet, self)
