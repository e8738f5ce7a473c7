"""The BLE network interface (the paper's ``nimble_netif``, §3).

One :class:`BleNetif` per node bridges the IP stack and the BLE controller,
and carries bytes only: the stack compresses and decompresses (DESIGN §12).

* on connection open it attaches an L2CAP CoC to the link, installs
  neighbour-cache entries for the peer (RFC 7668 derives the IID from the
  device address, no address resolution needed), and hands every SDU the
  channel receives to the stack (``Ipv6Stack.from_link``);
* outbound datagrams, already compressed, are charged against the GNRC
  packet buffer and handed to the CoC; the buffer bytes are released only
  when the SDU is acknowledged on the link layer -- so a stalled link holds
  buffer space, which is precisely how the paper's overload losses arise
  (§5.2);
* on connection close all held buffer bytes are released and the neighbour
  entries are withdrawn.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.ble.conn import Connection, DisconnectReason
from repro.ble.controller import BleController
from repro.l2cap import CocConfig, L2capCoc
from repro.net.pktbuf import PacketBuffer
from repro.sixlowpan import iphc
from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet
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

    :param conn: the connection.
    :param end: this node's end of the connection's IPSP channel.
    """

    __slots__ = ("conn", "end", "held")

    def __init__(self, conn: Connection, end: _CocEnd) -> None:
        self.conn = conn
        self.end = end
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
        #: RFC 7668 IID of this node, derived once: the identity never changes.
        self.iid = Ipv6Address.iid_from_node_id(controller.identity)
        #: Set by :meth:`repro.net.ip.Ipv6Stack.add_netif`.
        self.ip: Optional["Ipv6Stack"] = None
        #: Peer identity -> the links to it, in the order they opened (the
        #: order of ``controller.connections``).
        self._links: Dict[int, List[_Link]] = {}
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
        end.on_sdu_sent = self._on_sdu_sent
        self._links.setdefault(peer_ll, []).append(_Link(conn, end))
        # RFC 7668: the coordinator (6LN/central) initiates the IPSP channel
        if self.controller.role_of(conn) is Role.COORDINATOR:
            coc.open_channel(self.controller, IPSP_PSM)
        ip = self.ip
        if ip is not None:
            end.on_sdu = lambda sdu: ip.from_link(sdu, self, peer_ll)
            ip.neighbor_up(peer_ll, self)

    def _on_conn_close(self, conn: Connection, reason: DisconnectReason) -> None:
        peer_ll = conn.peer_of(self.controller).identity
        links = self._links.get(peer_ll, [])
        for link in links:
            if link.conn is conn:
                links.remove(link)
                # the held bytes are freed here, so a late acknowledgement
                # must not free them again
                link.end.on_sdu_sent = None
                if link.held:
                    self.pktbuf.free(link.held)
                break
        if SPANS.enabled:
            SPANS.conn_closed(conn)
        if self.ip is not None:
            self.ip.neighbor_down(peer_ll)

    # -- data path ----------------------------------------------------------

    def send(self, wire: bytes, ip_len: int, next_hop_ll: int) -> bool:
        """Queue ``wire``, a compressed datagram whose packet is ``ip_len``
        bytes, on the first open link to ``next_hop_ll`` (the connection
        ``controller.connection_to`` finds), charged to the packet buffer.

        :returns: False when no link is open or the packet buffer is full
            (the datagram is dropped and counted either way).
        """
        for link in self._links.get(next_hop_ll, ()):
            if link.conn.open:
                break
        else:
            self.drops_no_link += 1
            if SPANS.enabled:
                SPANS.drop("no-link")
            return False
        if not self.pktbuf.try_alloc(len(wire)):
            self.drops_pktbuf += 1
            if SPANS.enabled:
                SPANS.drop("pktbuf")
            return False
        if TRACE.enabled:
            TRACE.emit(
                self.controller.sim.now, "sixlo", "tx",
                node=self.ll_addr, peer=next_hop_ll,
                in_len=ip_len, out_len=len(wire), data=wire,
            )
        link.held += len(wire)
        link.end.send_sdu(wire, tag=(link, len(wire)))
        self.tx_packets += 1
        return True

    def send_multicast(self, packet: Ipv6Packet) -> int:
        """Unicast one copy per live connection (RFC 7668 §3.2.3 mapping),
        each compressed for its link.

        :returns: the number of copies actually queued.
        """
        sent = 0
        for conn in list(self.controller.connections):
            if not conn.open:
                continue
            peer_ll = conn.peer_of(self.controller).identity
            wire = iphc.compress(packet, self.iid, Ipv6Address.iid_from_node_id(peer_ll))
            if self.send(wire, packet.total_len, peer_ll):
                sent += 1
        return sent

    def _on_sdu_sent(self, tag: object) -> None:
        """The link layer acknowledged a full SDU: release its buffer bytes."""
        if not isinstance(tag, tuple):
            return
        link, nbytes = tag
        link.held -= nbytes
        self.pktbuf.free(nbytes)

    def rx_counted(self, sdu: bytes, sender_ll: int) -> None:
        """Count and record (``sixlo.rx``) an SDU the IP stack takes."""
        self.rx_packets += 1
        if TRACE.enabled:
            TRACE.emit(
                self.controller.sim.now, "sixlo", "rx",
                node=self.ll_addr, peer=sender_ll, len=len(sdu), data=sdu,
            )
