"""Storing-mode RPL-lite (RFC 6550 subset) over ICMPv6.

One instance, one DODAG, OF0-style ranks (``rank = parent_rank +
MinHopRankIncrease``).  DIOs ride link-scope multicast on a Trickle timer;
DAOs unicast reachable targets to the preferred parent, and every router
installs storing-mode host routes for its sub-DODAG -- which reproduces, at
runtime, exactly the static route structure the paper configures by hand
(§4.3: default routes towards the root, host routes down the subtrees).

Deliberate simplifications (documented; this layer is the paper's *future
work*, not its evaluation): a single DODAG version, no DAO-ACKs, poison-
then-rejoin instead of local repair, and loop avoidance by the poison
cascade rather than the full rank-based datapath validation.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.net.icmpv6 import Icmpv6Message, RPL_CONTROL
from repro.rpl.trickle import TrickleTimer
from repro.sim.units import MSEC, SEC
from repro.sixlowpan.ipv6 import Ipv6Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import Node

#: The unreachable rank (RFC 6550 §17).
INFINITE_RANK = 0xFFFF
#: All-RPL-nodes link-scope multicast group.
ALL_RPL_NODES = Ipv6Address.from_string("ff02::1a")


class RplCode(enum.IntEnum):
    """ICMPv6 type-155 message codes (RFC 6550 §6)."""

    DIS = 0x00
    DIO = 0x01
    DAO = 0x02


_DIO = struct.Struct(">BBHBB2s16s")
_DAO_HEAD = struct.Struct(">BBBB16s")

#: Targets per DAO message.  A router announces its whole sub-DODAG, which
#: at the 500/1000-node scale tier can exceed the 1280-byte IPv6 MTU in a
#: single message (16 bytes per target); DAOs are therefore split into
#: chunks of at most this many targets.  64 keeps the largest chunk
#: (20-byte DAO head + 64 targets + ICMPv6/IPv6 headers) near 1.1 KB,
#: comfortably under the MTU.  Receivers merge target sets additively
#: (RFC 6550 permits targets spread over multiple DAOs), so chunking does
#: not change the installed routes.
DAO_MAX_TARGETS = 64


@dataclass
class RplConfig:
    """Protocol constants.

    Trickle defaults are scaled for BLE meshes (a 75 ms connection interval
    cannot carry 8 ms Trickle bursts): Imin 1 s, 8 doublings (max ~4.3 min),
    redundancy 3.
    """

    instance_id: int = 0
    min_hop_rank_increase: int = 256
    trickle_imin_ns: int = 1 * SEC
    trickle_doublings: int = 8
    trickle_k: int = 3
    #: Delay between a parent change / new target and the DAO transmission
    #: (aggregates rapid changes into one message).
    dao_delay_ns: int = 500 * MSEC
    #: Unjoined nodes multicast a DIS this often to solicit DIOs (RFC 6550
    #: §8.3); neighbours answer by resetting their Trickle timers, so
    #: (re-)joining does not have to wait out a grown Trickle interval.
    dis_interval_ns: int = 3 * SEC
    #: Hysteresis: a candidate must beat the current rank by this much
    #: before a joined node switches parents (prevents flapping).
    parent_switch_threshold: int = 128


class RplInstance:
    """One node's RPL router.

    :param node: the host node (provides ICMPv6, FIB, connections).
    :param is_root: whether this node roots the DODAG.
    :param config: protocol constants.
    """

    def __init__(
        self,
        node: "Node",
        is_root: bool = False,
        config: Optional[RplConfig] = None,
    ) -> None:
        self.node = node
        self.config = config or RplConfig()
        self.is_root = is_root
        self.rank = self.config.min_hop_rank_increase if is_root else INFINITE_RANK
        self.dodag_id: Optional[Ipv6Address] = node.mesh_local if is_root else None
        self.version = 0
        self.parent: Optional[Ipv6Address] = None
        #: Neighbour DIO cache: address -> advertised rank.
        self.neighbor_ranks: Dict[Ipv6Address, int] = {}
        #: Targets this node announces upstream (own address + sub-DODAG).
        self._dao_targets: Dict[Ipv6Address, Ipv6Address] = {}
        self._dao_seq = 0
        self._dao_timer = None
        self._running = False
        self._soliciting = False
        #: Called on every join/parent change: ``on_parent_change(parent)``.
        self.on_parent_change: Optional[Callable[[Optional[Ipv6Address]], None]] = None
        self.trickle = TrickleTimer(
            node.sim,
            node.controller.rng,
            on_transmit=self._send_dio,
            imin_ns=self.config.trickle_imin_ns,
            imax_doublings=self.config.trickle_doublings,
            k=self.config.trickle_k,
        )
        # Statistics.
        self.dios_sent = 0
        self.daos_sent = 0
        self.dis_sent = 0
        self.parent_changes = 0
        self.detaches = 0
        node.icmp.register(RPL_CONTROL, self._on_rpl)
        node.controller.conn_close_listeners.append(self._on_conn_close)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Begin operating (roots advertise; others solicit with DIS)."""
        self._running = True
        if self.is_root:
            self.trickle.start()
        elif not self._soliciting:
            # A restart racing a still-pending DIS timer must not fork the
            # solicitation chain -- the existing chain keeps going.
            self._solicit()

    def stop(self) -> None:
        """Halt the router."""
        self._running = False
        self.trickle.stop()

    def reset(self) -> None:
        """Forget all DODAG state (node re-arrival after a departure).

        A returning node must rejoin from scratch: stale parent, rank,
        neighbour ranks, and sub-DODAG routes all describe a topology that
        moved on while the node was gone.  The router must be stopped;
        call :meth:`start` afterwards to begin soliciting again.
        """
        if self._running:
            raise RuntimeError("reset() requires a stopped RPL instance")
        if not self.is_root:
            self.rank = INFINITE_RANK
            self.parent = None
            self.dodag_id = None
        self.neighbor_ranks.clear()
        for target in list(self._dao_targets):
            self.node.ip.fib.remove_host_route(target)
        self._dao_targets.clear()
        self.node.ip.fib.clear_default_route()
        if self._dao_timer is not None:
            self._dao_timer.cancel()
            self._dao_timer = None
        self.trickle.stop()

    @property
    def joined(self) -> bool:
        """Whether this node is part of the DODAG."""
        return self.rank < INFINITE_RANK

    def hops_to_root(self) -> Optional[int]:
        """The DODAG depth of this node (0 for the root, None if detached)."""
        if not self.joined:
            return None
        return self.rank // self.config.min_hop_rank_increase - 1

    # -- message encoding ----------------------------------------------------------

    def _dio_body(self, rank: Optional[int] = None) -> bytes:
        assert self.dodag_id is not None
        return _DIO.pack(
            self.config.instance_id,
            self.version,
            rank if rank is not None else self.rank,
            0,  # flags (grounded etc.)
            0,  # DTSN
            b"\x00\x00",
            self.dodag_id.packed,
        )

    def _send_dio(self) -> None:
        if not self._running or self.dodag_id is None:
            return
        self.dios_sent += 1
        self.node.icmp.send(
            ALL_RPL_NODES,
            Icmpv6Message(RPL_CONTROL, RplCode.DIO, self._dio_body()),
            hop_limit=255,
        )

    def _poison(self) -> None:
        """Advertise INFINITE rank so the sub-DODAG detaches too."""
        if self.dodag_id is None:
            return
        self.node.icmp.send(
            ALL_RPL_NODES,
            Icmpv6Message(RPL_CONTROL, RplCode.DIO, self._dio_body(INFINITE_RANK)),
            hop_limit=255,
        )

    def _solicit(self) -> None:
        """Multicast DIS periodically while detached (RFC 6550 §8.3)."""
        if not self._running or self.joined or self.is_root:
            self._soliciting = False
            return
        self._soliciting = True
        self.dis_sent += 1
        self.node.icmp.send(
            ALL_RPL_NODES, Icmpv6Message(RPL_CONTROL, RplCode.DIS, b"\x00\x00")
        )
        self.node.sim.after(self.config.dis_interval_ns, self._solicit)

    def _schedule_dao(self) -> None:
        if self._dao_timer is not None:
            self._dao_timer.cancel()
        self._dao_timer = self.node.sim.after(
            self.config.dao_delay_ns, self._send_dao
        )

    def _send_dao(self) -> None:
        if not self._running or self.parent is None or self.dodag_id is None:
            return
        targets = [self.node.mesh_local] + list(self._dao_targets)
        for start in range(0, len(targets), DAO_MAX_TARGETS):
            chunk = targets[start : start + DAO_MAX_TARGETS]
            self._dao_seq = (self._dao_seq + 1) & 0xFF
            body = _DAO_HEAD.pack(
                self.config.instance_id, 0, 0, self._dao_seq, self.dodag_id.packed
            ) + b"".join(t.packed for t in chunk)
            self.daos_sent += 1
            self.node.icmp.send(
                self.parent, Icmpv6Message(RPL_CONTROL, RplCode.DAO, body)
            )

    # -- message handling ------------------------------------------------------------

    def _on_rpl(self, message: Icmpv6Message, src: Ipv6Address) -> None:
        if not self._running:
            return
        if message.code == RplCode.DIO:
            self._on_dio(message.body, src)
        elif message.code == RplCode.DAO:
            self._on_dao(message.body, src)
        elif message.code == RplCode.DIS:
            self.trickle.reset()

    def _on_dio(self, body: bytes, src: Ipv6Address) -> None:
        if len(body) < _DIO.size:
            return
        instance, version, rank, _flags, _dtsn, _r, dodag_raw = _DIO.unpack_from(body)
        if instance != self.config.instance_id:
            return
        dodag_id = Ipv6Address(dodag_raw)
        if self.is_root:
            return  # the root never re-parents
        if self.dodag_id is not None and dodag_id != self.dodag_id:
            return  # foreign DODAG
        self.neighbor_ranks[src] = rank

        if rank >= INFINITE_RANK:
            # poison: the sender left; if it was our parent, cascade
            if src == self.parent:
                self.detach()
            return

        candidate = rank + self.config.min_hop_rank_increase
        if src == self.parent:
            # refresh from the current parent
            if candidate != self.rank:
                self.rank = candidate
                self.trickle.reset()
            else:
                self.trickle.hear_consistent()
            return
        threshold = (
            self.config.parent_switch_threshold if self.joined else 0
        )
        if candidate + threshold < self.rank:
            self._adopt(src, candidate, dodag_id)
        else:
            self.trickle.hear_consistent()

    def _adopt(self, parent: Ipv6Address, rank: int, dodag_id: Ipv6Address) -> None:
        first_join = not self.joined
        self.parent = parent
        self.rank = rank
        self.dodag_id = dodag_id
        self.parent_changes += 1
        self.node.ip.fib.set_default_route(parent)
        if first_join:
            self.trickle.start()
        self.trickle.reset()
        self._schedule_dao()
        if self.on_parent_change is not None:
            self.on_parent_change(parent)

    def _on_dao(self, body: bytes, src: Ipv6Address) -> None:
        if len(body) < _DAO_HEAD.size:
            return
        instance, _f, _r, _seq, _dodag = _DAO_HEAD.unpack_from(body)
        if instance != self.config.instance_id:
            return
        raw_targets = body[_DAO_HEAD.size :]
        changed = False
        for offset in range(0, len(raw_targets) - 15, 16):
            target = Ipv6Address(raw_targets[offset : offset + 16])
            if target == self.node.mesh_local:
                continue
            # storing mode: descendants are reached via the advertising child
            self.node.ip.fib.add_host_route(target, src)
            if self._dao_targets.get(target) != src:
                self._dao_targets[target] = src
                changed = True
        if changed and not self.is_root:
            self._schedule_dao()

    # -- link events -------------------------------------------------------------------

    def _on_conn_close(self, conn, reason) -> None:
        if not self._running or self.parent is None:
            return
        peer = conn.peer_of(self.node.controller).identity
        if Ipv6Address.mesh_local(peer) == self.parent:
            self.detach()
        else:
            # a child (or sibling) link went: withdraw its subtree
            child = Ipv6Address.mesh_local(peer)
            stale = [t for t, nh in self._dao_targets.items() if nh == child]
            for target in stale:
                del self._dao_targets[target]
                self.node.ip.fib.remove_host_route(target)
            self.neighbor_ranks.pop(child, None)
            if stale and not self.is_root:
                self._schedule_dao()

    def detach(self) -> None:
        """Leave the DODAG: poison the sub-DODAG and await a fresh DIO."""
        if self.is_root or not self.joined:
            return
        self.detaches += 1
        self._poison()
        self.rank = INFINITE_RANK
        self.parent = None
        self.neighbor_ranks.clear()
        # downstream state is stale now
        for target in list(self._dao_targets):
            self.node.ip.fib.remove_host_route(target)
        self._dao_targets.clear()
        self.node.ip.fib.clear_default_route()
        self.trickle.stop()
        if not self._soliciting:
            self._solicit()
        if self.on_parent_change is not None:
            self.on_parent_change(None)
