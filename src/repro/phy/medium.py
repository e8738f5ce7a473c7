"""Radio medium with per-channel loss for the BLE plane.

The testbed (§4.1) keeps all nodes in mutual range, so instead of a
propagation model the medium offers a statistical packet-error process:

* a bit-error-rate floor that makes longer packets proportionally more
  likely to be corrupted (this drives the event-abort dynamics of §5.2),
* per-channel additive packet error rates (2.4 GHz is crowded; the paper's
  testbed had BLE channel 22 permanently jammed, §4.2),
* optional timed interference bursts for failure-injection experiments.

BLE connection events are simulated as composite transactions (see
:mod:`repro.ble.conn`), so the medium exposes a *sampling* interface: the
link layer asks "was this packet on this channel at this time lost?" instead
of scheduling per-packet kernel events.  This keeps 1-hour 15-node runs
tractable in pure Python while preserving the loss structure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.phy.frames import BLE_1M_OVERHEAD_BYTES
from repro.phy.spatial import Geometry
from repro.sim.kernel import Simulator
from repro.trace.tracer import TRACE

if TYPE_CHECKING:  # pragma: no cover
    from repro.ble.adv import Scanner


class MediumRegistrationError(RuntimeError):
    """A node or scanner was registered on the medium twice.

    The reconnection paths (statconn/dynconn) create a *new* scanner object
    per establishment attempt; a stale still-registered predecessor would
    silently receive every offer a second time (double delivery, double
    loss draws, corrupted RNG alignment).  Registering a duplicate is
    therefore a hard error instead of a silent append."""


@dataclass
class InterferenceBurst:
    """A timed burst of external interference on a set of channels."""

    start_ns: int
    end_ns: int
    channels: Tuple[int, ...]
    per: float

    def active(self, now_ns: int, channel: int) -> bool:
        """Whether this burst affects ``channel`` at ``now_ns``."""
        return self.start_ns <= now_ns < self.end_ns and channel in self.channels


@dataclass
class InterferenceModel:
    """Loss configuration shared by all links on a medium.

    :param base_ber: bit error rate applied to every packet
        (PER = 1 - (1 - ber)^bits).  The default reproduces roughly 1 %
        loss for the paper's 115-byte BLE packets.
    :param channel_per: additive per-channel packet error rate.
    :param jammed_channels: channels with guaranteed loss (testbed
        channel 22).
    :param bursts: timed interference bursts.
    """

    base_ber: float = 1.0e-5
    channel_per: Dict[int, float] = field(default_factory=dict)
    jammed_channels: Tuple[int, ...] = ()
    bursts: List[InterferenceBurst] = field(default_factory=list)
    #: The loss table: the burst-free PER per (on-air length, channel),
    #: shared by every link on the medium (the simulator's hottest lookup).
    #: It holds for the jammed tuple and ``channel_per`` length it was
    #: filled under (``_loss_jammed``, ``_loss_n_per``) and is cleared when
    #: either moves.  Overwriting the *value* of an existing ``channel_per``
    #: key is invisible to that check -- call :meth:`invalidate` after it.
    #: Readers that bypass :meth:`packet_error_rate` make the same check.
    _loss: Dict[Tuple[int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _loss_jammed: Optional[Tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _loss_n_per: int = field(default=-1, init=False, repr=False, compare=False)

    def invalidate(self) -> None:
        """Clear the loss table after an in-place ``channel_per`` overwrite."""
        self._loss.clear()

    def packet_error_rate(self, channel: int, nbytes: int, now_ns: int) -> float:
        """Total loss probability for one packet of ``nbytes`` on ``channel``."""
        if self.bursts:
            per = self._static_per(channel, nbytes)
            for burst in self.bursts:
                if burst.active(now_ns, channel):
                    per += burst.per
            return min(per, 1.0)
        if (
            self._loss_jammed is not self.jammed_channels
            or self._loss_n_per != len(self.channel_per)
        ):
            self._loss.clear()
            self._loss_jammed = self.jammed_channels
            self._loss_n_per = len(self.channel_per)
        key = (nbytes, channel)
        per = self._loss.get(key)
        if per is None:
            per = self._loss[key] = min(self._static_per(channel, nbytes), 1.0)
        return per

    def _static_per(self, channel: int, nbytes: int) -> float:
        """The bit-error and per-channel terms, unclamped (``inf`` on a
        jammed channel)."""
        if channel in self.jammed_channels:
            addend = float("inf")
        else:
            addend = self.channel_per.get(channel, 0.0)
        return 1.0 - (1.0 - self.base_ber) ** (8 * max(nbytes, 1)) + addend


class BleMedium:
    """The shared 2.4 GHz plane for all BLE nodes of an experiment.

    :param sim: the simulation kernel (for "now").
    :param rng: the loss-sampling random stream.
    :param interference: loss configuration; a default quiet model is used
        when omitted.
    :param geometry: optional node positions + radio range (see
        :mod:`repro.phy.spatial`).  Without one, every node hears every
        other node -- the paper's single-room testbed (§4.1) and the seed
        behaviour.  With one, advertising delivery is range-gated: a
        ``"grid"``-indexed geometry fans out in O(neighbors), the
        ``"allpairs"`` reference scans every scanner per transmission.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        interference: Optional[InterferenceModel] = None,
        geometry: Optional[Geometry] = None,
    ) -> None:
        self.sim = sim
        self.rng = rng
        self.interference = interference or InterferenceModel()
        self.geometry = geometry
        #: Total packets sampled (diagnostics).
        self.packets_sampled = 0
        #: Total packets reported lost (diagnostics).
        self.packets_lost = 0
        #: Sampled on-air bytes beyond the LE 1M framing (empty PDUs add 0).
        self.payload_bytes_sampled = 0
        #: Registered node addresses -> owner object (controllers register
        #: once at construction; a duplicate address is a wiring bug).
        self.nodes: Dict[int, object] = {}
        #: Active scanners (see :mod:`repro.ble.adv`) in registration order;
        #: advertising events probe this registry to find listeners in range.
        self.scanners: List[Scanner] = []
        #: The same scanners keyed by controller address (the spatial
        #: delivery path looks listeners up per neighbor address).
        self._scanners_by_addr: Dict[int, List[Scanner]] = {}
        # usable_channels memo: (query, jammed set) -> result.
        self._usable_key: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None
        self._usable: List[int] = []

    # -- node registry ----------------------------------------------------

    def register_node(self, addr: int, owner: object = None) -> None:
        """Claim a link-layer address on this medium (once per node).

        Reconnection re-uses the controller object; only a *new* node may
        claim an address, so a duplicate raises instead of silently letting
        two stacks answer for one address (double delivery)."""
        if addr in self.nodes:
            raise MediumRegistrationError(
                f"node address {addr} is already registered on this medium; "
                f"reconnection must reuse the existing controller, not "
                f"register a second one"
            )
        self.nodes[addr] = owner

    def unregister_node(self, addr: int) -> None:
        """Release an address (node departure); idempotent."""
        self.nodes.pop(addr, None)

    def rotate_node(self, old_addr: int, new_addr: int) -> None:
        """Re-key a node's on-air address (RPA rotation, see repro.ble.rpa).

        Moves the node registration, any registered scanners of the node,
        and -- on a geometry-equipped medium -- the node's position (the
        spatial index is invalidated live, exactly like a mobility event).
        The new address must be unclaimed: two stacks answering for one
        address is the same double-delivery bug duplicate registration
        guards against.
        """
        if old_addr not in self.nodes:
            raise MediumRegistrationError(
                f"cannot rotate unregistered node address {old_addr}"
            )
        if new_addr in self.nodes:
            raise MediumRegistrationError(
                f"rotation target address {new_addr} is already registered "
                f"on this medium"
            )
        self.nodes[new_addr] = self.nodes.pop(old_addr)
        scanners = self._scanners_by_addr.pop(old_addr, None)
        if scanners:
            self._scanners_by_addr[new_addr] = scanners
        if self.geometry is not None and old_addr in self.geometry:
            x, y = self.geometry.position_of(old_addr)
            self.geometry.remove(old_addr)
            self.geometry.place(new_addr, x, y)

    # -- scanner registry -------------------------------------------------

    def register_scanner(self, scanner: Scanner) -> None:
        """Add a scanner to the advertising delivery registry.

        Registering the same scanner object twice, or a second scanner for
        the same ``(controller address, target)`` pair -- the reconnection
        footgun: a stale predecessor that was never stopped -- raises a
        :class:`MediumRegistrationError` instead of double-delivering."""
        addr = scanner.controller.addr
        per_addr = self._scanners_by_addr.setdefault(addr, [])
        for other in per_addr:
            if other is scanner:
                raise MediumRegistrationError(
                    f"scanner of node {addr} is already registered; "
                    f"stop() it before starting it again"
                )
            if other.target_addr == scanner.target_addr:
                raise MediumRegistrationError(
                    f"node {addr} already has a registered scanner for "
                    f"target {scanner.target_addr!r}; the reconnection path "
                    f"must stop the old scanner first (a stale one would "
                    f"double-deliver every advertising event)"
                )
        per_addr.append(scanner)
        self.scanners.append(scanner)

    def unregister_scanner(self, scanner: Scanner) -> None:
        """Remove a scanner from the registry (idempotent)."""
        if scanner in self.scanners:
            self.scanners.remove(scanner)
            per_addr = self._scanners_by_addr.get(scanner.controller.addr)
            if per_addr and scanner in per_addr:
                per_addr.remove(scanner)

    def scanners_hearing(self, adv_addr: int) -> List[Scanner]:
        """The scanners a transmission from ``adv_addr`` can reach.

        * No geometry: every registered scanner, in registration order
          (byte-compatible with the seed's all-in-mutual-range plane).
        * Grid geometry: the advertiser's cached neighbor set, ascending by
          address -- O(neighbors) per transmission.
        * All-pairs geometry (the differential reference): every scanner
          address checked against the exact range predicate per
          transmission -- O(N), same candidates, same order as the grid.
        """
        geometry = self.geometry
        if geometry is None:
            return list(self.scanners)
        by_addr = self._scanners_by_addr
        heard: List[Scanner] = []
        if geometry.index == "grid":
            for addr in geometry.neighbors_of(adv_addr):
                scanners = by_addr.get(addr)
                if scanners:
                    heard.extend(scanners)
        else:
            listening = sorted(
                addr for addr, scanners in by_addr.items() if scanners
            )
            for addr in geometry.iter_in_range(adv_addr, listening):
                heard.extend(by_addr[addr])
        return heard

    def packet_lost(self, channel: int, nbytes: int) -> bool:
        """Sample whether one packet on ``channel`` is corrupted on air.

        ``nbytes`` is its whole LE 1M on-air size, framing included, so
        its air time is ``nbytes`` x 8 us.  Without bursts a current loss
        table answers directly; anything else asks
        :meth:`InterferenceModel.packet_error_rate`.
        """
        interf = self.interference
        per: Optional[float] = None
        if (
            not interf.bursts
            and interf._loss_jammed is interf.jammed_channels
            and interf._loss_n_per == len(interf.channel_per)
        ):
            per = interf._loss.get((nbytes, channel))
        if per is None:
            per = interf.packet_error_rate(channel, nbytes, self.sim._now)
        self.packets_sampled += 1
        self.payload_bytes_sampled += nbytes - BLE_1M_OVERHEAD_BYTES
        if per <= 0.0:
            lost = False
        else:
            lost = self.rng.random() < per
            if lost:
                self.packets_lost += 1
        if TRACE.enabled:
            TRACE.emit(
                self.sim.now, "phy", "packet",
                channel=channel, nbytes=nbytes, lost=lost,
            )
        return lost

    def usable_channels(self, channels: Iterable[int]) -> List[int]:
        """Filter a channel list down to not-permanently-jammed channels.

        Mirrors the paper's static exclusion of channel 22 from all nodes'
        channel maps (§4.2) -- adaptive channel hopping is future work there
        and here.  The result is memoized against the query and the jammed
        set, so repeated queries with an unchanged jammed set skip the
        rebuild.
        """
        query = tuple(channels)
        key = (query, self.interference.jammed_channels)
        if key == self._usable_key:
            return list(self._usable)
        jammed = set(self.interference.jammed_channels)
        usable = [c for c in query if c not in jammed]
        self._usable_key = key
        self._usable = usable
        return list(usable)
