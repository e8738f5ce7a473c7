"""Advertising, scanning, and connection establishment.

statconn (§3) keeps every configured link alive by letting the parent
(subordinate role) advertise and the child (coordinator role) scan and
initiate.  The paper's configuration -- 90 ms advertising interval, 100 ms
scan interval *and* window, i.e. continuous scanning -- yields the 10-100 ms
reconnect delay reported in §4.2, which this module reproduces:

* an advertising event fires every ``adv_interval + advDelay`` with
  ``advDelay ~ U(0, 10 ms)`` (BT 5.2 Vol 6 Part B §4.4.2.2.1) and transmits
  one ADV_IND on each of the three advertising channels;
* a continuously scanning initiator hears the event if its radio is idle and
  the PDU survives the medium, then answers with CONNECT_IND;
* the connection's first anchor point lies one ``transmitWindowDelay``
  (1.25 ms) plus a coordinator-chosen offset after the CONNECT_IND.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Optional

from repro.ble.config import ConnParams
from repro.ble.conn import Connection
from repro.phy.channels import BLE_ADV_CHANNELS
from repro.phy.frames import T_IFS_NS, ble_adv_air_time_ns
from repro.sim.kernel import Timer
from repro.sim.units import MSEC, USEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.ble.controller import BleController

#: Mandatory delay between CONNECT_IND and the transmit window (BT spec).
TRANSMIT_WINDOW_DELAY_NS: int = 1_250_000
#: CONNECT_IND payload length (LLData): 22 bytes + 12 header/addresses.
CONNECT_IND_PAYLOAD: int = 34
#: Upper bound of the pseudo-random per-event advDelay (BT 5.2 Vol 6
#: Part B §4.4.2.2.1: 0..10 ms).
ADV_DELAY_MAX_NS: int = 10 * MSEC
#: The BLE time-slot quantum the transmit-window offset is counted in.
TIME_SLOT_NS: int = 625 * USEC
#: Cap on the randomized first-anchor offset: one connection interval, but
#: never more than the spec's 10 ms transmit-window span.
WIN_OFFSET_CAP_NS: int = 10 * MSEC


class Advertiser:
    """Periodic connectable advertising (the statconn subordinate role).

    :param controller: the advertising node.
    :param payload_len: AdvData length in bytes (affects air time only).
    :param on_connected: called with the new :class:`Connection` when an
        initiator completes the handshake.
    """

    def __init__(
        self,
        controller: "BleController",
        rng: random.Random,
        payload_len: int = 0,
        on_connected: Optional[Callable[[Connection], None]] = None,
    ) -> None:
        self.controller = controller
        self.rng = rng
        self.payload_len = payload_len
        self.on_connected = on_connected
        self.active = False
        self.consec_skips = 0  # RadioActivity protocol
        self._timer: Optional[Timer] = None
        self._next_event_true: Optional[int] = None
        #: Advertising events actually transmitted (energy accounting).
        self.events_sent = 0

    # -- RadioActivity protocol -----------------------------------------
    def next_radio_time(self, after_ns: int) -> Optional[int]:
        """Scheduler demand: the upcoming advertising event, if any."""
        if not self.active or self._next_event_true is None:
            return None
        return self._next_event_true if self._next_event_true > after_ns else None

    # -- control ----------------------------------------------------------
    def start(self) -> None:
        """Begin advertising (first event after a random initial delay)."""
        if self.active:
            return
        self.active = True
        self.controller.scheduler.register(self)
        first = self.controller.sim.now + self.rng.randrange(
            0, self.controller.config.adv_interval_ns
        )
        self._schedule(first)

    def stop(self) -> None:
        """Stop advertising and withdraw from the scheduler."""
        if not self.active:
            return
        self.active = False
        self.controller.scheduler.unregister(self)
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None  # cancelled handles must not be retained
        self._next_event_true = None

    def _schedule(self, when: int) -> None:
        self._next_event_true = when
        self._timer = self.controller.sim.at(when, self._adv_event)

    def _event_duration_ns(self) -> int:
        """Three ADV_IND PDUs plus inter-channel turnaround."""
        per_pdu = ble_adv_air_time_ns(self.payload_len)
        return 3 * per_pdu + 2 * T_IFS_NS

    def _adv_event(self) -> None:
        """Transmit one advertising event and poll for interested scanners."""
        if not self.active:
            return
        sim = self.controller.sim
        now = sim.now
        duration = self._event_duration_ns()
        connected = False
        if self.controller.scheduler.is_free(now):
            self.controller.scheduler.claim(self, now, now + duration)
            self.controller.note_adv_event(duration)
            self.events_sent += 1
            connected = self._offer_to_scanners(now)
        else:
            self.controller.scheduler.deny(self)
        if connected or not self.active:
            return
        adv_delay = self.rng.randrange(0, ADV_DELAY_MAX_NS)
        self._schedule(now + self.controller.config.adv_interval_ns + adv_delay)

    def _offer_to_scanners(self, now: int) -> bool:
        """Let listening initiators react to this advertising event.

        :returns: True when a connection was established (advertising then
            stops, mirroring the controller behaviour on CONNECT_IND).

        Candidate scanners come from the medium's delivery registry
        (:meth:`~repro.phy.medium.BleMedium.scanners_hearing`): all of them
        on the paper's all-in-range plane, only the advertiser's spatial
        neighbors on a geometry-equipped medium.
        """
        medium = self.controller.medium
        for scanner in medium.scanners_hearing(self.controller.addr):
            if not scanner.wants(self.controller):
                continue
            if not scanner.controller.scheduler.is_free(now):
                continue
            # The scanner dwells on one of the three advertising channels;
            # the event covers all three, so channel match is guaranteed --
            # only air loss can break it.
            channel = scanner.current_channel(now)
            if medium.packet_lost(channel, 16 + self.payload_len):
                continue
            # CONNECT_IND back to us, one IFS later, same channel.
            if medium.packet_lost(channel, CONNECT_IND_PAYLOAD):
                continue
            conn = scanner.complete_connection(self, now)
            if conn is not None:
                return True
        return False


class Scanner:
    """A continuously scanning initiator (the statconn coordinator role).

    :param controller: the scanning node.
    :param target_addr: only advertisements from this address are answered.
    :param params_factory: produces the :class:`ConnParams` for the new
        connection -- this is where §6.3's randomized-interval policy hooks
        in.
    :param on_connected: completion callback.
    """

    def __init__(
        self,
        controller: "BleController",
        rng: random.Random,
        target_addr: Optional[int],
        params_factory: Callable[[], ConnParams],
        on_connected: Optional[Callable[[Connection], None]] = None,
        accept: Optional[Callable[[int], bool]] = None,
    ) -> None:
        self.controller = controller
        self.rng = rng
        #: ``None`` scans for *any* advertiser (wildcard; used by the
        #: dynamic connection manager), optionally filtered by ``accept``.
        self.target_addr = target_addr
        self.params_factory = params_factory
        self.on_connected = on_connected
        self.accept = accept
        self.active = False

    def start(self) -> None:
        """Begin scanning (registers with the shared medium)."""
        if self.active:
            return
        self.active = True
        self.controller.medium.register_scanner(self)

    def stop(self) -> None:
        """Stop scanning."""
        if not self.active:
            return
        self.active = False
        self.controller.medium.unregister_scanner(self)

    def wants(self, advertiser: "BleController") -> bool:
        """Whether this scanner is hunting for ``advertiser``.

        Matching is by *identity*: the scan path is where RPA resolution
        happens (see :mod:`repro.ble.rpa`), so a targeted scanner keeps
        finding its peer after the peer rotated its on-air address, and the
        ``accept`` filter sees stable identities.
        """
        if not self.active:
            return False
        identity = advertiser.identity
        if identity == self.controller.identity:
            return False
        self.controller.resolver.observe(advertiser)
        if self.target_addr is not None and identity != self.target_addr:
            return False
        if self.controller.connection_to(identity) is not None:
            return False
        return self.accept is None or self.accept(identity)

    def current_channel(self, now: int) -> int:
        """The advertising channel the scanner currently dwells on.

        The scanner rotates through 37/38/39, one per scan interval.
        """
        interval = self.controller.config.scan_interval_ns
        return BLE_ADV_CHANNELS[(now // interval) % len(BLE_ADV_CHANNELS)]

    def complete_connection(
        self, advertiser: Advertiser, now: int
    ) -> Optional[Connection]:
        """Finish the CONNECT_IND handshake and create the connection."""
        params = self.params_factory()
        offset_cap = min(params.interval_ns, WIN_OFFSET_CAP_NS)
        offset_units = self.rng.randrange(0, max(1, offset_cap // TIME_SLOT_NS))
        anchor0 = now + TRANSMIT_WINDOW_DELAY_NS + offset_units * TIME_SLOT_NS
        access_address = self.rng.getrandbits(32)
        hop = self.rng.randrange(5, 17)
        # CONNECT_IND ends both advertising and scanning *before* the
        # connection exists -- open-listeners must observe that state.
        advertiser.stop()
        self.stop()
        conn = Connection(
            sim=self.controller.sim,
            coordinator=self.controller,
            subordinate=advertiser.controller,
            params=params,
            access_address=access_address,
            anchor0_true=anchor0,
            hop_increment=hop,
        )
        if self.on_connected is not None:
            self.on_connected(conn)
        if advertiser.on_connected is not None:
            advertiser.on_connected(conn)
        return conn
