"""The BLE connection state machine.

One :class:`Connection` object models both endpoints of a link (coordinator
and subordinate) and executes each *connection event* as a single composite
transaction at the coordinator's anchor point.  Within the transaction the
full packet flow of Figure 3 is played out -- coordinator TX, T_IFS,
subordinate TX, repeat while More Data is signalled and the time budget
allows -- with per-packet loss sampled from the medium and exact SN/NESN
acknowledgement bookkeeping.

Everything the paper blames for its observations is here:

* anchors advance on the **coordinator's drifting clock** while the
  subordinate predicts them on **its own clock** (window widening, §6.1);
* each endpoint's node has a **single radio**, so overlapping events of
  co-located connections are skipped or alternated per the scheduler
  policy (connection shading);
* a **CRC error closes the event** even when packets are still queued
  (the burst-collapse of §5.2);
* no valid packet for *supervision timeout* kills the connection (the
  random connection losses of §5.1).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple

from repro.ble.chanmap import ChannelMap
from repro.ble.config import ConnParams, CsaVariant, SchedulerPolicy
from repro.ble.csa import CSA2_BLOCK_MASK, Csa1, Csa2, ChannelSelection
from repro.ble.pdu import DataPdu, Llid
from repro.phy.frames import T_IFS_NS, ble_air_time_ns, ble_air_time_table
from repro.phy.medium import BleMedium
from repro.sim.kernel import Simulator, Timer
from repro.sim.units import MSEC
from repro.spans.hub import SPANS
from repro.trace.tracer import TRACE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.ble.controller import BleController
    from repro.l2cap.coc import L2capCoc


class Role(enum.Enum):
    """Connection role of one endpoint (§2.1)."""

    COORDINATOR = "coordinator"
    SUBORDINATE = "subordinate"


class DisconnectReason(enum.Enum):
    """Why a connection ended."""

    SUPERVISION_TIMEOUT = "supervision-timeout"
    LOCAL_CLOSE = "local-close"
    #: §6.3: the subordinate closes a fresh connection whose interval
    #: collides with one of its existing connections.
    INTERVAL_COLLISION = "interval-collision"


#: Duration of one minimal (empty <-> empty) packet exchange at LE 1M:
#: 80 us + T_IFS + 80 us.
MIN_EXCHANGE_NS: int = ble_air_time_ns(0) + T_IFS_NS + ble_air_time_ns(0)

# Enum members the per-event and per-packet code compares against, bound
# once: on CPython 3.11 every ``EnumClass.MEMBER`` read goes through the
# enum metaclass's attribute hook, about ten times a module global's cost.
_COORDINATOR = Role.COORDINATOR
_SUBORDINATE = Role.SUBORDINATE
_DATA_CONT = Llid.DATA_CONT
_CTRL = Llid.CTRL
_ALTERNATE = SchedulerPolicy.ALTERNATE


@dataclass
class LinkStats:
    """Per-endpoint link-layer counters (inputs to the paper's LL PDR)."""

    #: Data PDU transmission attempts (retransmissions count again).
    tx_data_attempts: int = 0
    #: The attempts that retransmitted an unacknowledged data PDU.
    tx_data_retx: int = 0
    #: Data PDUs acknowledged by the peer (delivered exactly once).
    tx_data_acked: int = 0
    #: Unique data PDUs received (duplicates excluded).
    rx_data_unique: int = 0
    #: Duplicate data PDUs received (retransmissions of delivered PDUs).
    rx_data_dup: int = 0
    #: Empty PDUs transmitted.
    tx_empty: int = 0
    #: Connection events in which this endpoint exchanged >= 1 valid packet.
    events_active: int = 0
    #: Events this endpoint skipped because its radio was claimed elsewhere.
    events_skipped_radio: int = 0
    #: Events this endpoint voluntarily skipped (ALTERNATE policy yield).
    events_skipped_policy: int = 0
    #: Events where the subordinate's window missed the coordinator's TX.
    events_missed_window: int = 0
    #: Events aborted early by a CRC error (packet loss on air).
    events_crc_abort: int = 0
    #: Per-channel (attempts, acked) for this endpoint's transmissions.
    per_channel: List[List[int]] = field(
        default_factory=lambda: [[0, 0] for _ in range(37)]
    )
    #: Per-channel (events run, events CRC-aborted) -- the AFH manager's
    #: input (kept on the coordinator endpoint only).
    per_channel_events: List[List[int]] = field(
        default_factory=lambda: [[0, 0] for _ in range(37)]
    )


class Endpoint:
    """One side of a connection: queues, sequence bits, timers, stats."""

    def __init__(self, conn: "Connection", controller: "BleController", role: Role):
        self.conn = conn
        self.controller = controller
        self.role = role
        self.tx_queue: Deque[DataPdu] = deque()
        self.tx_queue_bytes = 0
        self.sn = 0
        self.nesn = 0
        #: The PDU pinned in flight (queue head or an empty); it keeps its
        #: sequence number until acknowledged, so a lost acknowledgement
        #: triggers a retransmission of the *same* PDU -- even an empty one,
        #: which consumes a sequence number like any data PDU.
        self._outstanding: Optional[DataPdu] = None
        #: The reusable empty PDU this endpoint pins when its queue is dry.
        #: Only one empty can be outstanding at a time and receivers never
        #: retain empties, so one mutable object per endpoint suffices.
        self._empty_pdu = DataPdu()
        #: True time of the last CRC-valid packet received (supervision basis).
        self.last_rx_valid = 0
        self.stats = LinkStats()
        #: Upper-layer receive hook, set by L2CAP: ``on_rx_pdu(pdu)``.
        self.on_rx_pdu: Optional[Callable[[DataPdu], None]] = None
        #: Upper-layer ack hook: ``on_pdu_acked(pdu)``.
        self.on_pdu_acked: Optional[Callable[[DataPdu], None]] = None

    def send(
        self,
        payload: bytes,
        llid: Llid = Llid.DATA_START,
        tag: Optional[object] = None,
    ) -> bool:
        """Queue ``payload`` as one LL data PDU from this side.

        :returns: False when the connection is closed or the node's buffer
            pool is exhausted.
        """
        if not self.conn.open:
            return False
        max_payload = self.controller.config.max_ll_payload
        if len(payload) > max_payload:
            raise ValueError(
                f"LL payload {len(payload)} exceeds max {max_payload}; "
                "segment at L2CAP"
            )
        return self.enqueue(DataPdu(payload=payload, llid=llid, tag=tag))

    def enqueue(self, pdu: DataPdu) -> bool:
        """Queue a PDU for transfer, charging the controller's buffer pool.

        :returns: False when the pool is exhausted (caller must back off).
        """
        if not self.controller.buffer_pool.try_alloc(len(pdu.payload)):
            return False
        self.tx_queue.append(pdu)
        self.tx_queue_bytes += len(pdu.payload)
        return True

    def build_tx_pdu(self) -> DataPdu:
        """Stamp and return the next PDU to transmit.

        The outstanding PDU (queue head or an empty) is *not* released: it
        stays pinned with its sequence number until the peer acknowledges it
        via NESN, which makes loss-triggered retransmission automatic
        (§2.2's 1-bit piggybacked ack).  Empty PDUs consume sequence numbers
        exactly like data PDUs, so an unacknowledged empty is retransmitted
        before any newly queued data may use its sequence number.

        Whether an exchange still fits before the node's next radio
        activity (the Figure 4 capacity truncation) is decided by the event
        loop before it calls this.
        """
        pdu = self._outstanding
        if pdu is None:
            pdu = self.tx_queue[0] if self.tx_queue else self._empty_pdu
            pdu.sn = self.sn
            self._outstanding = pdu
        elif pdu.payload:
            self.stats.tx_data_retx += 1
        pdu.nesn = self.nesn
        pdu.md = len(self.tx_queue) > (1 if pdu.payload else 0)
        if pdu.payload:
            self.stats.tx_data_attempts += 1
        else:
            self.stats.tx_empty += 1
        return pdu

    def _trace_tx(self, pdu: DataPdu, t: int, retx: bool) -> None:
        """Emit one ``ble.ll_tx`` record (no-op when tracing is off)."""
        if not TRACE.enabled:
            return
        TRACE.emit(
            t, "ble", "ll_tx",
            conn=self.conn.conn_id, role=self.role.value,
            sn=pdu.sn, nesn=pdu.nesn, len=len(pdu.payload), retx=retx,
        )

    def process_rx(self, pdu: DataPdu, now_ns: int, channel: int) -> None:
        """Handle one CRC-valid received packet (ack + accept logic)."""
        if TRACE.enabled:
            TRACE.emit(
                now_ns, "ble", "ll_rx",
                conn=self.conn.conn_id, role=self.role.value,
                sn=pdu.sn, nesn=pdu.nesn, len=len(pdu.payload),
                my_sn=self.sn, my_nesn=self.nesn,
            )
        self.last_rx_valid = now_ns
        # Acknowledgement: the peer advanced its NESN past our SN.
        if pdu.nesn != self.sn:
            self.sn ^= 1
            outstanding = self._outstanding
            self._outstanding = None
            if outstanding is not None and outstanding.payload:
                done = self.tx_queue.popleft()
                assert done is outstanding, "acked PDU must be the queue head"
                self.tx_queue_bytes -= len(done.payload)
                self.controller.buffer_pool.free(len(done.payload))
                self.stats.tx_data_acked += 1
                self.stats.per_channel[channel][1] += 1
                if self.on_pdu_acked is not None:
                    self.on_pdu_acked(done)
        # Acceptance: new sequence number means new data.
        if pdu.sn == self.nesn:
            self.nesn ^= 1
            if pdu.payload or pdu.llid is not _DATA_CONT:  # not is_empty
                self.stats.rx_data_unique += 1
                if pdu.llid is _CTRL:
                    self.conn._handle_ctrl(self, pdu)
                elif self.on_rx_pdu is not None:
                    self.on_rx_pdu(pdu)
        elif pdu.payload or pdu.llid is not _DATA_CONT:
            self.stats.rx_data_dup += 1

    def drain_queue(self) -> None:
        """Free all queued PDUs (connection teardown)."""
        while self.tx_queue:
            pdu = self.tx_queue.popleft()
            self.controller.buffer_pool.free(len(pdu.payload))
        self.tx_queue_bytes = 0
        self._outstanding = None


class _ConnActivity:
    """Scheduler-facing adapter: one per (connection, node) pair."""

    __slots__ = ("conn", "role", "consec_skips", "next_radio_time")

    def __init__(self, conn: "Connection", role: Role):
        self.conn = conn
        self.role = role
        self.consec_skips = 0
        # Bound directly so scheduler budget queries skip a delegation frame.
        self.next_radio_time: Callable[[int], Optional[int]] = partial(
            conn._next_radio_time, role
        )


class Connection:
    """A live BLE connection between two controllers.

    :param sim: simulation kernel.
    :param coordinator: controller in the coordinator role.
    :param subordinate: controller in the subordinate role.
    :param params: timing parameters chosen by the coordinator.
    :param access_address: 32-bit access address (seeds CSA#2).
    :param anchor0_true: true time of the first connection event.
    :param hop_increment: CSA#1 hop (ignored for CSA#2).
    """

    _next_id = 0

    #: The connection's shared IPSP channel, cached by ``coc_of`` on first
    #: use (both endpoints' netifs must drive the same object).
    _ipsp_coc: Optional["L2capCoc"]

    def __init__(
        self,
        sim: Simulator,
        coordinator: "BleController",
        subordinate: "BleController",
        params: ConnParams,
        access_address: int,
        anchor0_true: int,
        hop_increment: int = 7,
    ) -> None:
        if coordinator is subordinate:
            raise ValueError("a connection needs two distinct nodes")
        self.sim = sim
        self.conn_id = Connection._next_id
        Connection._next_id += 1
        self.params = params
        self.access_address = access_address
        self.medium = coordinator.medium
        # The coordinator dictates the hopping parameters (§2.2) and the
        # PHY mode (LE 1M in the paper; LE 2M as an extension -- both peers
        # must support it, which the simulated radios do).
        self.phy = coordinator.config.phy
        self.chan_map: ChannelMap = coordinator.config.chan_map
        self.csa: ChannelSelection
        if coordinator.config.csa is CsaVariant.CSA2:
            self.csa = Csa2(access_address)
        else:
            self.csa = Csa1(hop_increment)
        # The CSA#2 block of channels the coming events read from, the map
        # it was built for and the event counter of its first entry; empty
        # until the first event (and for CSA#1, which is asked every event).
        self._chan_block: Tuple[int, ...] = ()
        self._chan_block_map: Optional[ChannelMap] = None
        self._chan_block_base = 0

        self.coord = Endpoint(self, coordinator, Role.COORDINATOR)
        self.sub = Endpoint(self, subordinate, Role.SUBORDINATE)
        self._coord_activity = _ConnActivity(self, Role.COORDINATOR)
        self._sub_activity = _ConnActivity(self, Role.SUBORDINATE)

        self.event_counter = 0
        self.anchor_true = anchor0_true
        # Subordinate sync state: CONNECT_IND hands the sub exact timing, so
        # it is "synced" to the first anchor by definition.
        self._sync_true = anchor0_true
        self._sync_counter = 0
        # Per-event invariants, recomputed only when their inputs change
        # (clock rates and node configs are fixed for a connection's life;
        # params change only via LL control procedures).
        self._sca_sum_ppm = (
            coordinator.config.declared_sca_ppm + subordinate.config.declared_sca_ppm
        )
        self._widening_base = subordinate.config.window_widening_base_ns
        self._sub_clock = subordinate.clock
        self._air = ble_air_time_table(self.phy)
        self._interval_true = coordinator.clock.local_duration_to_true(
            params.interval_ns
        )
        self._timeout_ns = params.effective_supervision_timeout_ns()
        self._coord_alternate = coordinator.config.scheduler_policy is _ALTERNATE
        self._sub_alternate = subordinate.config.scheduler_policy is _ALTERNATE
        self._idle_eligible = self._idle_eligibility()
        self._window_proven = self._window_always_hits()
        self._sub_latency_credit = 0
        self._pending_params: Optional[ConnParams] = None
        self._pending_chan_map: Optional[ChannelMap] = None
        self.open = True
        self._timer: Optional[Timer] = None
        #: Called once on teardown: ``on_closed(conn, reason)``.
        self.on_closed: Optional[Callable[["Connection", DisconnectReason], None]] = None

        coordinator.attach_connection(self, self._coord_activity)
        subordinate.attach_connection(self, self._sub_activity)
        self._timer = sim.recurring(anchor0_true, self._run_event)
        self.coord.last_rx_valid = anchor0_true
        self.sub.last_rx_valid = anchor0_true
        if TRACE.enabled:
            TRACE.emit(
                sim.now, "ble", "conn_open",
                conn=self.conn_id,
                coordinator=coordinator.name,
                subordinate=subordinate.name,
                interval_ns=params.interval_ns,
                anchor0=anchor0_true,
                timeout_ns=params.effective_supervision_timeout_ns(),
            )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def interval_ns(self) -> int:
        """Nominal connection interval (local clock nanoseconds)."""
        return self.params.interval_ns

    def endpoint_of(self, controller: "BleController") -> Endpoint:
        """The endpoint owned by ``controller``."""
        if controller is self.coord.controller:
            return self.coord
        if controller is self.sub.controller:
            return self.sub
        raise ValueError(f"{controller} is not part of this connection")

    def peer_of(self, controller: "BleController") -> "BleController":
        """The other node of the link."""
        self.endpoint_of(controller)  # membership check
        return (
            self.sub.controller
            if controller is self.coord.controller
            else self.coord.controller
        )

    def send(
        self,
        controller: "BleController",
        payload: bytes,
        llid: Llid = Llid.DATA_START,
        tag: Optional[object] = None,
    ) -> bool:
        """Queue ``payload`` as one LL data PDU from ``controller``'s side
        (:meth:`Endpoint.send`)."""
        return self.endpoint_of(controller).send(payload, llid, tag)

    def close(self, reason: DisconnectReason = DisconnectReason.LOCAL_CLOSE) -> None:
        """Tear the connection down on both ends."""
        if not self.open:
            return
        self.open = False
        if TRACE.enabled:
            TRACE.emit(
                None, "ble", "conn_close",
                conn=self.conn_id, reason=reason.value,
            )
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None  # cancelled handles must not be retained
        self.coord.drain_queue()
        self.sub.drain_queue()
        self.coord.controller.detach_connection(self, self._coord_activity)
        self.sub.controller.detach_connection(self, self._sub_activity)
        self.coord.controller.notify_closed(self, reason)
        self.sub.controller.notify_closed(self, reason)
        if self.on_closed is not None:
            self.on_closed(self, reason)

    def request_param_update(self, new_params: ConnParams) -> None:
        """LL control procedure: update timing parameters in flight (§2.2).

        Modelled as a control PDU from the coordinator; the new parameters
        apply at the first event boundary after the PDU is acknowledged.
        """
        pdu = DataPdu(
            payload=b"\x00" * 12,  # CONNECTION_UPDATE_IND is 12 bytes
            llid=Llid.CTRL,
            tag=("conn-param-update", new_params),
        )
        if not self.coord.enqueue(pdu):
            raise RuntimeError("buffer pool exhausted for control PDU")

    def request_chan_map_update(self, new_map: ChannelMap) -> None:
        """LL control procedure: restrict the data channels in flight."""
        pdu = DataPdu(
            payload=b"\x00" * 8,  # CHANNEL_MAP_IND is 8 bytes
            llid=Llid.CTRL,
            tag=("chan-map-update", new_map),
        )
        if not self.coord.enqueue(pdu):
            raise RuntimeError("buffer pool exhausted for control PDU")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _handle_ctrl(self, receiver: Endpoint, pdu: DataPdu) -> None:
        """Apply a received LL control PDU at the next event boundary."""
        if not isinstance(pdu.tag, tuple):
            return
        kind, arg = pdu.tag
        if kind == "conn-param-update":
            self._pending_params = arg
        elif kind == "chan-map-update":
            self._pending_chan_map = arg

    def _next_radio_time(self, role: Role, after_ns: int) -> Optional[int]:
        """Scheduler callback: when does this connection need the radio next."""
        if not self.open:
            return None
        anchor = self.anchor_true
        if anchor <= after_ns:
            interval = self._interval_true
            periods = (after_ns - anchor) // interval + 1
            anchor += periods * interval
        if role is _SUBORDINATE:
            # The subordinate opens its window early by the widening (the
            # arithmetic of _run_event's window check); approximating with
            # the current widening is enough for budget queries.
            dt = anchor - self._sync_true
            if dt < 0:
                dt = 0
            anchor -= self._widening_base + int(dt * self._sca_sum_ppm * 1e-6)
        return anchor

    def _policy_yield(
        self, controller: "BleController", activity: _ConnActivity, t0: int
    ) -> bool:
        """ALTERNATE policy: yield to a more-starved co-located activity."""
        if controller.config.scheduler_policy is not _ALTERNATE:
            return False
        demand_t, demand_a = controller.scheduler.next_demand_after(
            t0, exclude=activity
        )
        if demand_t is None or demand_a is None:
            return False
        return (
            demand_t <= t0 + MIN_EXCHANGE_NS
            and demand_a.consec_skips > activity.consec_skips
        )

    def _event_budget_end(self, t0: int, interval_true: int) -> int:
        """Latest time the event starting at ``t0`` may occupy the radios.

        The event may run until the interval ends, the next competing radio
        demand on either node, or either controller's event-length cap,
        whichever is earliest.
        """
        end = t0 + interval_true - T_IFS_NS
        coord_ctrl = self.coord.controller
        sub_ctrl = self.sub.controller
        demand_t, _ = coord_ctrl.scheduler.next_demand_after(
            t0, self._coord_activity
        )
        if demand_t is not None and demand_t - T_IFS_NS < end:
            end = demand_t - T_IFS_NS
        demand_t, _ = sub_ctrl.scheduler.next_demand_after(t0, self._sub_activity)
        if demand_t is not None and demand_t - T_IFS_NS < end:
            end = demand_t - T_IFS_NS
        max_len = coord_ctrl.config.max_event_len_ns
        if max_len > 0 and t0 + max_len < end:
            end = t0 + max_len
        max_len = sub_ctrl.config.max_event_len_ns
        if max_len > 0 and t0 + max_len < end:
            end = t0 + max_len
        return end

    def _idle_eligibility(self) -> bool:
        """The per-connection half of the served event's selection.

        True when neither end runs the ALTERNATE policy, the subordinate
        has no latency and a CRC error ends the event: then an event whose
        radios are free and whose window hits has nothing to decide but
        the exchange.  Computed when the connection is built and at each
        parameter update.
        """
        return (
            not self._coord_alternate
            and not self._sub_alternate
            and self.params.latency == 0
            and self.coord.controller.config.abort_event_on_crc_error
        )

    def _window_always_hits(self) -> bool:
        """Whether the subordinate's receive window provably catches every
        anchor, so no event needs the prediction to decide it (DESIGN §11).

        Sufficient: the relative drift plus 1 ppm stays within 99 % of the
        declared SCA sum, the widening's constant term is at least 4 ns,
        the interval at least 1 ms and both clocks within 1000 ppm.  The
        clocks and node configs are fixed for a connection's life, so this
        is computed when the connection is built and at each parameter
        update.
        """
        ppm_c = self.coord.controller.clock.ppm
        ppm_s = self._sub_clock.ppm
        return (
            abs(ppm_c - ppm_s) + 1 <= 0.99 * self._sca_sum_ppm
            and self._widening_base >= 4
            and self.params.interval_ns >= MSEC
            and abs(ppm_c) < 1000
            and abs(ppm_s) < 1000
        )

    def _sub_window(self) -> Tuple[int, int]:
        """The subordinate's predicted anchor and its window widening.

        It predicts the anchor on its own clock from the last resync and
        widens its receive window by the drift both sides' declared SCA
        allow since then (§6.1).
        """
        clock = self._sub_clock
        sync_true = self._sync_true
        pred = clock.to_true(
            clock.to_local(sync_true)
            + (self.event_counter - self._sync_counter) * self.params.interval_ns
        )
        dt = pred - sync_true
        if dt < 0:
            dt = 0
        return pred, self._widening_base + int(dt * self._sca_sum_ppm * 1e-6)

    def _select_channel(self) -> int:
        """The event's channel when the held CSA#2 block does not cover it.

        CSA#2 hands back its memoized block holding the counter, which the
        connection keeps with the map it was built for and reads until the
        block ends or the map changes.  CSA#1 is stateful and is asked
        every event.
        """
        counter = self.event_counter & 0xFFFF
        chan_map = self.chan_map
        csa = self.csa
        if isinstance(csa, Csa2):
            offset = counter & CSA2_BLOCK_MASK
            self._chan_block = csa.block(counter, chan_map)
            self._chan_block_map = chan_map
            self._chan_block_base = self.event_counter - offset
            return self._chan_block[offset]
        return csa.channel_for_event(counter, chan_map)

    def _run_event(self) -> Optional[int]:
        """Execute one connection event (the composite transaction).

        Returns the next anchor, at which the kernel fires this recurring
        timer again, or None once the connection has closed.

        A *served* event -- a connection eligible by
        :meth:`_idle_eligibility`, the subordinate's window hit, both radios
        free at the anchor and tracing off -- has nothing to decide: the
        coordinator runs and the subordinate listens.  Every other event
        asks :meth:`_arbitrate`.  A served event with nothing queued at
        either end, spans off and the stock loss sampler plays its one
        empty <-> empty exchange inline and, when neither packet is lost,
        ends there (DESIGN §11); every other exchange runs
        :meth:`_exchange_loop`.  On a connection whose window provably hits
        (:meth:`_window_always_hits`) a dark run predicts the anchor only
        where its value is used.
        """
        if not self.open:
            return None
        now = self.sim._now  # kernel time is frozen for the whole event
        trace_on = TRACE.enabled
        t0 = self.anchor_true
        coord, sub = self.coord, self.sub
        coord_ctrl = coord.controller
        sub_ctrl = sub.controller
        csched = coord_ctrl.scheduler
        ssched = sub_ctrl.scheduler
        interval_true = self._interval_true

        i = self.event_counter - self._chan_block_base
        block = self._chan_block
        if i < len(block) and self._chan_block_map is self.chan_map:
            channel = block[i]
        else:
            channel = self._select_channel()

        # --- subordinate's view: does its window catch the anchor? ---------
        # A traced run always computes the window, so its records carry the
        # widening and check the proof on every event.
        if self._window_proven and not trace_on:
            window_hit = True
            widening: Optional[int] = None
        else:
            pred, widening = self._sub_window()
            window_hit = pred - widening <= t0 <= pred + widening

        served = (
            self._idle_eligible
            and window_hit
            and t0 >= csched._busy_until
            and t0 >= ssched._busy_until
            and not trace_on
        )
        if served:
            coord_runs = sub_listens = True
        else:
            coord_runs, sub_listens = self._arbitrate(
                t0, channel, window_hit, widening
            )

        event_end = t0
        if coord_runs and sub_listens:
            medium = self.medium
            done = False
            if (
                served
                and not coord.tx_queue
                and not sub.tx_queue
                and not SPANS.enabled
                and "packet_lost" not in medium.__dict__
                and type(medium).packet_lost is BleMedium.packet_lost
            ):
                # --- the idle event: one empty <-> empty exchange -----------
                # What the loop would do with both queues empty: the pinned
                # empties' SN/NESN/MD bits, the resync, last_rx_valid, the
                # link and medium counters, and one rng draw per packet when
                # PER > 0.  Both packets share one channel and length, and
                # kernel time is frozen, so they share one PER, read from the
                # medium's loss table as BleMedium.packet_lost reads it.
                interf = medium.interference
                per: Optional[float] = None
                if (
                    not interf.bursts
                    and interf._loss_jammed is interf.jammed_channels
                    and interf._loss_n_per == len(interf.channel_per)
                ):
                    per = interf._loss.get((10, channel))
                if per is None:
                    per = interf.packet_error_rate(channel, 10, now)
                air = self._air[0]
                event_row = coord.stats.per_channel_events[channel]
                event_row[0] += 1
                pdu = coord._outstanding
                if pdu is None:
                    pdu = coord._empty_pdu
                    pdu.sn = coord.sn
                    coord._outstanding = pdu
                pdu.nesn = coord.nesn
                pdu.md = False
                coord.stats.tx_empty += 1
                medium.packets_sampled += 1
                end = t0 + air
                if per > 0.0 and medium.rng.random() < per:
                    medium.packets_lost += 1
                    coord.stats.events_crc_abort += 1
                    event_row[1] += 1
                else:
                    self._sync_true = t0
                    self._sync_counter = self.event_counter
                    sub.last_rx_valid = end
                    if pdu.nesn != sub.sn:
                        sub.sn ^= 1
                        sub._outstanding = None
                    if pdu.sn == sub.nesn:
                        sub.nesn ^= 1
                    sub.stats.events_active += 1

                    pdu = sub._outstanding
                    if pdu is None:
                        pdu = sub._empty_pdu
                        pdu.sn = sub.sn
                        sub._outstanding = pdu
                    pdu.nesn = sub.nesn
                    pdu.md = False
                    sub.stats.tx_empty += 1
                    medium.packets_sampled += 1
                    end += T_IFS_NS + air
                    if per > 0.0 and medium.rng.random() < per:
                        medium.packets_lost += 1
                        sub.stats.events_crc_abort += 1
                        event_row[1] += 1
                    else:
                        coord.last_rx_valid = end
                        if pdu.nesn != coord.sn:
                            coord.sn ^= 1
                            coord._outstanding = None
                        if pdu.sn == coord.nesn:
                            coord.nesn ^= 1
                        coord.stats.events_active += 1
                        # Nothing in the tail can act: both last_rx_valid
                        # are after now, tracing is off, and no control
                        # procedure is pending (only an exchange loop's
                        # tail sees one set).
                        done = True
            else:
                end = self._exchange_loop(t0, channel, interval_true)
            if trace_on or t0 < csched._busy_until or t0 < ssched._busy_until:
                # claim() traces the claim, and an overlap needs its
                # diagnostic raise: radio exclusivity must keep firing.
                csched.claim(self._coord_activity, t0, end)
                ssched.claim(self._sub_activity, t0, end)
            else:
                # Inlined RadioScheduler.claim fast path (tracing off;
                # an exchange ends at or after t0).
                dur = end - t0
                csched._busy_until = end
                csched.busy_ns_total += dur
                csched.claims += 1
                self._coord_activity.consec_skips = 0
                ssched._busy_until = end
                ssched.busy_ns_total += dur
                ssched.claims += 1
                self._sub_activity.consec_skips = 0
            # Inlined note_conn_event x2 (energy accounting).
            dur = end - t0
            coord_ctrl.conn_events_coord += 1
            coord_ctrl.conn_event_ns += dur
            sub_ctrl.conn_events_sub += 1
            sub_ctrl.conn_event_ns += dur
            if done:
                self.event_counter += 1
                self.anchor_true = anchor = t0 + interval_true
                return anchor
            event_end = end
        elif coord_runs:
            # TX into the void: one unanswered packet, then the event
            # closes.
            spans_on = SPANS.enabled
            retx = (trace_on or spans_on) and coord._outstanding is not None
            pdu = coord.build_tx_pdu()
            if trace_on:
                coord._trace_tx(pdu, t0, retx)
            dur = ble_air_time_ns(len(pdu.payload), self.phy)
            if spans_on:
                tag = pdu.tag
                if type(tag) is tuple and tag[0] == "kframe":
                    # Nobody listened: on-air but lost for span purposes.
                    SPANS.ll_tx(
                        tag[2], t0, t0 + dur, len(pdu.payload),
                        True, retx, t0, interval_true,
                    )
            if not pdu.is_empty:
                coord.stats.per_channel[channel][0] += 1
            end = t0 + dur + T_IFS_NS + ble_air_time_ns(0, self.phy)
            csched.claim(self._coord_activity, t0, end)
            coord_ctrl.note_conn_event(_COORDINATOR, end - t0)
            event_end = end
        elif sub_listens:
            # Subordinate listens but the coordinator never transmits.
            pred, widening = self._sub_window()
            listen_end = min(pred + widening, t0 + interval_true // 2)
            ssched.claim(self._sub_activity, t0, max(t0, listen_end))
            sub_ctrl.note_conn_event(_SUBORDINATE, max(0, listen_end - t0))
            event_end = max(t0, listen_end)

        if not self.open:
            return None  # torn down by a control procedure during the event

        # --- supervision timeout (both sides judge independently) ----------
        timeout = self._timeout_ns
        if now < t0:
            now = t0
        if TRACE.enabled:
            TRACE.emit(
                now, "ble", "conn_event_end",
                conn=self.conn_id, event=self.event_counter,
                end=event_end, now=now, timeout_ns=timeout,
            )
        if (
            now - coord.last_rx_valid >= timeout
            or now - sub.last_rx_valid >= timeout
        ):
            self.close(DisconnectReason.SUPERVISION_TIMEOUT)
            return None

        # --- apply pending control procedures at the event boundary --------
        if self._pending_chan_map is not None:
            self.chan_map = self._pending_chan_map
            self._pending_chan_map = None
        if self._pending_params is not None:
            self.params = self._pending_params
            self._pending_params = None
            self._interval_true = coord_ctrl.clock.local_duration_to_true(
                self.params.interval_ns
            )
            self._timeout_ns = self.params.effective_supervision_timeout_ns()
            self._idle_eligible = self._idle_eligibility()
            self._window_proven = self._window_always_hits()
            interval_true = self._interval_true
            if TRACE.enabled:
                TRACE.emit(
                    None, "ble", "param_update",
                    conn=self.conn_id, interval_ns=self.params.interval_ns,
                )
            # Parameter updates re-anchor the link: both sides agree on the
            # instant, so the subordinate is synced by definition.
            self._sync_true = t0 + interval_true
            self._sync_counter = self.event_counter + 1

        # --- the next event --------------------------------------------------
        self.event_counter += 1
        self.anchor_true = anchor = t0 + interval_true
        return anchor

    def _arbitrate(
        self, t0: int, channel: int, window_hit: bool, widening: Optional[int]
    ) -> Tuple[bool, bool]:
        """Whether the coordinator runs and the subordinate listens, for an
        event that is not served (see :meth:`_run_event`).

        Decides subordinate latency, radio arbitration on both nodes and
        the ALTERNATE policy, emits the ``conn_event`` record and counts
        the skips.
        """
        coord, sub = self.coord, self.sub
        csched = coord.controller.scheduler
        ssched = sub.controller.scheduler
        # Subordinate latency: may it sleep through this event?
        latency_skip = False
        if self.params.latency > 0 and not sub.tx_queue:
            if self._sub_latency_credit > 0:
                self._sub_latency_credit -= 1
                latency_skip = True
            else:
                self._sub_latency_credit = self.params.latency

        # Radio arbitration on both nodes.  is_free() inlined
        # (`at_ns >= _busy_until`): two calls per event.
        coord_free = t0 >= csched._busy_until
        sub_free = t0 >= ssched._busy_until
        # The ALTERNATE check is hoisted to a per-connection flag so the
        # default EARLIEST_WINS policy never pays a _policy_yield call.
        coord_yield = (
            coord_free
            and self._coord_alternate
            and self._policy_yield(coord.controller, self._coord_activity, t0)
        )
        sub_yield = (
            sub_free
            and self._sub_alternate
            and self._policy_yield(sub.controller, self._sub_activity, t0)
        )

        coord_runs = coord_free and not coord_yield
        sub_listens = sub_free and not sub_yield and window_hit and not latency_skip

        if TRACE.enabled:
            TRACE.emit(
                t0, "ble", "conn_event",
                conn=self.conn_id, event=self.event_counter, anchor=t0,
                channel=channel, interval_ns=self.params.interval_ns,
                widening=widening, window_hit=window_hit,
                coord_runs=coord_runs, sub_listens=sub_listens,
            )

        if not coord_free:
            coord.stats.events_skipped_radio += 1
            csched.deny(self._coord_activity)
        elif coord_yield:
            coord.stats.events_skipped_policy += 1
            csched.deny(self._coord_activity)
        if not sub_free:
            sub.stats.events_skipped_radio += 1
            ssched.deny(self._sub_activity)
        elif sub_yield:
            sub.stats.events_skipped_policy += 1
            ssched.deny(self._sub_activity)
        elif not window_hit:
            sub.stats.events_missed_window += 1
        return coord_runs, sub_listens

    def _exchange_loop(self, t0: int, channel: int, interval_true: int) -> int:
        """Play out the packet exchanges of one event; returns its end time.

        Follows Figure 3: the coordinator opens every exchange; the
        subordinate answers one T_IFS later; a CRC error on either side
        closes the event immediately (BT 5.2 Vol 6 Part B §4.5.6).
        """
        coord, sub = self.coord, self.sub
        # Computed at the anchor, not when first needed: a receive callback
        # may register or unregister radio activities mid-event (dynconn
        # starts advertising), which would move a later query's answer.
        budget_end = self._event_budget_end(t0, interval_true)
        # Loop-invariant loads, hoisted out of the per-exchange iteration:
        # instrumentation flags only toggle between runs, never inside a
        # connection event, and the PHY / abort policy are fixed per event.
        trace_on = TRACE.enabled
        spans_on = SPANS.enabled
        air = self._air
        abort_on_crc = coord.controller.config.abort_event_on_crc_error
        packet_lost = self.medium.packet_lost
        coord_chan_row = coord.stats.per_channel[channel]
        sub_chan_row = sub.stats.per_channel[channel]
        t = t0
        first = True
        coord_active = False
        sub_active = False
        lost_c = lost_s = False
        while True:
            # The first exchange always runs in full: the coordinator opens
            # the event and a started packet completes even when it overruns
            # a co-located connection's anchor (that connection's event is
            # then skipped -- the load-induced starvation behind §5.2's
            # connection drops and "beneficial reconnects").  Additional
            # exchanges are only *started* while they fit the budget (the
            # `needed` check below).
            retx_c = (trace_on or spans_on) and coord._outstanding is not None
            pdu_c = coord.build_tx_pdu()
            if trace_on:
                coord._trace_tx(pdu_c, t, retx_c)
            if pdu_c.payload or pdu_c.llid is not _DATA_CONT:  # not is_empty
                coord_chan_row[0] += 1
            len_c = len(pdu_c.payload)
            lost_c = packet_lost(channel, len_c + 10)
            t += air[len_c]
            if spans_on:
                tag = pdu_c.tag
                if type(tag) is tuple and tag[0] == "kframe":
                    SPANS.ll_tx(
                        tag[2], t - air[len_c], t, len_c,
                        lost_c, retx_c, t0, interval_true,
                    )
            if lost_c:
                if trace_on:
                    TRACE.emit(
                        t, "ble", "crc_loss",
                        conn=self.conn_id, role=sub.role.value,
                        channel=channel, len=len_c,
                    )
                coord.stats.events_crc_abort += 1
                if abort_on_crc:
                    break
                # ablation: keep the event open and retry after one IFS
                if t + T_IFS_NS + MIN_EXCHANGE_NS > budget_end:
                    break
                t += T_IFS_NS
                continue
            if first:
                # The subordinate locks onto the anchor with the first
                # packet it receives.
                self._sync_true = t0
                self._sync_counter = self.event_counter
            if spans_on:
                # Publish the exact in-event time: sim.now is frozen at the
                # anchor, but spans opened or closed by this delivery chain
                # must carry the true air-time instant to tile exactly.
                SPANS.now_hint = t
                sub.process_rx(pdu_c, t, channel)
                SPANS.now_hint = None
            else:
                sub.process_rx(pdu_c, t, channel)
            sub_active = True

            t += T_IFS_NS
            retx_s = (trace_on or spans_on) and sub._outstanding is not None
            pdu_s = sub.build_tx_pdu()
            if trace_on:
                sub._trace_tx(pdu_s, t, retx_s)
            if pdu_s.payload or pdu_s.llid is not _DATA_CONT:  # not is_empty
                sub_chan_row[0] += 1
            len_s = len(pdu_s.payload)
            lost_s = packet_lost(channel, len_s + 10)
            t += air[len_s]
            if spans_on:
                tag = pdu_s.tag
                if type(tag) is tuple and tag[0] == "kframe":
                    SPANS.ll_tx(
                        tag[2], t - air[len_s], t, len_s,
                        lost_s, retx_s, t0, interval_true,
                    )
            if lost_s:
                if trace_on:
                    TRACE.emit(
                        t, "ble", "crc_loss",
                        conn=self.conn_id, role=coord.role.value,
                        channel=channel, len=len_s,
                    )
                sub.stats.events_crc_abort += 1
                if abort_on_crc:
                    break
                if t + T_IFS_NS + MIN_EXCHANGE_NS > budget_end:
                    break
                t += T_IFS_NS
                continue
            if spans_on:
                SPANS.now_hint = t
                coord.process_rx(pdu_s, t, channel)
                SPANS.now_hint = None
            else:
                coord.process_rx(pdu_s, t, channel)
            coord_active = True
            first = False

            if not (coord.tx_queue or sub.tx_queue):
                break
            # Payload each side sends next: its pinned PDU, else its queue
            # head (what build_tx_pdu will pick).
            o = coord._outstanding
            if o is not None:
                next_c = len(o.payload)
            else:
                next_c = len(coord.tx_queue[0].payload) if coord.tx_queue else 0
            o = sub._outstanding
            if o is not None:
                next_s = len(o.payload)
            else:
                next_s = len(sub.tx_queue[0].payload) if sub.tx_queue else 0
            needed = T_IFS_NS + air[next_c] + T_IFS_NS + air[next_s]
            if t + needed > budget_end:
                break
            t += T_IFS_NS
        if coord_active:
            coord.stats.events_active += 1
        if sub_active:
            sub.stats.events_active += 1
        event_row = coord.stats.per_channel_events[channel]
        event_row[0] += 1
        if lost_c or lost_s:
            event_row[1] += 1
        return t
