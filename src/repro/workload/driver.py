"""The workload driver: binds churn/mobility/rotation to a live network.

One :class:`WorkloadDriver` per dynamic experiment.  It precomputes the
churn schedule (pure; :mod:`repro.workload.schedule`), installs the event
timers on the kernel, and owns the lifecycle mechanics:

**Departure** -- graceful: dynconn and RPL stop, every live connection is
closed (``LOCAL_CLOSE``; peers see an orderly disconnect), the producer
pauses, and the radio is silenced.  Fail-stop: the radio is silenced
*first* (:meth:`repro.ble.sched.RadioScheduler.fail_stop`) with every
connection left dangling -- peers discover the death the way the BT spec
makes them, via supervision timeout.

**Arrival** -- the radio resumes, RPL forgets all DODAG state
(:meth:`repro.rpl.rpl.RplInstance.reset`: a returning node must rejoin
from scratch), dynconn restarts (the node advertises as an orphan), and
the producer resumes if the traffic window is still open.  The driver
records the re-attach latency -- arrival until the RPL parent-change that
rejoins the DODAG -- in :attr:`WorkloadDriver.reattach_latencies`.

Node 0 (root/consumer) never departs, never moves, never rotates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.ble.conn import DisconnectReason
from repro.sim.units import s_to_ns
from repro.trace.tracer import TRACE
from repro.workload.mobility import WaypointMobility
from repro.workload.rotation import MacRotator
from repro.workload.schedule import ChurnSchedule, build_churn_schedule
from repro.workload.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.testbed.dynamic import DynamicBleNetwork
    from repro.testbed.traffic import Producer


class WorkloadDriver:
    """Scenario dynamics for one :class:`~repro.testbed.dynamic.DynamicBleNetwork`."""

    def __init__(
        self,
        net: "DynamicBleNetwork",
        spec: WorkloadSpec,
        seed: int,
    ) -> None:
        self.net = net
        self.spec = spec
        self.seed = seed
        self.schedule: ChurnSchedule = ChurnSchedule(events=())
        self._departed: set = set()
        self._producers: Dict[int, "Producer"] = {}
        self._traffic_start_ns: Optional[int] = None
        self._traffic_stop_ns: Optional[int] = None
        self._arrived_at: Dict[int, int] = {}
        self.mobiles: List[WaypointMobility] = []
        self._rotators: List[MacRotator] = []
        #: (node_id, latency_ns) per completed re-attach.
        self.reattach_latencies: List[Tuple[int, int]] = []
        #: Departures and arrivals per node id.
        self.node_departures = [0] * len(net.nodes)
        self.node_arrivals = [0] * len(net.nodes)
        self.failstops = 0
        for node_id, rpl in enumerate(net.rpls):
            self._chain_parent_change(node_id, rpl)

    # -- wiring ------------------------------------------------------------

    def bind_producers(
        self,
        producers: Dict[int, "Producer"],
        traffic_start_ns: int,
        traffic_stop_ns: int,
    ) -> None:
        """Let the driver pause/resume the traffic sources across churn."""
        self._producers = dict(producers)
        self._traffic_start_ns = traffic_start_ns
        self._traffic_stop_ns = traffic_stop_ns

    def install(self, start_ns: int, end_ns: int) -> None:
        """Precompute the churn schedule and arm every workload timer.

        :param start_ns / end_ns: the default churn window (the measured
            part of the run); the spec's ``start_s``/``end_s`` override it.
        """
        sim = self.net.sim
        churn = self.spec.churn
        if churn is not None:
            window_start = s_to_ns(churn.start_s) if churn.start_s > 0 else start_ns
            window_end = s_to_ns(churn.end_s) if churn.end_s > 0 else end_ns
            self.schedule = build_churn_schedule(
                churn, self.seed, len(self.net.nodes), window_start, window_end
            )
            for event in self.schedule.events:
                if event.action == "depart":
                    sim.at(event.time_ns, self._depart, event.node_id, event.fail)
                else:
                    sim.at(event.time_ns, self._arrive, event.node_id)
        if self.spec.mobility is not None:
            self._install_mobility()
        if self.spec.rotation is not None:
            for node in self.net.nodes[1:]:
                rotator = MacRotator(
                    node,
                    self.spec.rotation,
                    self.seed,
                    is_departed=lambda i=node.node_id: i in self._departed,
                )
                rotator.start()
                self._rotators.append(rotator)

    def _install_mobility(self) -> None:
        geometry = self.net.medium.geometry
        if geometry is None:
            raise ValueError("mobility requires a geometry-equipped medium")
        xs: List[float] = []
        ys: List[float] = []
        for node in self.net.nodes:
            x, y = geometry.position_of(node.controller.addr)
            xs.append(x)
            ys.append(y)
        bounds = (min(xs), min(ys), max(xs), max(ys))
        assert self.spec.mobility is not None
        for node in self.net.nodes[1:]:  # the root anchors the deployment
            mobile = WaypointMobility(
                node, geometry, self.spec.mobility, self.seed, bounds
            )
            mobile.start()
            self.mobiles.append(mobile)

    def _chain_parent_change(self, node_id: int, rpl) -> None:
        prev = rpl.on_parent_change

        def chained(parent, node_id=node_id, prev=prev) -> None:
            if prev is not None:
                prev(parent)
            if parent is not None:
                self._note_reattach(node_id)

        rpl.on_parent_change = chained

    # -- lifecycle events --------------------------------------------------

    def _depart(self, node_id: int, fail: bool) -> None:
        if node_id in self._departed:
            return
        node = self.net.nodes[node_id]
        dynconn = self.net.dynconns[node_id]
        rpl = self.net.rpls[node_id]
        controller = node.controller
        if fail:
            # Radio dies first: connections are left dangling mid-stream,
            # peers find out via supervision timeout.
            controller.scheduler.fail_stop()
            dynconn.stop()
            rpl.stop()
        else:
            dynconn.stop()
            rpl.stop()
            for conn in list(controller.connections):
                if conn.open:
                    conn.close(DisconnectReason.LOCAL_CLOSE)
            controller.scheduler.fail_stop()
        producer = self._producers.get(node_id)
        if producer is not None:
            producer.stop()
        self._departed.add(node_id)
        self._arrived_at.pop(node_id, None)
        self.node_departures[node_id] += 1
        if fail:
            self.failstops += 1
        if TRACE.enabled:
            TRACE.emit(
                self.net.sim.now, "workload", "depart",
                node=controller.name, id=node_id, fail=fail,
            )

    def _arrive(self, node_id: int) -> None:
        if node_id not in self._departed:
            return
        now = self.net.sim.now
        node = self.net.nodes[node_id]
        controller = node.controller
        controller.scheduler.resume(now)
        rpl = self.net.rpls[node_id]
        rpl.reset()
        self._departed.discard(node_id)
        self.net.dynconns[node_id].start()
        self._restart_producer(node_id, now)
        self._arrived_at[node_id] = now
        self.node_arrivals[node_id] += 1
        if TRACE.enabled:
            TRACE.emit(
                now, "workload", "arrive", node=controller.name, id=node_id,
            )

    def _restart_producer(self, node_id: int, now: int) -> None:
        producer = self._producers.get(node_id)
        if producer is None or self._traffic_stop_ns is None:
            return
        assert self._traffic_start_ns is not None
        if now >= self._traffic_stop_ns:
            return  # measured window over; stay quiet
        delay = max(0, self._traffic_start_ns - now)
        producer.start(delay_ns=delay)

    def _note_reattach(self, node_id: int) -> None:
        arrived = self._arrived_at.pop(node_id, None)
        if arrived is None:
            return
        latency_ns = self.net.sim.now - arrived
        self.reattach_latencies.append((node_id, latency_ns))
        name = self.net.nodes[node_id].controller.name
        if TRACE.enabled:
            TRACE.emit(
                self.net.sim.now, "workload", "reattach",
                node=name, id=node_id, latency_ns=latency_ns,
            )

    # -- results -----------------------------------------------------------

    @property
    def departures(self) -> int:
        """Departures over all nodes."""
        return sum(self.node_departures)

    @property
    def arrivals(self) -> int:
        """Arrivals over all nodes."""
        return sum(self.node_arrivals)

    def departed_now(self) -> set:
        """Node ids currently departed."""
        return set(self._departed)

    def reconverged(self) -> bool:
        """Whether every *present* node is joined to the DODAG."""
        return all(
            rpl.joined
            for node_id, rpl in enumerate(self.net.rpls)
            if node_id not in self._departed
        )

    def summary(self) -> dict:
        """The picklable workload payload attached to experiment results."""
        total_moves = sum(m.moves for m in self.mobiles)
        total_rotations = sum(
            node.controller.rotations for node in self.net.nodes
        )
        orphan_timeouts = sum(d.orphan_timeouts for d in self.net.dynconns)
        return {
            "schedule_digest": self.schedule.digest(),
            "departures": self.departures,
            "arrivals": self.arrivals,
            "failstops": self.failstops,
            "max_departed": self.schedule.max_departed(),
            "moves": total_moves,
            "rotations": total_rotations,
            "orphan_timeouts": orphan_timeouts,
            "reattach_latencies_ns": [
                [node_id, latency] for node_id, latency in self.reattach_latencies
            ],
            "reconverged": self.reconverged(),
            "departed_at_end": sorted(self._departed),
        }
