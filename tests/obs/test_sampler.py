"""Tests for the sim-time metrics snapshotter (cadence + series shape)."""

import random
from types import SimpleNamespace

from repro.ble.config import BleConfig
from repro.ieee802154.medium154 import CsmaMedium
from repro.net.ip import Ipv6Stack
from repro.net.netif import coc_of
from repro.obs.registry import MetricsHub
from repro.obs.sampler import MetricsSnapshotter
from repro.sim import Simulator
from repro.sim.units import MSEC, SEC
from tests.ble.conftest import BlePlane

import pytest


def _bare(sim):
    """A network with no nodes and an idle medium: only the kernel counts."""
    return SimpleNamespace(sim=sim, medium=CsmaMedium(sim, random.Random(0)), nodes=[])


def _ticking_hub(sim):
    """A hub plus a 1 Hz counter-bumping workload on the sim clock."""
    hub = MetricsHub()

    def work():
        hub.inc("node1", "work.ticks")
        sim.after(1 * SEC, work)

    sim.after(1 * SEC, work)
    return hub


class TestCadence:
    def test_samples_every_period_plus_final_partial_window(self):
        sim = Simulator()
        hub = _ticking_hub(sim)
        snapper = MetricsSnapshotter(_bare(sim), hub, 10 * SEC)
        snapper.start()
        sim.run(until=25 * SEC)
        snapper.finish()
        assert snapper.times_ns == [10 * SEC, 20 * SEC, 25 * SEC]
        series = snapper.series()
        # the snapshotter's timer predates the t=10/t=20 work timers, so
        # same-timestamp ties dispatch it first: it sees 9 and 19 ticks;
        # the closing sample at t=25 sees all 24 (the kernel never runs
        # the t=25 event itself)
        assert series["values"]["node1:work.ticks"] == [9, 19, 24]

    def test_finish_is_idempotent_at_a_period_boundary(self):
        sim = Simulator()
        hub = _ticking_hub(sim)
        snapper = MetricsSnapshotter(_bare(sim), hub, 10 * SEC)
        snapper.start()
        sim.run(until=20 * SEC)
        # the horizon tick itself never ran (the kernel stops before the
        # horizon), so finish() takes exactly one closing sample...
        snapper.finish()
        assert snapper.times_ns == [10 * SEC, 20 * SEC]
        # ...and a second finish() adds nothing
        snapper.finish()
        assert len(snapper.times_ns) == 2

    def test_no_ticks_yields_no_series_until_finish(self):
        sim = Simulator()
        hub = MetricsHub()
        snapper = MetricsSnapshotter(_bare(sim), hub, 10 * SEC)
        assert snapper.series() is None
        snapper.finish()
        assert snapper.series()["times_ns"] == [0]

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            MetricsSnapshotter(_bare(Simulator()), MetricsHub(), 0)


class TestColumns:
    def test_late_instruments_get_zero_prefix(self):
        sim = Simulator()
        hub = MetricsHub()
        hub.inc("n", "early")
        sim.at(int(10.5 * SEC), lambda: hub.inc("n", "late"))
        snapper = MetricsSnapshotter(_bare(sim), hub, 10 * SEC)
        snapper.start()
        sim.run(until=30 * SEC)
        snapper.finish()
        series = snapper.series()
        # periodic samples at 10 and 20, closing sample at 30
        assert series["times_ns"] == [10 * SEC, 20 * SEC, 30 * SEC]
        assert series["values"]["n:early"] == [1, 1, 1]
        assert series["values"]["n:late"] == [0, 1, 1]

    def test_queue_depth_gauge_sampled(self):
        sim = Simulator()
        hub = MetricsHub()
        snapper = MetricsSnapshotter(_bare(sim), hub, 10 * SEC)
        snapper.start()
        sim.run(until=15 * SEC)
        snapper.finish()
        series = snapper.series()
        assert "sim:kernel.timer_queue_depth" in series["values"]

    def test_gauges_only_appear_after_first_set(self):
        sim = Simulator()
        hub = MetricsHub()
        hub.scope("n").gauge("unset")  # created but never set
        snapper = MetricsSnapshotter(_bare(sim), hub, 10 * SEC)
        snapper.start()
        sim.run(until=15 * SEC)
        snapper.finish()
        assert "n:unset" not in snapper.series()["values"]


class TestL2capStalls:
    """No short metered run stalls an L2CAP channel, so drive each stall
    counter directly and check the snapshotter files it under its node."""

    @staticmethod
    def _counters(pool_bytes, sdus):
        plane = BlePlane(config_factory=lambda i: BleConfig(buffer_pool_bytes=pool_bytes))
        conn = plane.connect(0, 1, anchor0=MSEC)
        for sdu in sdus:
            coc_of(conn).send(plane.nodes[0], sdu)
        net = SimpleNamespace(sim=plane.sim, medium=plane.medium, nodes=[
            SimpleNamespace(node_id=i, controller=c, ip=Ipv6Stack(i))
            for i, c in enumerate(plane.nodes)
        ])
        links = SimpleNamespace(losses=[], degraded=set(), onsets=0)
        hub = MetricsHub()
        snapper = MetricsSnapshotter(net, hub, 10 * SEC, links)
        plane.sim.run(until=2 * SEC)
        snapper.finish()
        return {scope: hub.snapshot()[scope]["counters"] for scope in ("node0", "node1")}

    def test_pool_stalls(self):
        counters = self._counters(300, [bytes(1000)])
        assert counters["node0"]["l2cap.pool_stalls"] == 3
        assert "l2cap.credit_stalls" not in counters["node0"]
        assert "l2cap.pool_stalls" not in counters["node1"]

    def test_credit_stalls(self):
        counters = self._counters(BleConfig().buffer_pool_bytes, [bytes(1280)] * 3)
        assert counters["node0"]["l2cap.credit_stalls"] == 2
        assert "l2cap.pool_stalls" not in counters["node0"]
        assert "l2cap.credit_stalls" not in counters["node1"]
