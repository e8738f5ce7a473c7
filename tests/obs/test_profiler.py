"""Tests for the wall-clock profiler and its subsystem attribution."""

import pytest

from repro.obs.profiler import Profiler
from repro.ble.conn import Connection
from repro.exp.runner import ExperimentRunner


class TestAttribution:
    def test_repro_modules_map_to_second_segment(self):
        p = Profiler()
        assert p.subsystem_of(Connection.close) == "ble"
        assert p.subsystem_of(ExperimentRunner.run) == "exp"

    def test_bound_methods_share_the_cache_entry(self):
        p = Profiler()
        log = []
        a, b = log.append, log.append
        assert p.subsystem_of(a) == p.subsystem_of(b)

    def test_non_repro_module_falls_back_to_first_segment(self):
        p = Profiler()
        import json

        assert p.subsystem_of(json.dumps) == "json"

    def test_unhashable_callable_is_classified_every_time(self):
        class Weird(list):
            __module__ = "repro.phy.medium"

            __hash__ = None

            def __call__(self):
                pass

        p = Profiler()
        assert p.subsystem_of(Weird()) == "phy"
        assert p._cache == {}


class TestRecordAndReport:
    def test_disabled_by_default(self):
        assert Profiler().enabled is False

    def test_configure_clears_and_reset_disarms(self):
        p = Profiler()
        p.configure()
        assert p.enabled
        p.record(Connection.close, 0.5)
        p.reset()
        assert not p.enabled
        # data stays readable after reset
        assert p.report()["subsystems"]["ble"]["events"] == 1
        p.configure()
        assert p.report()["subsystems"] == {}

    def test_report_shares_and_ordering(self):
        p = Profiler()
        p.configure()
        p.record(Connection.close, 0.3)
        p.record(Connection.close, 0.3)
        p.record(ExperimentRunner.run, 0.4)
        report = p.report()
        assert report["schema"] == "repro.obs.profile/1"
        assert report["events"] == 3
        subsystems = report["subsystems"]
        assert list(subsystems) == ["ble", "exp"]  # sorted by wall desc
        assert subsystems["ble"]["share"] == pytest.approx(0.6)
        assert report["dispatch_wall_s"] == pytest.approx(1.0)
        assert report["wall_s"] > 0

    def test_report_with_sim_time(self):
        p = Profiler()
        p.configure()
        report = p.report(sim_time_ns=2_000_000_000, events=10)
        assert report["sim_time_ns"] == 2_000_000_000
        assert report["events"] == 10
        assert report["sim_s_per_wall_s"] > 0
