"""§5.4: energy efficiency -- every number of the section, reproduced.

Closed-form values come straight from the calibrated charge model; the
simulation-driven values run an idle connection / an advertiser / a loaded
forwarder and feed the recorded event counters through the same model.
"""

import random

import pytest

from repro.ble.config import BleConfig, ConnParams
from repro.ble.conn import Connection, Role
from repro.ble.controller import BleController
from repro.energy import EnergyModel
from repro.exp import ExperimentConfig, run_experiment
from repro.exp.report import format_table
from repro.phy.medium import BleMedium, InterferenceModel
from repro.sim import DriftingClock, Simulator
from repro.sim.units import MSEC, SEC

from conftest import banner, scaled


def simulate_idle_connection(duration_s: float):
    sim = Simulator()
    medium = BleMedium(sim, random.Random(1), InterferenceModel(base_ber=0.0))
    nodes = [
        BleController(sim, medium, addr=i, clock=DriftingClock(sim),
                      rng=random.Random(i))
        for i in range(2)
    ]
    Connection(sim, nodes[0], nodes[1], ConnParams(interval_ns=75 * MSEC),
               access_address=0xE4E4E4E4, anchor0_true=MSEC)
    sim.run(until=int(duration_s * SEC))
    return nodes


def test_sec54_energy_numbers(run_once):
    banner("§5.4: energy efficiency", "paper §5.4")
    model = EnergyModel()
    duration = scaled(60, minimum=20)

    def measure():
        nodes = simulate_idle_connection(duration)
        coord_ua = model.controller_current_ua(nodes[0], duration)
        sub_ua = model.controller_current_ua(nodes[1], duration)
        forwarder = run_experiment(
            ExperimentConfig(name="e", duration_s=duration, seed=2)
        )
        fwd_ua = forwarder.nodes[1].current_ua  # 3 connections, mid-tree
        return coord_ua, sub_ua, fwd_ua

    coord_ua, sub_ua, fwd_ua = run_once(measure)

    coin = model.forwarder_battery_life_coin_cell(123.0)
    li_ion = model.forwarder_battery_life_li_ion(123.0)
    rows = [
        ["charge / event, coordinator [uC]", "2.3", "2.3 (calibration)"],
        ["charge / event, subordinate [uC]", "2.6", "2.6 (calibration)"],
        ["idle connection @75 ms, coordinator [uA]", "30.7",
         f"{model.idle_connection_current_ua(0.075, Role.COORDINATOR):.1f} "
         f"(simulated: {coord_ua:.1f})"],
        ["idle connection @75 ms, subordinate [uA]", "34.7",
         f"{model.idle_connection_current_ua(0.075, Role.SUBORDINATE):.1f} "
         f"(simulated: {sub_ua:.1f})"],
        ["loaded 3-connection forwarder [uA]", "123", f"simulated: {fwd_ua:.0f}"],
        ["coin cell (230 mAh) @ 123+15 uA", "69 days", f"{coin.days:.0f} days"],
        ["18650 (2500 mAh) @ 123+15 uA", ">2 years", f"{li_ion.years:.2f} years"],
        ["beacon, 31 B @ 1 s [uA]", "12", f"{model.beacon_current_ua(1.0):.1f}"],
        ["IP-over-BLE CoAP sender @ 1 s [uA]", "16", "16.0 (calibration fit)"],
    ]
    print(format_table(["quantity", "paper", "this model"], rows))

    assert model.idle_connection_current_ua(0.075, Role.COORDINATOR) == pytest.approx(30.7, abs=0.1)
    assert model.idle_connection_current_ua(0.075, Role.SUBORDINATE) == pytest.approx(34.7, abs=0.1)
    assert coord_ua == pytest.approx(30.7, rel=0.03)
    assert sub_ua == pytest.approx(34.7, rel=0.03)
    assert coin.days == pytest.approx(69, abs=1)
    assert 2.0 < li_ion.years < 2.2
    # the simulated forwarder should land in the same decade as the paper's
    # 123 uA (its exact traffic mix differs)
    assert 50 < fwd_ua < 400
