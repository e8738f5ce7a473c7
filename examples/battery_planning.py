#!/usr/bin/env python3
"""Battery planning for a BLE mesh deployment (paper §5.4 + §8).

Uses the energy model calibrated to the paper's Power Profiler measurements
to answer a deployment question: *how long does a battery-powered IP-over-
BLE forwarder last, as a function of the connection interval?*  It also
reproduces the paper's beacon-versus-IP-over-BLE comparison and validates
the model against a short simulation of an actual forwarding node.

Run with::

    python examples/battery_planning.py
"""

from repro.ble.conn import Role
from repro.energy import EnergyModel, PAPER_CALIBRATION
from repro.exp.report import format_table
from repro import ExperimentConfig, run_experiment


def interval_sweep(model: EnergyModel) -> None:
    """§8's trade-off: larger intervals save energy but cost buffers/delay."""
    rows = []
    for interval_ms in (25, 50, 75, 100, 250, 500, 1000):
        interval_s = interval_ms / 1000
        # a forwarder like the paper's: subordinate on two links, coordinator
        # on one (three active connections, §5.4)
        current = 2 * model.idle_connection_current_ua(
            interval_s, Role.SUBORDINATE
        ) + model.idle_connection_current_ua(interval_s, Role.COORDINATOR)
        coin = model.forwarder_battery_life_coin_cell(current)
        li_ion = model.forwarder_battery_life_li_ion(current)
        rows.append(
            [
                interval_ms,
                f"{current:.1f}",
                f"{coin.days:.0f}",
                f"{li_ion.years:.2f}",
            ]
        )
    print(
        format_table(
            ["conn itvl [ms]", "BLE current [uA]", "coin cell [days]", "18650 [years]"],
            rows,
            title="=== idle 3-connection forwarder vs connection interval ===",
        )
    )


def beacon_comparison(model: EnergyModel) -> None:
    """§5.4: IP over BLE competes with plain beacons on energy."""
    beacon = model.beacon_current_ua(1.0)
    rows = [
        ["plain BLE beacon (31 B, 1 s)", f"{beacon:.1f}"],
        ["IP over BLE CoAP sender (1 s)", "16.0  (paper measurement)"],
    ]
    print()
    print(
        format_table(
            ["node type", "current above idle [uA]"],
            rows,
            title="=== beacon vs IP-over-BLE (paper §5.4) ===",
        )
    )


def simulated_forwarder(model: EnergyModel) -> None:
    """Validate against simulation: measure a real forwarding node."""
    print("\nsimulating 120 s of the paper's moderate-load tree ...")
    result = run_experiment(ExperimentConfig(name="energy", duration_s=120, seed=2))
    rows = []
    for node_id in (0, 1, 4, 10):  # root, forwarders, leaf
        # averaged over the whole run, warm-up and drain included
        current = result.nodes[node_id].current_ua
        life = model.forwarder_battery_life_coin_cell(current)
        role = (
            "consumer/root"
            if node_id == 0
            else ("leaf" if node_id >= 10 else "forwarder")
        )
        rows.append([node_id, role, f"{current:.1f}", f"{life.days:.0f}"])
    print(
        format_table(
            ["node", "role", "BLE current [uA]", "coin cell [days]"],
            rows,
            title="=== measured from simulation (moderate load, 75 ms) ===",
        )
    )
    print(
        f"\n(idle board adds {PAPER_CALIBRATION.idle_board_current_ua:.0f} uA; "
        "paper's worked example: 123 uA forwarder -> 69 days)"
    )


def main() -> None:
    model = EnergyModel()
    interval_sweep(model)
    beacon_comparison(model)
    simulated_forwarder(model)


if __name__ == "__main__":
    main()
