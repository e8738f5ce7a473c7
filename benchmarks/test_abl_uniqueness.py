"""Ablation: §6.3's uniqueness enforcement versus plain randomization.

The paper's mitigation is not *just* "pick a random interval": the
coordinator regenerates until the interval is unique among its own
connections, and the subordinate closes fresh connections that collide with
its existing ones.  With a narrow window, plain randomization still
produces same-interval pairs on a node -- and those shade exactly like the
static configuration.

Narrow [74:76] windows + accelerated drift make the difference visible in
a short run.
"""

from repro.exp import ExperimentConfig, ExperimentRunner
from repro.exp.report import format_table

from conftest import banner, scaled


def run_variant(unique: bool, duration_s: float, seeds=(1, 2, 3)):
    losses = 0
    collisions_present = 0
    for seed in seeds:
        config = ExperimentConfig(
            name=f"uniq-{unique}-{seed}",
            conn_interval="[74:76]",  # three 1.25 ms slots: collisions likely
            duration_s=duration_s,
            seed=seed,
            drift_ppm_span=40.0,  # accelerate anchor wraps into the run
        )
        runner = ExperimentRunner(config)
        if not unique:
            # strip both §6.3 enforcement mechanisms
            original = runner._build_ble

            def build():
                net = original()
                for node in net.nodes:
                    node.statconn.config.interval_policy.unique = False
                    node.statconn.config.reject_interval_collisions = False
                return net

            runner._build_ble = build
        result = runner.run()
        losses += result.num_connection_losses()
        for node in runner.network.nodes:
            intervals = node.controller.used_intervals_ns()
            if len(set(intervals)) != len(intervals):
                collisions_present += 1
    return losses, collisions_present


def test_abl_uniqueness_enforcement(run_once):
    banner("Ablation: interval uniqueness enforcement", "paper §6.3 design choice")
    duration = scaled(600)
    with_unique, without_unique = run_once(
        lambda: (run_variant(True, duration), run_variant(False, duration))
    )
    print(format_table(
        ["variant", "connection losses (3 runs)", "nodes with colliding intervals"],
        [
            ["unique + subordinate reject (paper)", with_unique[0], with_unique[1]],
            ["plain random draw", without_unique[0], without_unique[1]],
        ],
        title="(narrow [74:76] ms window, accelerated drift)",
    ))
    assert with_unique[1] == 0, "enforced uniqueness must hold everywhere"
    assert without_unique[1] > 0, "plain draws must collide in a 3-slot window"
    assert without_unique[0] > with_unique[0], (
        "colliding intervals must translate into shading losses"
    )
