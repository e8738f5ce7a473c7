"""Figure 14: connection-loss distribution across interval configurations.

The paper runs every static interval {25, 50, 75, 100, 500} ms and every
randomized window {[15:35], [40:60], [65:85], [90:110], [490:510]} ms for
5x1 h at a 1 s producer interval, counting BLE connection losses.  The
static columns lose connections; the randomized columns (grey in the
paper's plot) essentially never do.

Base duration: 2 seeds x 900 s per configuration (paper: 5 x 3600 s).
"""

from repro.exp import ExperimentConfig
from repro.exp.report import format_table

from conftest import banner, run_configs, scaled

STATIC = ("25", "50", "75", "100", "500")
RANDOM = ("[15:35]", "[40:60]", "[65:85]", "[90:110]", "[490:510]")


def run_grid(duration_s: float, seeds=(1, 2)):
    keys = [(spec, seed) for spec in STATIC + RANDOM for seed in seeds]
    configs = [
        ExperimentConfig(
            name=f"fig14-{spec}-{seed}",
            conn_interval=spec,
            duration_s=duration_s,
            seed=seed,
        )
        for spec, seed in keys
    ]
    losses = dict.fromkeys(STATIC + RANDOM, 0)
    for (spec, _), result in zip(keys, run_configs(configs)):
        losses[spec] += result.num_connection_losses()
    return losses


def test_fig14_connection_loss_distribution(run_once):
    banner("Figure 14: connection losses vs interval configuration",
           "paper §6.3, Fig. 14")
    duration = scaled(900)
    losses = run_once(run_grid, duration)

    rows = [[spec, "static" if spec in STATIC else "random", losses[spec]]
            for spec in STATIC + RANDOM]
    print(format_table(
        ["interval [ms]", "kind", "connection losses"],
        rows,
        title="(paper: static columns lose up to ~20 per 5 h; random ~0)",
    ))

    static_total = sum(losses[s] for s in STATIC)
    random_total = sum(losses[r] for r in RANDOM)
    print(f"\ntotals: static={static_total}, randomized={random_total}")
    assert static_total > 0, "static intervals must lose connections"
    assert random_total < static_total, (
        "randomized windows must lose (far) fewer connections than static"
    )
    # the paper's random columns are almost always zero; allow the odd loss
    # from non-shading causes under the smallest window
    assert random_total <= max(2, static_total // 3)
