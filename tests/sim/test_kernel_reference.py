"""The kernel vs a naive reference heap kernel: identical dispatch.

Dispatch order must stay strictly ``(when, seq)`` -- byte-identical traces
depend on it.  These property-style tests drive the same randomized
schedule/cancel/recurring/run workload through :class:`repro.sim.kernel.
Simulator` and through a deliberately naive single-heap kernel, and assert
the two dispatch logs, clocks, and pending counts never diverge.

The reference kernel and the workload live in ``tests/support/lockstep.py``
(shared with the spatial-medium differential suite).
"""

import random

import pytest

from repro.sim.kernel import Simulator
from tests.support.lockstep import (
    LONG_NS,
    ReferenceKernel,
    TimerWorkload,
    assert_logs_identical,
)


@pytest.mark.parametrize("seed", range(12))
def test_kernel_matches_reference_heap(seed):
    """Same workload, same dispatch log, clock, and pending count."""
    kernel = TimerWorkload(Simulator(), seed)
    ref = TimerWorkload(ReferenceKernel(), seed)
    kernel_log = kernel.play()
    ref_log = ref.play()
    assert_logs_identical(kernel_log, ref_log, "kernel", "reference")
    assert kernel.sim.now == ref.sim.now
    assert kernel.sim.pending() == ref.sim.pending()
    assert len(kernel_log) > 100  # the workload must actually exercise things


@pytest.mark.parametrize("seed", range(12, 18))
def test_kernel_matches_reference_under_horizon_runs(seed):
    """Short run horizons that often stop between two distant events."""
    rng = random.Random(seed)
    sim = Simulator()
    ref = ReferenceKernel()
    log_a, log_b = [], []
    for i in range(150):
        when = rng.randrange(0, 5 * LONG_NS)
        sim.at(when, log_a.append, (when, i))
        ref.at(when, log_b.append, (when, i))
    horizon = 0
    while horizon < 5 * LONG_NS:
        horizon += rng.randrange(1, LONG_NS)
        sim.run(until=horizon)
        ref.run(until=horizon)
        assert sim.now == ref.now
        assert_logs_identical(log_a, log_b, "kernel", "reference")
    sim.run()
    ref.run()
    assert_logs_identical(log_a, log_b, "kernel", "reference")
    assert len(log_a) == 150
