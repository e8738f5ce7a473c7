"""Simulator benchmark: wall-clock cost of one experiment, layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload line --seed 1 --seconds 25 --trace 0

One *operation* is one complete experiment (``repro.exp.runner.
run_experiment``: build the network, simulate, collect results) of the
chosen workload, configured from ``--seed``.  The benchmark repeats it
for ``--seconds`` and prints, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics:

* ``run_ms`` -- median wall-clock of one experiment;
* ``setup_s`` -- median time to build the network and install the
  traffic, i.e. from the call until the kernel's event loop starts.

``--trace 1`` instead runs under a sampling profiler (see ``layers.py``)
and reports each layer's self time per experiment, the share of the run
the named layers cover, and per-layer work counts.

Both times are rescaled to a fixed machine speed.  The host is shared,
and its speed drifts by tens of percent over minutes, so each experiment
is paired with a reference kernel (``reference.py``: a fixed miniature
event-driven network that no change to the simulator touches) timed
right before and after it.  A time is reported as ``raw * (REF_NOMINAL_S
/ reference) ** REF_EXPONENT``: what it would read on a machine where
the reference takes ``REF_NOMINAL_S``.  The raw medians and the
reference reading are printed on the line above the JSON.

Every experiment of one invocation uses the same configuration, so every
one must produce the same outputs (checked by digest), and each is checked
against the workload's invariants: requests, acknowledgements and the
consumer's count must agree, and on the lossless workloads -- the paper's
randomized-interval configurations -- every CoAP request is acknowledged.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from reference import reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Reference-kernel time the reported times are rescaled to (seconds).
REF_NOMINAL_S = 0.03

#: How strongly simulator time follows reference time: across two
#: 20-minute stretches of host drift (40 invocations each), the spread of
#: rescaled run times was lowest near 0.75 on every workload (worst case
#: 0.074 of the median, against 0.11 at 1.0 and 0.32 unscaled).
REF_EXPONENT = 0.75

#: Fewest timed experiments per invocation, even past ``--seconds``.
MIN_RUNS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark input: an experiment configuration and its checks."""

    why: str
    config: dict
    #: Every CoAP request must be acknowledged.
    lossless: bool


WORKLOADS: Dict[str, Workload] = {
    "line": Workload(
        why="4-node line, static 75 ms interval: the multi-hop data path "
            "(BLE link layer, L2CAP, 6LoWPAN/IP forwarding, CoAP)",
        config=dict(topology="line", n_nodes=4, duration_s=30.0,
                    warmup_s=3.0, drain_s=2.0),
        lossless=True,
    ),
    "tree": Workload(
        why="the paper's 15-node tree, randomized [65:85] ms intervals: "
            "fan-in, routers keeping up to three connections",
        config=dict(topology="tree", n_nodes=15, conn_interval="[65:85]",
                    duration_s=20.0, warmup_s=5.0, drain_s=2.0),
        lossless=True,
    ),
    "mesh": Workload(
        why="8 nodes self-forming (dynconn + RPL): advertising, scanning "
            "and the routing control plane next to the data",
        config=dict(topology="dynamic", n_nodes=8, conn_interval="[65:85]",
                    duration_s=20.0, warmup_s=30.0, drain_s=2.0),
        lossless=True,
    ),
    "grid": Workload(
        why="49 nodes on a 7x7 grid, statconn over the radio graph's BFS "
            "tree, randomized [65:85] ms: range-gated medium, up to 6 hops, "
            "48 producers",
        config=dict(topology="grid", n_nodes=49, conn_interval="[65:85]",
                    duration_s=10.0, warmup_s=5.0, drain_s=2.0),
        lossless=True,
    ),
}


# -- one experiment ---------------------------------------------------------

class KernelHook:
    """Wraps ``Simulator.run`` to see when the event loop starts and how
    many events it dispatches; everything before it is set-up."""

    def __init__(self, simulator_cls) -> None:
        self.entered: Optional[float] = None
        self.events = 0
        original = simulator_cls.run

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            if self.entered is None:
                self.entered = time.perf_counter()
            executed = original(sim, *args, **kwargs)
            self.events += executed
            return executed

        simulator_cls.run = run

    def reset(self) -> None:
        self.entered = None
        self.events = 0


@dataclass
class Sample:
    """Raw wall times of one experiment and the reference around it."""

    run_s: float
    setup_s: float
    ref_s: float

    @property
    def scale(self) -> float:
        """Factor that rescales this sample's times to the nominal speed."""
        return (REF_NOMINAL_S / self.ref_s) ** REF_EXPONENT


def digest(result, events: int) -> tuple:
    """Outputs that must repeat exactly for the same configuration."""
    links = sorted(
        (key, direction, series.tx_attempts[-1], series.tx_acked[-1])
        for (key, direction), series in result.link_series.items()
        if series.tx_attempts
    )
    return (
        events,
        result.coap_sent(),
        result.coap_acked(),
        result.consumer.total_requests,
        tuple(result.rtts_s()),
        tuple(links),
        result.num_connection_losses(),
    )


def check(result, workload: Workload) -> List[str]:
    """Invariants every experiment's outputs must satisfy."""
    sent, acked = result.coap_sent(), result.coap_acked()
    served = result.consumer.total_requests
    rtts = result.rtts_s()
    problems = []
    if sent == 0 or acked == 0:
        problems.append(f"no traffic: {sent} requests, {acked} acks")
    if not acked <= served <= sent:
        problems.append(
            f"counts disagree: {sent} sent, {served} served, {acked} acked"
        )
    if len(rtts) != acked or any(rtt <= 0 for rtt in rtts):
        problems.append(f"{len(rtts)} round-trip samples for {acked} acks")
    if workload.lossless and acked != sent:
        problems.append(f"{sent - acked} of {sent} CoAP requests lost")
    if not 0.0 < result.link_pdr_overall() <= 1.0:
        problems.append("link-layer delivery ratio out of range")
    return problems


def repeat_for(seconds: float) -> Iterator[int]:
    """Count experiments until ``seconds`` have passed, but at least
    ``MIN_RUNS`` of them."""
    deadline = time.perf_counter() + seconds
    for n in itertools.count():
        if n >= MIN_RUNS and time.perf_counter() >= deadline:
            return
        yield n


class Bench:
    """Runs one workload repeatedly and keeps score."""

    def __init__(self, workload: Workload, seed: int) -> None:
        from repro.exp.config import ExperimentConfig
        from repro.exp.runner import run_experiment
        from repro.sim import Simulator

        self.workload = workload
        self.config = ExperimentConfig(
            name="perfbench", seed=seed, **workload.config
        )
        self._run_experiment = run_experiment
        self.hook = KernelHook(Simulator)
        self.attempted = 0
        self.failed = 0
        self.expected: Optional[tuple] = None
        #: The last good experiment's result and its kernel event count.
        self.last: Optional[tuple] = None

    def run(self, sampler=None) -> Optional[Tuple[float, float]]:
        """One checked experiment; ``(run_s, setup_s)`` or ``None`` if it
        failed.  ``sampler`` is armed only while the experiment runs."""
        gc.collect()
        self.attempted += 1
        self.hook.reset()
        try:
            if sampler is not None:
                sampler.start()
            try:
                t0 = time.perf_counter()
                result = self._run_experiment(self.config)
                t1 = time.perf_counter()
            finally:
                if sampler is not None:
                    sampler.stop()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems = check(result, self.workload)
        got = digest(result, self.hook.events)
        if self.expected is None:
            self.expected = got
        elif got != self.expected:
            problems.append("outputs differ from the first run of this seed")
        if self.hook.entered is None:
            problems.append("the kernel's event loop never ran")
        if problems:
            print("FAILED: " + "; ".join(problems), file=sys.stderr)
            self.failed += 1
            return None
        self.last = (result, self.hook.events)
        return t1 - t0, self.hook.entered - t0

    def timed(self, seconds: float) -> List[Sample]:
        """Experiments for ``seconds``, each between reference readings."""
        reference_seconds()
        self.run()  # warm-up: lazy imports and tables, first digest
        samples = []
        before = reference_seconds()
        for _ in repeat_for(seconds):
            times = self.run()
            after = reference_seconds()
            if times is not None:
                samples.append(Sample(times[0], times[1], (before + after) / 2))
            before = after
        return samples

    def traced(self, seconds: float, sampler) -> Tuple[int, float]:
        """Experiments for ``seconds`` under ``sampler``; returns the number
        of traced experiments and their total wall time."""
        self.run()
        runs, wall = 0, 0.0
        for _ in repeat_for(seconds):
            times = self.run(sampler)
            if times is not None:
                runs += 1
                wall += times[0]
        return runs, wall


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float) -> Optional[Dict[str, dict]]:
    samples = bench.timed(seconds)
    if not samples:
        return None
    run_ms = statistics.median(s.run_s * s.scale * 1000 for s in samples)
    setup_s = statistics.median(s.setup_s * s.scale for s in samples)
    raw_run, raw_setup, ref = (
        statistics.median(getattr(s, f) for s in samples)
        for f in ("run_s", "setup_s", "ref_s")
    )
    print(
        f"{len(samples)} runs: raw run {raw_run * 1000:.2f} ms, raw setup "
        f"{raw_setup * 1000:.3f} ms, reference {ref * 1000:.3f} ms"
    )
    return {"run_ms": metric(run_ms, "ms"), "setup_s": metric(setup_s, "s")}


def per_layer(bench: Bench, seconds: float) -> Optional[Dict[str, dict]]:
    from layers import LAYERS, LayerSampler

    sampler = LayerSampler(str(SRC / "repro"))
    runs, wall = bench.traced(seconds, sampler)
    if runs == 0:
        return None
    layer_s = sampler.seconds()
    metrics = {
        f"{layer}_ms": metric(layer_s[layer] / runs * 1000, "ms")
        for layer in LAYERS
    }
    covered = sum(layer_s[layer] for layer in LAYERS)
    metrics["coverage_pct"] = metric(100.0 * covered / wall, "%")
    result, events = bench.last
    links = [s for s in result.link_series.values() if s.tx_attempts]
    metrics.update({
        "kernel_events": metric(events, "count"),
        "ll_tx_pdus": metric(sum(s.tx_attempts[-1] for s in links), "count"),
        "ll_acked_pdus": metric(sum(s.tx_acked[-1] for s in links), "count"),
        "coap_acks": metric(result.coap_acked(), "count"),
    })
    print(
        f"{runs} traced runs, {wall:.3f} s wall: "
        + ", ".join(f"{k} {v / wall * 100:.1f}%" for k, v in layer_s.items())
    )
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simulator source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = Bench(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics = per_layer(bench, args.seconds)
    else:
        metrics = end_to_end(bench, args.seconds)
    if metrics is None:
        print("every experiment failed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
