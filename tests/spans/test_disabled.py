"""Spans must be free when off and invisible when on.

Two halves of the observability contract:

* **Invisible when on** -- span collection draws no randomness, schedules
  no timers, and changes no wire bytes, so enabling it must leave the
  committed golden *trace* of the 3-hop line byte-identical.  (The
  spans-off direction is covered by ``tests/trace/test_golden.py``
  itself, which runs the same scenario without spans on every CI pass.)
* **Free when off** -- the disabled path is a single predicate per seam
  (``SPANS.enabled``), cheap enough to sit in the BLE exchange loop.
  :class:`TestDisabledPathOverhead` holds it to the <2 % bar on the
  Fig. 8a cell; CI's ``journeys`` job runs it on its own.
"""

import dataclasses
import statistics
from pathlib import Path
from time import perf_counter

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_experiment
from repro.spans.hub import SPANS, SpanHub
from repro.trace.sinks import records_to_jsonl

TRACE_GOLDEN = (
    Path(__file__).resolve().parents[1] / "trace" / "golden" / "trace_3hop.jsonl"
)

#: tests/trace/test_golden.py's pinned 3-hop scenario, plus spans.
THREE_HOP_WITH_SPANS = ExperimentConfig(
    name="golden-3hop",
    topology="line",
    n_nodes=4,
    duration_s=2.0,
    warmup_s=1.0,
    drain_s=0.5,
    producer_interval_s=0.5,
    seed=11,
    drift_ppms=(0.0, 1.5, -2.0, 0.5),
    trace=True,
    trace_layers="sixlo,ip,coap",
    spans=True,
)


class TestSpansDoNotPerturbTheRun:
    def test_golden_trace_byte_identical_with_spans_on(self):
        result = run_experiment(THREE_HOP_WITH_SPANS)
        assert result.spans is not None
        assert result.spans["summary"]["journeys"] > 0
        document = records_to_jsonl(result.trace_records)
        assert document == TRACE_GOLDEN.read_text(), (
            "enabling spans changed the golden trace: span hooks must not "
            "draw randomness, schedule timers, or alter wire behaviour"
        )

    def test_spans_off_run_carries_no_payload(self):
        config = ExperimentConfig(
            name="no-spans",
            topology="line",
            n_nodes=2,
            duration_s=2.0,
            warmup_s=1.0,
            drain_s=0.5,
            producer_interval_s=0.5,
            seed=7,
        )
        result = run_experiment(config)
        assert result.spans is None
        assert not SPANS.enabled


class TestDisabledGuardIsCheap:
    def test_disabled_guard_is_cheap(self):
        # mirrors tests/trace/test_tracer.py: 200k guarded no-ops must be
        # far under any per-run noise floor.  The guard is attribute
        # access plus a branch -- the same shape the hot seams use.
        assert not SPANS.enabled
        hub = SPANS
        start = perf_counter()
        for _ in range(200_000):
            if hub.enabled:  # pragma: no cover - never taken
                hub.drop("never")
        elapsed = perf_counter() - start
        assert elapsed < 0.5, f"disabled guard took {elapsed:.3f}s"


# -- the interleaved A/B overhead gate -------------------------------------

#: The Fig. 8a cell the gate times: the 4-node line at the paper's
#: default 75 ms interval, cut to a CI-sized duration.
AB_CELL = ExperimentConfig(
    name="journeys-ab",
    topology="line",
    n_nodes=4,
    duration_s=20.0,
    warmup_s=3.0,
    drain_s=2.0,
    producer_interval_s=1.0,
    seed=7,
)

#: Measured interleaved repetitions (after one discarded warmup).
AB_REPEATS = 5

#: Tolerated disabled-path overhead, as a fraction of the run's wall time.
AB_BAR = 0.02

#: Iterations per guard-cost microbatch: long enough that one batch takes
#: milliseconds (resolvable), short enough to interleave many batches.
GUARD_LOOP = 200_000


def _bare_batch(n):
    """A: the reference loop body without the guard."""
    t0 = perf_counter()
    x = 0
    for _ in range(n):
        x += 1
    return perf_counter() - t0


def _guarded_batch(n, hub):
    """B: the same body behind the seam shape -- attribute read + branch."""
    t0 = perf_counter()
    x = 0
    for _ in range(n):
        if hub.enabled:
            x -= 1  # pragma: no cover - hub stays disabled
        x += 1
    return perf_counter() - t0


class _CountingHub(SpanHub):
    """Class-swap shim: counts ``enabled`` reads while staying disabled."""

    __slots__ = ()
    reads = 0

    @property
    def enabled(self):
        _CountingHub.reads += 1
        return False


def _count_guard_reads(cfg, run=run_experiment):
    """Exactly how many ``SPANS.enabled`` predicates one run evaluates."""
    _CountingHub.reads = 0
    SPANS.__class__ = _CountingHub
    try:
        run(cfg)
    finally:
        SPANS.__class__ = SpanHub
    return _CountingHub.reads


class TestAbCheck:
    def test_guard_count_is_positive_and_class_restored(self):
        cfg = dataclasses.replace(
            AB_CELL, duration_s=3.0, warmup_s=1.0, drain_s=0.5
        )
        reads = _count_guard_reads(cfg)
        assert reads > 0, "no seam evaluated SPANS.enabled"
        assert type(SPANS) is SpanHub  # the shim must never leak
        assert not SPANS.enabled

    def test_counting_shim_restored_even_on_error(self):
        def boom(cfg):
            raise RuntimeError("injected")

        with pytest.raises(RuntimeError):
            _count_guard_reads(AB_CELL, run=boom)
        assert type(SPANS) is SpanHub

    def test_disabled_path_overhead_under_the_bar(self):
        """Estimate what a spans-off run pays for the instrumentation.

        The guard-free code does not exist, so a naive run A/B cannot time
        the instrumentation.  The estimate multiplies three measurables:

        * **per-guard cost** -- interleaved A (bare loop) / B (guarded loop)
          microbatches; interleaving ABAB... cancels machine-state drift,
          and B - A is the cost of one ``SPANS.enabled`` read + branch;
        * **guard count** -- the exact number of ``enabled`` predicates
          the cell evaluates, counted by :func:`_count_guard_reads`;
        * **run wall time** -- the spans-off run's median wall seconds,
          timed in the same interleaved schedule, as the denominator.

        ``guard count * per-guard cost / wall time`` must stay under the
        bar.  The first repetition is a discarded warmup (one-time import
        and allocator costs).
        """
        guard_reads = _count_guard_reads(AB_CELL)
        wall, per_guard = [], []
        for rep in range(AB_REPEATS + 1):
            t0 = perf_counter()
            run_experiment(AB_CELL)
            run_s = perf_counter() - t0
            bare = _bare_batch(GUARD_LOOP)
            guarded = _guarded_batch(GUARD_LOOP, SPANS)
            if rep == 0:
                continue  # warmup
            wall.append(run_s)
            per_guard.append(max(0.0, (guarded - bare) / GUARD_LOOP))
        guard_s = statistics.median(per_guard)
        overhead = guard_reads * guard_s / statistics.median(wall)
        report = (
            f"disabled-path overhead {overhead * 100:.3f}% "
            f"(bar {AB_BAR * 100:.0f}%): {guard_reads} guards x "
            f"{guard_s * 1e9:.1f}ns over a median "
            f"{statistics.median(wall):.3f}s run, {AB_REPEATS} repeats"
        )
        print(report)
        assert overhead < AB_BAR, report
