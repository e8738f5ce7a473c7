"""Shared helpers for the figure/table reproduction benches.

Every bench simulates a *scaled-down* version of the paper's runtime (the
paper uses 1-hour runs repeated five times, plus two 24-hour runs; a pure
Python simulator reproduces the same dynamics in minutes).  Scale factors:

* each bench documents its base duration,
* ``REPRO_DURATION_SCALE`` (float, default 1.0) multiplies all of them, so
  ``REPRO_DURATION_SCALE=4 pytest benchmarks/`` runs closer to paper scale.

Benches use ``benchmark.pedantic(..., rounds=1)``: a run *is* the
measurement; repeating a deterministic simulation would only burn time.

Every bench that executes more than one independent run hands the list
to :func:`run_configs`, which runs it through
:class:`repro.exp.parallel.ParallelEngine` with

* ``REPRO_WORKERS`` (int, default 1) -- worker processes; >1 shards runs,
* ``REPRO_CACHE_DIR`` (path, default unset) -- on-disk result cache, so a
  re-run of the same bench replays instantly.

Both default to serial, uncached, in-process runs, and the engine is
deterministic per ``(config, seed)``, so the printed figures are identical
under any worker count.  The two ablations that patch
``ExperimentRunner._build_ble`` (interval uniqueness, collision action)
stay serial: the engine's work items are configs, and the patch is not a
config field.
"""

import os

import pytest


def duration_scale() -> float:
    """The global duration multiplier from the environment."""
    return float(os.environ.get("REPRO_DURATION_SCALE", "1.0"))


def run_configs(configs):
    """Run ``configs`` through the parallel engine and return their
    results in input order; raises if any run failed after retries."""
    from repro.exp.parallel import run_grid

    outcomes, stats = run_grid(
        configs,
        max_workers=int(os.environ.get("REPRO_WORKERS", "1")),
        cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
    )
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise RuntimeError(
            f"{len(failed)} of {len(outcomes)} runs failed, "
            f"first: {failed[0].error}"
        )
    print(f"[engine] {stats.summary()}")
    return [o.result for o in outcomes]


def scaled(seconds: float, minimum: float = 30.0) -> float:
    """Apply the global scale with a floor that keeps statistics meaningful."""
    return max(seconds * duration_scale(), minimum)


@pytest.fixture
def run_once(benchmark):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


def banner(title: str, paper_ref: str) -> None:
    """Print the bench header (figure/table id + scaling note)."""
    print()
    print("=" * 74)
    print(f"{title}   [{paper_ref}]  (duration scale x{duration_scale():g})")
    print("=" * 74)
