"""Tests for the parallel sharded experiment engine.

The key property: the engine is a pure speed/robustness layer.  Worker
count, cache state, and completion order must never change a single
metric, because every run is a deterministic function of its config.
"""

import json
import os

import pytest

from repro.exp import ExperimentConfig, run_experiment
from repro.exp.parallel import ParallelEngine, run_grid
from repro.exp.repeat import run_repetitions

SHORT = dict(duration_s=10.0, warmup_s=4.0, drain_s=3.0)


def _grid_configs():
    """2 configs x 2 seeds of small-but-real experiments."""
    return [
        ExperimentConfig(name=f"par-{spec}", conn_interval=spec, seed=seed, **SHORT)
        for spec in ("75", "[65:85]")
        for seed in (1, 2)
    ]


def _metrics_blob(results):
    """A byte-exact serialization of everything the benches aggregate."""
    return json.dumps(
        [
            {
                "sent": r.coap_sent(),
                "acked": r.coap_acked(),
                "rtts": r.rtts_s(),
                "ll_pdr": r.link_pdr_overall(),
                "losses": r.connection_losses(),
                "per_producer": r.coap_pdr_per_producer(),
                "currents": r.fleet_current_ua(),
            }
            for r in results
        ],
        sort_keys=True,
    )


# -- crash/failure injection (module-level: must survive pickling) ----------

def _raise_for_marked(config):
    if config.name.startswith("boom"):
        raise RuntimeError(f"injected failure for {config.name}")
    return run_experiment(config)


def _hard_exit_for_marked(config):
    if config.name.startswith("boom"):
        os._exit(17)  # simulates a segfaulting worker: no exception, no result
    return run_experiment(config)


class TestDeterminismUnderSharding:
    def test_serial_and_parallel_runs_are_byte_identical(self):
        configs = _grid_configs()
        serial, serial_stats = run_grid(configs, max_workers=1)
        parallel, parallel_stats = run_grid(configs, max_workers=4)
        assert all(o.ok for o in serial)
        assert all(o.ok for o in parallel)
        assert serial_stats.executed == parallel_stats.executed == len(configs)
        assert _metrics_blob([o.result for o in serial]) == _metrics_blob(
            [o.result for o in parallel]
        )

    def test_outcomes_keep_input_order(self):
        configs = _grid_configs()
        outcomes, _ = run_grid(configs, max_workers=4)
        assert [o.config.seed for o in outcomes] == [c.seed for c in configs]
        assert [o.config.name for o in outcomes] == [c.name for c in configs]


class TestCrashRobustness:
    def test_raising_worker_is_retried_then_reported(self):
        configs = [
            ExperimentConfig(name="ok-1", seed=1, **SHORT),
            ExperimentConfig(name="boom", seed=2, **SHORT),
            ExperimentConfig(name="ok-2", seed=3, **SHORT),
        ]
        engine = ParallelEngine(
            max_workers=2, max_attempts=2, run_fn=_raise_for_marked
        )
        outcomes = engine.run(configs)
        ok, boom, ok2 = outcomes
        assert ok.ok and ok2.ok
        assert not boom.ok
        assert boom.attempts == 2
        assert "injected failure" in boom.error
        assert engine.stats.retries == 1
        assert engine.stats.failures == 1

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="hard-crash injection needs fork",
    )
    def test_dying_worker_is_retried_then_reported(self):
        configs = [
            ExperimentConfig(name="boom", seed=1, **SHORT),
            ExperimentConfig(name="ok", seed=2, **SHORT),
        ]
        engine = ParallelEngine(
            max_workers=2, max_attempts=3, run_fn=_hard_exit_for_marked
        )
        outcomes = engine.run(configs)
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 3
        assert "exit code 17" in outcomes[0].error
        assert outcomes[1].ok

    def test_inline_path_retries_too(self):
        configs = [ExperimentConfig(name="boom", seed=1, **SHORT)]
        engine = ParallelEngine(
            max_workers=1, max_attempts=2, run_fn=_raise_for_marked
        )
        outcomes = engine.run(configs)
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 2
        assert engine.stats.retries == 1


class TestCacheIntegration:
    def test_second_run_is_all_hits_with_identical_metrics(self, tmp_path):
        configs = _grid_configs()
        cold, cold_stats = run_grid(configs, max_workers=2, cache_dir=tmp_path)
        warm, warm_stats = run_grid(configs, max_workers=2, cache_dir=tmp_path)
        assert cold_stats.cache_hits == 0
        assert cold_stats.executed == len(configs)
        assert warm_stats.cache_hits == len(configs)
        assert warm_stats.executed == 0
        assert all(o.cached for o in warm)
        assert _metrics_blob([o.result for o in cold]) == _metrics_blob(
            [o.result for o in warm]
        )

    def test_cache_works_on_inline_path(self, tmp_path):
        configs = _grid_configs()[:1]
        run_grid(configs, max_workers=1, cache_dir=tmp_path)
        warm, stats = run_grid(configs, max_workers=1, cache_dir=tmp_path)
        assert warm[0].cached
        assert stats.cache_hits == 1


class TestTimeout:
    def test_overdue_worker_is_terminated_and_reported(self):
        import time as _time

        configs = [ExperimentConfig(name="boom-slow", seed=1, **SHORT)]
        engine = ParallelEngine(
            max_workers=2,
            max_attempts=1,
            timeout_s=0.5,
            run_fn=_sleep_forever,
        )
        started = _time.monotonic()
        outcomes = engine.run(configs)
        assert _time.monotonic() - started < 10  # did not hang
        assert not outcomes[0].ok
        assert "timed out" in outcomes[0].error


def _sleep_forever(config):
    import time

    time.sleep(60)


class TestProgressAndRepeat:
    def test_progress_callback_sees_lifecycle(self, tmp_path):
        events = []
        configs = _grid_configs()[:2]
        engine = ParallelEngine(
            max_workers=2, cache=tmp_path, progress=events.append
        )
        engine.run(configs)
        kinds = [e.kind for e in events]
        assert kinds.count("start") == 2
        assert kinds.count("done") == 2
        engine2 = ParallelEngine(
            max_workers=2, cache=tmp_path, progress=events.append
        )
        engine2.run(configs)
        assert [e.kind for e in events[len(kinds):]] == ["cache-hit", "cache-hit"]

    def test_run_repetitions_parallel_matches_serial(self, tmp_path):
        config = ExperimentConfig(name="rep", seed=3, **SHORT)
        serial = run_repetitions(config, n=3)
        parallel = run_repetitions(
            config, n=3, max_workers=4, cache_dir=tmp_path
        )
        assert [r.config.seed for r in serial.results] == [
            r.config.seed for r in parallel.results
        ]
        assert serial.coap_pdr_mean() == parallel.coap_pdr_mean()
        assert serial.link_pdr_mean() == parallel.link_pdr_mean()
        assert serial.total_connection_losses() == parallel.total_connection_losses()
        assert serial.rtt_percentile(0.5) == parallel.rtt_percentile(0.5)
