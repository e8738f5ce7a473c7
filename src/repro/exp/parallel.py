"""Parallel sharded experiment execution.

The paper's evaluation is embarrassingly parallel -- every figure is "N
configs x 5 seeds x 1 h" (Appendix B) -- and the simulator is strictly
deterministic, so runs can be sharded across a process pool and their
results cached without changing a single metric.  This module provides
:class:`ParallelEngine`:

* **Sharding** -- each ``(config, seed)`` work item runs in its own worker
  process (process-per-item: crash isolation is exact and a hung run can be
  killed without poisoning a pool); completed
  :class:`~repro.exp.runner.ExperimentResult`s (plain picklable data)
  stream back over pipes as they finish.
* **Caching** -- an optional :class:`~repro.exp.cache.ResultCache` is
  consulted before any process is spawned and fed after every successful
  run, so re-running a sweep replays instantly.
* **Robustness** -- a worker that raises, dies (non-zero exit), or exceeds
  the per-run timeout is retried up to ``max_attempts`` times, then
  reported in its :class:`RunOutcome` rather than raised or hung.
* **Observability** -- per-run wall time, cache hit/miss counters, and a
  ``progress`` callback the CLI uses for live status lines.
* **Fallback** -- with ``max_workers=1`` (or when the platform offers no
  usable ``multiprocessing`` start method) everything runs in-process with
  identical semantics, minus timeout enforcement.

Outcomes are returned in work-item order regardless of completion order,
so aggregation downstream is deterministic under any worker count.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as _mp_wait
from typing import Any, Callable, Deque, List, Optional, Sequence

from repro.exp.cache import CacheStats, ResultCache
from repro.exp.config import ExperimentConfig
from repro.exp.runner import ExperimentResult, run_experiment
from repro.obs.wallclock import monotonic

#: Default attempts per work item (1 initial + 1 retry).
DEFAULT_MAX_ATTEMPTS = 2


@dataclass
class RunOutcome:
    """What happened to one work item."""

    config: ExperimentConfig
    result: Optional[ExperimentResult] = None
    #: Served from the result cache (no process was spawned).
    cached: bool = False
    #: Execution attempts consumed (0 for cache hits).
    attempts: int = 0
    #: Wall-clock seconds of the successful attempt (parent-side clock).
    wall_time_s: float = 0.0
    #: Why the item ultimately failed, if it did.
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether a result was produced (from cache or execution)."""
        return self.result is not None


@dataclass
class ProgressEvent:
    """One engine life-cycle notification, fed to the progress callback.

    ``kind`` is one of ``cache-hit``, ``start``, ``done``, ``retry``,
    ``failed``; ``completed``/``total`` give overall sweep position.
    """

    kind: str
    index: int
    total: int
    completed: int
    config: ExperimentConfig
    attempt: int = 0
    wall_time_s: float = 0.0
    detail: str = ""


@dataclass
class EngineStats:
    """Counters for one :meth:`ParallelEngine.run` invocation."""

    items: int = 0
    executed: int = 0
    cache_hits: int = 0
    retries: int = 0
    failures: int = 0
    wall_time_s: float = 0.0
    #: Wall time of each successful execution (not cache hits).
    run_wall_s: List[float] = field(default_factory=list)
    #: Snapshot of the cache's own accounting (hits/misses/stores).
    cache: Optional[CacheStats] = None

    def summary(self) -> str:
        """One-line accounting, including the cache hit/miss counts."""
        parts = [
            f"{self.items} runs: {self.executed} executed, "
            f"{self.cache_hits} cache hits, {self.retries} retries, "
            f"{self.failures} failures, wall {self.wall_time_s:.2f}s"
        ]
        if self.cache is not None:
            parts.append(self.cache.summary())
        return "; ".join(parts)


class _Pending:
    """One queued work item (mutable attempt counter)."""

    __slots__ = ("index", "config", "attempts")

    def __init__(self, index: int, config: ExperimentConfig) -> None:
        self.index = index
        self.config = config
        self.attempts = 0


class _Active:
    """One in-flight worker process."""

    __slots__ = ("item", "proc", "conn", "started", "msg", "got_msg")

    def __init__(
        self,
        item: _Pending,
        proc: "mp.process.BaseProcess",
        conn: Connection,
        started: float,
    ) -> None:
        self.item = item
        self.proc = proc
        self.conn = conn
        self.started = started
        self.msg = None
        self.got_msg = False


def _worker_main(
    conn: Connection,
    run_fn: Callable[[ExperimentConfig], Any],
    config: ExperimentConfig,
) -> None:
    """Child entry point: run one item, ship (status, payload), exit."""
    try:
        status, payload = "ok", run_fn(config)
    except BaseException as exc:  # report, don't crash the interpreter
        status, payload = "error", f"{type(exc).__name__}: {exc}"
    try:
        conn.send((status, payload))
    except Exception as exc:
        # e.g. the result failed to pickle -- degrade to an error report
        try:
            conn.send(("error", f"result not sendable: {type(exc).__name__}: {exc}"))
        except Exception:
            pass
    finally:
        conn.close()


def _pick_context() -> Optional[mp.context.BaseContext]:
    """The cheapest available multiprocessing context, or ``None``.

    ``fork`` shares the already-imported simulator with workers for free;
    ``spawn`` works everywhere else.  ``None`` means run in-process.
    """
    methods = mp.get_all_start_methods()
    for method in ("fork", "spawn"):
        if method in methods:
            return mp.get_context(method)
    return None


class ParallelEngine:
    """Shards ``(config, seed)`` work items across a worker pool.

    :param max_workers: concurrent worker processes; ``None`` means the
        machine's CPU count; ``1`` runs everything in-process.
    :param cache: a :class:`ResultCache`, a cache directory path, or
        ``None`` to disable caching.
    :param timeout_s: per-run wall-clock limit; an overdue worker is
        terminated and the item retried (no limit when ``None``; not
        enforceable on the in-process path).
    :param max_attempts: total tries per item before it is reported failed.
    :param run_fn: the work function (must be picklable for ``spawn``);
        defaults to :func:`~repro.exp.runner.run_experiment`.
    :param progress: optional callback receiving :class:`ProgressEvent`s.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        cache: ResultCache | str | os.PathLike | None = None,
        timeout_s: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        run_fn: Callable[[ExperimentConfig], ExperimentResult] = run_experiment,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if max_workers is None:
            # simlint: allow-env -- stdlib-style default only; reproducible runs
            # pass an explicit max_workers (the CLI resolves REPRO_WORKERS).
            max_workers = os.cpu_count() or 1
        self.max_workers = max_workers
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.run_fn = run_fn
        self.progress = progress
        self.stats = EngineStats()

    # -- public API ---------------------------------------------------------

    def run(self, configs: Sequence[ExperimentConfig]) -> List[RunOutcome]:
        """Execute every config; outcomes come back in input order."""
        started = monotonic()
        self.stats = EngineStats(items=len(configs))
        outcomes: List[Optional[RunOutcome]] = [None] * len(configs)
        self._total = len(configs)
        self._completed = 0

        # cache pass: satisfied items never reach a worker
        pending: deque[_Pending] = deque()
        for index, config in enumerate(configs):
            hit = self.cache.get(config) if self.cache is not None else None
            if hit is not None:
                outcomes[index] = RunOutcome(config=config, result=hit, cached=True)
                self.stats.cache_hits += 1
                self._completed += 1
                self._emit("cache-hit", index, config)
            else:
                pending.append(_Pending(index, config))

        context = _pick_context() if self.max_workers > 1 else None
        if context is None:
            self._run_inline(pending, outcomes)
        else:
            self._run_pool(pending, outcomes, context)

        self.stats.wall_time_s = monotonic() - started
        if self.cache is not None:
            self.stats.cache = self.cache.stats
        return [o for o in outcomes if o is not None]

    # -- in-process fallback -------------------------------------------------

    def _run_inline(self, pending: deque, outcomes: List[Optional[RunOutcome]]) -> None:
        while pending:
            item = pending.popleft()
            item.attempts += 1
            self._emit("start", item.index, item.config, attempt=item.attempts)
            began = monotonic()
            try:
                result = self.run_fn(item.config)
            except BaseException as exc:
                self._handle_failure(
                    item, f"{type(exc).__name__}: {exc}", pending, outcomes
                )
                continue
            self._handle_success(item, result, monotonic() - began, outcomes)

    # -- worker-pool path ----------------------------------------------------

    def _run_pool(
        self,
        pending: "Deque[_Pending]",
        outcomes: List[Optional[RunOutcome]],
        context: mp.context.BaseContext,
    ) -> None:
        active: List[_Active] = []
        try:
            while pending or active:
                while pending and len(active) < self.max_workers:
                    active.append(self._spawn(pending.popleft(), context))
                self._wait_one(active, pending, outcomes)
        finally:
            for worker in active:  # only on unexpected error paths
                worker.proc.terminate()
                worker.proc.join()
                worker.conn.close()

    def _spawn(self, item: _Pending, context: mp.context.BaseContext) -> _Active:
        item.attempts += 1
        self._emit("start", item.index, item.config, attempt=item.attempts)
        parent_conn, child_conn = context.Pipe(duplex=False)
        proc = context.Process(
            target=_worker_main,
            args=(child_conn, self.run_fn, item.config),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # parent keeps only the read end
        return _Active(item, proc, parent_conn, monotonic())

    def _wait_one(
        self,
        active: List[_Active],
        pending: "Deque[_Pending]",
        outcomes: List[Optional[RunOutcome]],
    ) -> None:
        """Block until at least one worker produces, dies, or times out."""
        timeout = None
        if self.timeout_s is not None:
            now_s = monotonic()
            deadlines = [w.started + self.timeout_s for w in active]
            timeout = max(0.0, min(deadlines) - now_s)
        waitables = [w.conn for w in active if not w.got_msg]
        waitables += [w.proc.sentinel for w in active]
        ready = set(_mp_wait(waitables, timeout))

        now_s = monotonic()
        finished: List[_Active] = []
        for worker in active:
            if worker.conn in ready and not worker.got_msg:
                try:
                    worker.msg = worker.conn.recv()
                    worker.got_msg = True
                except (EOFError, OSError):
                    worker.got_msg = True  # closed without payload: a crash
            if worker.got_msg or worker.proc.sentinel in ready or not worker.proc.is_alive():
                finished.append(worker)
            elif (
                self.timeout_s is not None
                and now_s - worker.started > self.timeout_s
            ):
                worker.proc.terminate()
                worker.msg = (
                    "error",
                    f"timed out after {self.timeout_s:g}s (terminated)",
                )
                worker.got_msg = True
                finished.append(worker)

        for worker in finished:
            self._finalize(worker, pending, outcomes)
            active.remove(worker)

    def _finalize(
        self,
        worker: _Active,
        pending: "Deque[_Pending]",
        outcomes: List[Optional[RunOutcome]],
    ) -> None:
        # drain a message that raced with process exit
        if not worker.got_msg:
            try:
                if worker.conn.poll(0):
                    worker.msg = worker.conn.recv()
                    worker.got_msg = True
            except (EOFError, OSError):
                pass
        worker.proc.join()
        worker.conn.close()
        item, wall = worker.item, monotonic() - worker.started
        if worker.msg is None:
            exitcode = worker.proc.exitcode
            self._handle_failure(
                item, f"worker crashed (exit code {exitcode})", pending, outcomes
            )
        elif worker.msg[0] == "ok":
            self._handle_success(item, worker.msg[1], wall, outcomes)
        else:
            self._handle_failure(item, str(worker.msg[1]), pending, outcomes)

    # -- shared bookkeeping --------------------------------------------------

    def _handle_success(
        self,
        item: _Pending,
        result: Any,
        wall_s: float,
        outcomes: List[Optional[RunOutcome]],
    ) -> None:
        if self.cache is not None:
            self.cache.put(item.config, result)
        outcomes[item.index] = RunOutcome(
            config=item.config,
            result=result,
            attempts=item.attempts,
            wall_time_s=wall_s,
        )
        self.stats.executed += 1
        self.stats.run_wall_s.append(wall_s)
        self._completed += 1
        self._emit(
            "done", item.index, item.config,
            attempt=item.attempts, wall_time_s=wall_s,
        )

    def _handle_failure(
        self,
        item: _Pending,
        error: str,
        pending: "Deque[_Pending]",
        outcomes: List[Optional[RunOutcome]],
    ) -> None:
        if item.attempts < self.max_attempts:
            self.stats.retries += 1
            self._emit(
                "retry", item.index, item.config,
                attempt=item.attempts, detail=error,
            )
            pending.append(item)
            return
        outcomes[item.index] = RunOutcome(
            config=item.config, attempts=item.attempts, error=error
        )
        self.stats.failures += 1
        self._completed += 1
        self._emit(
            "failed", item.index, item.config,
            attempt=item.attempts, detail=error,
        )

    def _emit(
        self,
        kind: str,
        index: int,
        config: ExperimentConfig,
        attempt: int = 0,
        wall_time_s: float = 0.0,
        detail: str = "",
    ) -> None:
        if self.progress is None:
            return
        self.progress(
            ProgressEvent(
                kind=kind,
                index=index,
                total=self._total,
                completed=self._completed,
                config=config,
                attempt=attempt,
                wall_time_s=wall_time_s,
                detail=detail,
            )
        )


def run_grid(
    configs: Sequence[ExperimentConfig],
    max_workers: Optional[int] = None,
    cache_dir: str | os.PathLike | None = None,
    timeout_s: Optional[float] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
) -> tuple[List[RunOutcome], EngineStats]:
    """One-shot convenience: build an engine, run the grid, return both
    the outcomes (input order) and the engine's counters."""
    engine = ParallelEngine(
        max_workers=max_workers,
        cache=cache_dir,
        timeout_s=timeout_s,
        max_attempts=max_attempts,
        progress=progress,
    )
    outcomes = engine.run(configs)
    return outcomes, engine.stats
