"""Wall-clock simulator profiler: per-subsystem dispatch-time attribution.

The kernel's event loop is the only place simulated work happens, so timing
each dispatched callback and attributing it to the subsystem that owns the
callback (``repro.ble.conn`` -> ``ble``) yields a complete wall-clock
profile of a run without any per-layer instrumentation.  The attribution is
cached per function object -- bound methods are unwrapped to their
``__func__`` first, because every ``sim.at(..., self._run_event)`` creates
a fresh bound-method wrapper around the same underlying function.

Profiler output is *wall-clock* data and therefore non-deterministic; it is
deliberately kept out of ``metrics.json`` (which must be byte-identical
across worker counts) and lands in ``profile.json`` / the CLI summary
instead.

:data:`PROFILER` follows the one-predicate-when-disabled discipline of
:data:`repro.trace.tracer.TRACE` and :data:`repro.obs.registry.METRICS`.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.obs.instr import INSTR
from repro.sim.units import ns_to_s


class Profiler:
    """Accumulates (event count, wall seconds) per subsystem."""

    __slots__ = ("enabled", "_by_subsystem", "_cache", "_entry_cache", "_wall_start")

    def __init__(self) -> None:
        #: The hot-path gate; the kernel checks this around every dispatch.
        self.enabled = False
        #: subsystem -> [events, wall_seconds].
        self._by_subsystem: Dict[str, List[float]] = {}
        self._cache: Dict[object, str] = {}
        #: function object -> its subsystem's accumulator entry, so the
        #: per-dispatch :meth:`record` is one dict hit, not a classification.
        self._entry_cache: Dict[object, List[float]] = {}
        self._wall_start = 0.0

    def configure(self) -> None:
        """Arm the profiler: clear accumulators, start the wall clock."""
        self._by_subsystem = {}
        self._cache = {}
        self._entry_cache = {}
        self._wall_start = perf_counter()
        self.enabled = True
        INSTR.bump()

    def reset(self) -> None:
        """Disarm the profiler (accumulated data stays readable)."""
        self.enabled = False
        INSTR.bump()

    def subsystem_of(self, callback: Callable[..., Any]) -> str:
        """The subsystem owning ``callback`` (second ``repro.X`` segment).

        ``functools.partial`` objects carry no ``__module__``, so a partial
        of a ``repro.workload`` timer would land in the catch-all bucket;
        the partial chain is unwrapped to the underlying callable first and
        classified by *its* module.
        """
        func = getattr(callback, "__func__", callback)
        try:
            cached = self._cache.get(func)
        except TypeError:  # unhashable callable; classify every time
            cached = None
            func = None
        if cached is not None:
            return cached
        inner: Any = callback
        while isinstance(inner, partial):
            inner = inner.func
        module = getattr(inner, "__module__", "") or ""
        parts = module.split(".")
        if parts[0] == "repro" and len(parts) > 1:
            subsystem = parts[1]
        else:
            subsystem = parts[0] or "other"
        if func is not None:
            self._cache[func] = subsystem
        return subsystem

    def record(self, callback: Callable[..., Any], wall_s: float) -> None:
        """Account one dispatched callback."""
        func = getattr(callback, "__func__", callback)
        try:
            entry = self._entry_cache.get(func)
        except TypeError:  # unhashable callable; classify every time
            entry = None
            func = None
        if entry is None:
            subsystem = self.subsystem_of(callback)
            entry = self._by_subsystem.get(subsystem)
            if entry is None:
                entry = self._by_subsystem[subsystem] = [0, 0.0]
            if func is not None:
                self._entry_cache[func] = entry
        entry[0] += 1
        entry[1] += wall_s

    def record_bulk(
        self, callback: Callable[..., Any], count: int, wall_s: float
    ) -> None:
        """Account ``count`` dispatches of ``callback`` totalling ``wall_s``.

        Flush target for dispatch loops that batch attribution locally
        (one dict update per event instead of a :meth:`record` call).
        """
        func = getattr(callback, "__func__", callback)
        try:
            entry = self._entry_cache.get(func)
        except TypeError:  # unhashable callable; classify every time
            entry = None
            func = None
        if entry is None:
            subsystem = self.subsystem_of(callback)
            entry = self._by_subsystem.get(subsystem)
            if entry is None:
                entry = self._by_subsystem[subsystem] = [0, 0.0]
            if func is not None:
                self._entry_cache[func] = entry
        entry[0] += count
        entry[1] += wall_s

    def report(
        self,
        sim_time_ns: Optional[int] = None,
        events: Optional[int] = None,
    ) -> Dict[str, Any]:
        """The profile as a JSON-safe document.

        :param sim_time_ns: simulated span covered, for the
            sim-seconds-per-wall-second figure.
        :param events: total events dispatched (defaults to the profiler's
            own tally, which misses nothing when it was armed for the whole
            run).
        """
        wall_s = perf_counter() - self._wall_start
        dispatch_s = sum(e[1] for e in self._by_subsystem.values())
        counted = sum(int(e[0]) for e in self._by_subsystem.values())
        total_events = events if events is not None else counted
        subsystems: Dict[str, Any] = {}
        for name in sorted(
            self._by_subsystem,
            key=lambda n: self._by_subsystem[n][1],
            reverse=True,
        ):
            n_events, spent = self._by_subsystem[name]
            subsystems[name] = {
                "events": int(n_events),
                "wall_s": spent,
                "share": spent / dispatch_s if dispatch_s > 0 else 0.0,
            }
        doc: Dict[str, Any] = {
            "schema": "repro.obs.profile/1",
            "wall_s": wall_s,
            "dispatch_wall_s": dispatch_s,
            "events": total_events,
            "events_per_wall_s": total_events / wall_s if wall_s > 0 else 0.0,
            "subsystems": subsystems,
        }
        if sim_time_ns is not None:
            doc["sim_time_ns"] = int(sim_time_ns)
            doc["sim_s_per_wall_s"] = (
                ns_to_s(int(sim_time_ns)) / wall_s if wall_s > 0 else 0.0
            )
        return doc


#: The singleton the kernel imports.  Never rebind it.
PROFILER = Profiler()
