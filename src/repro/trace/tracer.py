"""The process-wide tracer.

Instrumented code paths throughout the stack guard their emissions with::

    if TRACE.enabled:
        TRACE.emit(t, "ble", "ll_tx", conn=..., ...)

:data:`TRACE` is a module-level singleton that is *never replaced*, so the
hot-path cost with tracing disabled is one attribute load and one branch --
the near-zero-overhead requirement.  :meth:`Tracer.configure` arms it with
sinks (ring buffer, JSONL file, packet dump, invariant checkers);
:meth:`Tracer.reset` disarms it again.  The experiment runner brackets every
traced run with this pair, so worker processes of the parallel engine see
exactly the same configuration as an in-process run -- which is what makes
traces byte-identical across worker counts.

Connection ids are normalized on emission: :class:`repro.ble.conn.Connection`
draws its ``conn_id`` from a process-global counter that is *not* reset
between runs, so raw ids would differ between a fresh process and a warm
one.  The tracer maps them to dense first-seen indices per configuration.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set

from repro.trace.record import TraceRecord


class Tracer:
    """Emission gate, layer filter, and fan-out to sinks."""

    __slots__ = (
        "enabled",
        "_sinks",
        "_sim",
        "_layers",
        "_conn_ids",
        "_seq",
        "records_emitted",
    )

    def __init__(self) -> None:
        #: The hot-path gate; instrumented code checks this before building
        #: any record fields.
        self.enabled = False
        self._sinks: tuple = ()
        self._sim = None
        self._layers: Optional[Set[str]] = None
        self._conn_ids: Dict[int, int] = {}
        self._seq = 0
        #: Total records emitted since the last :meth:`configure`.
        self.records_emitted = 0

    def configure(
        self,
        sinks: Iterable[Any],
        sim: Any = None,
        layers: Optional[Iterable[str]] = None,
    ) -> None:
        """Arm the tracer: install sinks, reset per-run state, enable.

        :param sinks: objects with ``accept(record)``; closed by the caller.
        :param sim: optional simulator for :meth:`now` (layers without a
            time source of their own, e.g. the IP stack, use it).
        :param layers: restrict emission to these layers (``None`` = all).
        """
        self._sinks = tuple(sinks)
        self._sim = sim
        self._layers = set(layers) if layers is not None else None
        self._conn_ids = {}
        self._seq = 0
        self.records_emitted = 0
        self.enabled = True

    def attach_sim(self, sim: Any) -> None:
        """Late-bind the simulator (the runner knows it after net build)."""
        self._sim = sim

    def reset(self) -> None:
        """Disarm the tracer and drop sink references (sinks stay open)."""
        self.enabled = False
        self._sinks = ()
        self._sim = None
        self._layers = None
        self._conn_ids = {}

    def now(self) -> int:
        """Current simulation time, or 0 when no simulator is attached."""
        sim = self._sim
        return sim.now if sim is not None else 0

    def conn_ref(self, conn_id: int) -> int:
        """Dense per-run id for a process-global connection id."""
        ref = self._conn_ids.get(conn_id)
        if ref is None:
            ref = len(self._conn_ids)
            self._conn_ids[conn_id] = ref
        return ref

    def emit(self, time_ns: Optional[int], layer: str, kind: str, **fields: Any) -> None:
        """Build one record and fan it out to every sink.

        ``time_ns=None`` stamps the record with :meth:`now`.  The reserved
        ``conn`` field is normalized through :meth:`conn_ref`.
        """
        if not self.enabled:
            return
        if self._layers is not None and layer not in self._layers:
            return
        if time_ns is None:
            time_ns = self.now()
        conn = fields.get("conn")
        if conn is not None:
            fields["conn"] = self.conn_ref(conn)
        record = TraceRecord(time_ns, layer, kind, self._seq, tuple(fields.items()))
        self._seq += 1
        self.records_emitted += 1
        for sink in self._sinks:
            sink.accept(record)


#: The singleton every instrumented module imports.  Never rebind it.
TRACE = Tracer()
