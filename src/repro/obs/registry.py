"""Metric instruments, per-scope registries, and a run's scope table.

A metered run builds its own :class:`MetricsHub`, and its snapshotter
(:mod:`repro.obs.sampler`) is the only code that writes to it: at each
sample it copies the stack's own counters in, and the ``spans.*``
metrics of the journeys closed since the previous sample.

Scopes are keyed by *node name* (``node3``) or subsystem (``sim``,
``phy``), never by connection id: :class:`repro.ble.conn.Connection` draws
its id from a process-global counter that is not reset between runs, so
id-keyed metrics would differ between a fresh worker process and a warm
in-process run.  Node-name scopes make the exported snapshot a pure
function of ``(config, seed)`` -- byte-identical across worker counts.

Histograms are fixed-bucket and streaming: an observation lands in one
bucket counter, no per-sample storage, and two histograms with the same
bounds merge by adding counts -- the property the cross-repetition
aggregation in :mod:`repro.obs.export` relies on.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf, nan
from typing import Dict, Iterable, List, Sequence, Tuple

#: Default bucket upper bounds for CoAP round-trip-time histograms, in
#: seconds.  Roughly geometric from 1 ms to 2 min: fine enough that the
#: interpolated p50/p99 agree with an exact percentile over the raw
#: samples to within one bucket width (the acceptance bar of the
#: observability issue), coarse enough that a histogram is ~30 ints.
RTT_BUCKETS_S: Tuple[float, ...] = (
    0.001, 0.0015, 0.002, 0.003, 0.005, 0.0075,
    0.01, 0.015, 0.02, 0.03, 0.05, 0.075,
    0.1, 0.15, 0.2, 0.3, 0.5, 0.75,
    1.0, 1.5, 2.0, 3.0, 5.0, 7.5,
    10.0, 15.0, 20.0, 30.0, 60.0, 120.0,
)

#: Re-attach latency buckets (seconds) for the churn workload: arrival
#: until the RPL parent-change that rejoins the DODAG.  Healthy rejoins
#: land in seconds (DIS solicitation resets the parent's Trickle timer);
#: the tail out to 5 min covers orphan-timeout cycle breaks (20 s) plus a
#: full re-formation round.
REATTACH_BUCKETS_S: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 3.0, 5.0, 7.5,
    10.0, 15.0, 20.0, 30.0, 45.0, 60.0,
    90.0, 120.0, 180.0, 240.0, 300.0,
)

#: Bucket bounds (seconds) for per-hop phase attribution histograms
#: (:mod:`repro.spans`).  Finer than the RTT buckets at the bottom: a
#: single PDU's air time is tens of microseconds, an anchor wait is a
#: fraction of a connection interval (tens of milliseconds), and the
#: retransmission tail runs into seconds.
PHASE_BUCKETS_S: Tuple[float, ...] = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0 to keep the counter monotone)."""
        self.value += n


class Gauge:
    """A point-in-time value with min/max envelope."""

    __slots__ = ("value", "vmin", "vmax", "updates")

    def __init__(self) -> None:
        self.value: float = 0.0
        self.vmin: float = inf
        self.vmax: float = -inf
        self.updates = 0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        self.updates += 1

    def to_dict(self) -> dict:
        """JSON-safe state (``last`` is ``None`` before the first set)."""
        if self.updates == 0:
            return {"last": None, "min": None, "max": None}
        return {"last": self.value, "min": self.vmin, "max": self.vmax}


class CounterVec:
    """A family of counters keyed by one label (e.g. per-channel PDUs)."""

    __slots__ = ("label_key", "values")

    def __init__(self, label_key: str = "label") -> None:
        self.label_key = label_key
        self.values: Dict[str, int] = {}

    def inc(self, label: object, n: int = 1) -> None:
        """Add ``n`` to the ``label`` member (labels stringify)."""
        key = str(label)
        self.values[key] = self.values.get(key, 0) + n

    def to_dict(self) -> dict:
        """JSON-safe state with sorted labels."""
        return {
            "label": self.label_key,
            "values": {k: self.values[k] for k in sorted(self.values)},
        }


class Histogram:
    """A fixed-bucket streaming histogram (mergeable, no sample storage).

    Bucket ``i`` counts observations in ``(bounds[i-1], bounds[i]]``; one
    overflow bucket catches everything above ``bounds[-1]``.  ``sum``,
    ``min``, and ``max`` ride along so quantile interpolation can clamp to
    the observed range.
    """

    __slots__ = ("bounds", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be sorted ascending")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = inf
        self.vmax = -inf

    def observe(self, value: float) -> None:
        """Account one sample."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def mean(self) -> float:
        """Mean of all observations (NaN when empty)."""
        return self.total / self.count if self.count else nan

    def percentile(self, q: float) -> float:
        """The q-quantile (0..1) by in-bucket linear interpolation.

        Exact to within the width of the bucket the quantile falls into;
        clamped to the observed ``[min, max]``.  NaN when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if self.count == 0:
            return nan
        target = q * self.count
        if target <= 0:
            return self.vmin
        cum = 0
        n_bounds = len(self.bounds)
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            lo = self.bounds[i - 1] if i > 0 else self.vmin
            hi = self.bounds[i] if i < n_bounds else self.vmax
            lo = max(lo, self.vmin)
            hi = min(hi, self.vmax)
            if hi < lo:
                hi = lo
            if cum + bucket_count >= target:
                frac = (target - cum) / bucket_count
                return lo + (hi - lo) * frac
            cum += bucket_count
        return self.vmax

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (bounds must match)."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)

    def to_dict(self) -> dict:
        """JSON-safe state."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output."""
        hist = cls(data["bounds"])
        hist.counts = list(data["counts"])
        hist.count = data["count"]
        hist.total = data["sum"]
        hist.vmin = data["min"] if data["min"] is not None else inf
        hist.vmax = data["max"] if data["max"] is not None else -inf
        return hist


class MetricsRegistry:
    """All instruments of one scope (a node or a subsystem)."""

    __slots__ = ("counters", "gauges", "histograms", "vectors")

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.vectors: Dict[str, CounterVec] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        """Get or create the histogram ``name`` with ``bounds``."""
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(bounds)
        return instrument

    def vector(self, name: str, label_key: str = "label") -> CounterVec:
        """Get or create the counter family ``name``."""
        instrument = self.vectors.get(name)
        if instrument is None:
            instrument = self.vectors[name] = CounterVec(label_key)
        return instrument

    def snapshot(self) -> dict:
        """JSON-safe state of every instrument, keys sorted."""
        return {
            "counters": {
                name: self.counters[name].value
                for name in sorted(self.counters)
            },
            "gauges": {
                name: self.gauges[name].to_dict()
                for name in sorted(self.gauges)
            },
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
            "vectors": {
                name: self.vectors[name].to_dict()
                for name in sorted(self.vectors)
            },
        }


class MetricsHub:
    """The scope table of one metered run."""

    __slots__ = ("_scopes",)

    def __init__(self) -> None:
        self._scopes: Dict[str, MetricsRegistry] = {}

    def scope(self, name: str) -> MetricsRegistry:
        """The registry of ``name`` (created on first use)."""
        registry = self._scopes.get(name)
        if registry is None:
            registry = self._scopes[name] = MetricsRegistry()
        return registry

    def scopes(self) -> Dict[str, MetricsRegistry]:
        """The live scope table (read-only by convention)."""
        return self._scopes

    # -- helpers (one call per instrument update) ----------------------------

    def inc(self, scope: str, name: str, n: int = 1) -> None:
        """Increment counter ``name`` in ``scope``."""
        self.scope(scope).counter(name).inc(n)

    def set_gauge(self, scope: str, name: str, value: float) -> None:
        """Set gauge ``name`` in ``scope``."""
        self.scope(scope).gauge(name).set(value)

    def observe(
        self, scope: str, name: str, value: float, bounds: Sequence[float]
    ) -> None:
        """Feed one sample to histogram ``name`` in ``scope``."""
        self.scope(scope).histogram(name, bounds).observe(value)

    def inc_vec(
        self,
        scope: str,
        name: str,
        label: object,
        n: int = 1,
        label_key: str = "label",
    ) -> None:
        """Increment the ``label`` member of counter family ``name``."""
        self.scope(scope).vector(name, label_key).inc(label, n)

    def snapshot(self) -> dict:
        """JSON-safe state of every scope, keys sorted.

        The result is a pure function of the instrument updates performed
        on this hub -- deterministic across worker counts for a
        deterministic simulation.
        """
        return {
            name: self._scopes[name].snapshot()
            for name in sorted(self._scopes)
        }


def merge_scope_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge per-run :meth:`MetricsHub.snapshot` dicts into one.

    Counters and vector members add; histograms merge bucket-wise (bounds
    must agree); gauges keep the min/max envelope and drop ``last`` (a
    point-in-time value has no meaning across runs).  Input order does not
    affect integer fields; float fields (histogram sums) are folded in the
    given order, so pass snapshots in work-item order for byte-stable
    output (the parallel engine already returns outcomes that way).
    """
    merged: dict = {}
    for snapshot in snapshots:
        for scope, registry in snapshot.items():
            out = merged.setdefault(
                scope,
                {"counters": {}, "gauges": {}, "histograms": {}, "vectors": {}},
            )
            for name, value in registry.get("counters", {}).items():
                out["counters"][name] = out["counters"].get(name, 0) + value
            for name, gauge in registry.get("gauges", {}).items():
                agg = out["gauges"].get(name)
                if agg is None:
                    agg = out["gauges"][name] = {
                        "last": None, "min": None, "max": None
                    }
                if gauge.get("min") is not None:
                    agg["min"] = (
                        gauge["min"] if agg["min"] is None
                        else min(agg["min"], gauge["min"])
                    )
                if gauge.get("max") is not None:
                    agg["max"] = (
                        gauge["max"] if agg["max"] is None
                        else max(agg["max"], gauge["max"])
                    )
            for name, hist in registry.get("histograms", {}).items():
                agg = out["histograms"].get(name)
                if agg is None:
                    out["histograms"][name] = {
                        "bounds": list(hist["bounds"]),
                        "counts": list(hist["counts"]),
                        "count": hist["count"],
                        "sum": hist["sum"],
                        "min": hist["min"],
                        "max": hist["max"],
                    }
                    continue
                if agg["bounds"] != list(hist["bounds"]):
                    raise ValueError(
                        f"histogram {scope}:{name} bounds differ across runs"
                    )
                agg["counts"] = [
                    a + b for a, b in zip(agg["counts"], hist["counts"])
                ]
                agg["count"] += hist["count"]
                agg["sum"] += hist["sum"]
                for key, pick in (("min", min), ("max", max)):
                    if hist[key] is not None:
                        agg[key] = (
                            hist[key] if agg[key] is None
                            else pick(agg[key], hist[key])
                        )
            for name, vec in registry.get("vectors", {}).items():
                agg = out["vectors"].get(name)
                if agg is None:
                    agg = out["vectors"][name] = {
                        "label": vec["label"], "values": {}
                    }
                for label, value in vec["values"].items():
                    agg["values"][label] = agg["values"].get(label, 0) + value
    # canonical ordering for byte-stable serialization
    for scope in merged.values():
        for kind in ("counters", "gauges", "histograms", "vectors"):
            scope[kind] = {k: scope[kind][k] for k in sorted(scope[kind])}
        for vec in scope["vectors"].values():
            vec["values"] = {
                k: vec["values"][k] for k in sorted(vec["values"])
            }
    return {name: merged[name] for name in sorted(merged)}
