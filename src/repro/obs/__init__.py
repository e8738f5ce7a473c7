"""Runtime observability: metrics, snapshots, and their export.

``repro.obs`` is the aggregate companion of :mod:`repro.trace`: where the
tracer records *every* event for offline inspection, the metrics hub keeps
cheap always-on aggregates -- counters, gauges, and fixed-bucket streaming
histograms -- the way RIOT exposes statistics on real nodes.  Both follow
the same hot-path contract: a module-level singleton that is never rebound,
guarded by one ``enabled`` attribute, so the cost with the subsystem
disabled is one attribute load and one branch.

Modules:

* :mod:`repro.obs.registry` -- instruments, per-scope registries, and the
  :data:`~repro.obs.registry.METRICS` hub singleton.
* :mod:`repro.obs.sampler` -- the sim-time snapshotter that turns registry
  states into time series.
* :mod:`repro.obs.export` -- ``metrics.json`` documents, Prometheus text
  exposition, and cross-repetition merging.
* :mod:`repro.obs.wallclock` -- the one sanctioned host-clock import for
  operator-facing timing (timeouts, progress lines).
"""

from repro.obs.registry import (
    METRICS,
    Counter,
    CounterVec,
    Gauge,
    Histogram,
    MetricsHub,
    MetricsRegistry,
    RTT_BUCKETS_S,
)
from repro.obs.export import (
    METRICS_SCHEMA,
    build_metrics_document,
    dumps_metrics_document,
    to_prometheus,
    validate_metrics_document,
)
from repro.obs.sampler import MetricsSnapshotter

__all__ = [
    "METRICS",
    "METRICS_SCHEMA",
    "Counter",
    "CounterVec",
    "Gauge",
    "Histogram",
    "MetricsHub",
    "MetricsRegistry",
    "MetricsSnapshotter",
    "RTT_BUCKETS_S",
    "build_metrics_document",
    "dumps_metrics_document",
    "to_prometheus",
    "validate_metrics_document",
]
