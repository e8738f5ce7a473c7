"""Runtime observability: metrics, snapshots, and their export.

``repro.obs`` is the aggregate companion of :mod:`repro.trace`: where the
tracer records *every* event for offline inspection, a metered run samples
the counters every layer keeps anyway -- the way RIOT exposes statistics
on real nodes -- into counters, gauges, and fixed-bucket streaming
histograms, so metering costs one sample per period, not a hook per event.

Modules:

* :mod:`repro.obs.registry` -- instruments, per-scope registries, and
  :class:`~repro.obs.registry.MetricsHub`, the scope table a metered run
  builds for itself.
* :mod:`repro.obs.sampler` -- the metric catalogue and the sim-time
  snapshotter, the one writer of a run's registries and time series.
* :mod:`repro.obs.export` -- ``metrics.json`` documents, Prometheus text
  exposition, and cross-repetition merging.
* :mod:`repro.obs.wallclock` -- the one sanctioned host-clock import for
  operator-facing timing (timeouts, progress lines).
"""

from repro.obs.registry import (
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
