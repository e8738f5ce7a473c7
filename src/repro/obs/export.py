"""Export: ``metrics.json`` documents and Prometheus text exposition.

A metrics document is self-describing (``schema`` key, currently
``repro.obs/1``) and aggregates one or more per-run metric payloads --
the ``{"sim_time_ns", "scopes", "series"}`` dicts the experiment runner
attaches to results -- into a single merged snapshot.  Merging follows
:func:`repro.obs.registry.merge_scope_snapshots`: counters add, histograms
fold bucket-wise, gauges keep their min/max envelope.

Serialization is canonical (sorted keys, fixed indent, trailing newline),
so a document built from the same runs in the same order is byte-identical
regardless of how many worker processes produced the runs -- the property
the CI determinism gate checks with ``cmp``.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.registry import merge_scope_snapshots

#: Schema tag stamped into every document.
METRICS_SCHEMA = "repro.obs/1"

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def build_metrics_document(
    name: str,
    payloads: Sequence[dict],
    seeds: Optional[Iterable[int]] = None,
) -> dict:
    """Aggregate per-run metric payloads into one ``metrics.json`` document.

    :param name: experiment name for the ``experiment`` field.
    :param payloads: per-run payloads in repetition order; each is the dict
        the runner produced (``sim_time_ns``, ``scopes``, optional
        ``series``).
    :param seeds: the seeds behind the runs, recorded for provenance.
    :returns: JSON-safe document.  ``series`` is only present for a
        single-run document -- per-tick series from different seeds do not
        merge meaningfully.
    """
    payloads = [p for p in payloads if p is not None]
    if not payloads:
        raise ValueError("no metric payloads to aggregate")
    doc = {
        "schema": METRICS_SCHEMA,
        "experiment": name,
        "runs": len(payloads),
        "sim_time_ns": sum(int(p.get("sim_time_ns", 0)) for p in payloads),
        "scopes": merge_scope_snapshots(p.get("scopes", {}) for p in payloads),
    }
    if seeds is not None:
        doc["seeds"] = list(seeds)
    if len(payloads) == 1 and payloads[0].get("series") is not None:
        doc["series"] = payloads[0]["series"]
    return doc


def dumps_metrics_document(doc: dict) -> str:
    """Canonical serialization: sorted keys, indent 2, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def validate_metrics_document(doc: dict) -> None:
    """Raise :class:`ValueError` if ``doc`` is not a valid v1 document."""
    if not isinstance(doc, dict):
        raise ValueError("metrics document must be an object")
    if doc.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            f"unknown metrics schema {doc.get('schema')!r}; "
            f"expected {METRICS_SCHEMA!r}"
        )
    for key, kind in (
        ("experiment", str),
        ("runs", int),
        ("sim_time_ns", int),
        ("scopes", dict),
    ):
        if not isinstance(doc.get(key), kind):
            raise ValueError(f"metrics document field {key!r} missing or wrong type")
    if doc["runs"] < 1:
        raise ValueError("metrics document must cover at least one run")
    for scope, registry in doc["scopes"].items():
        if not isinstance(registry, dict):
            raise ValueError(f"scope {scope!r} must be an object")
        for kind in ("counters", "gauges", "histograms", "vectors"):
            if not isinstance(registry.get(kind), dict):
                raise ValueError(f"scope {scope!r} missing {kind!r} table")
        for hname, hist in registry["histograms"].items():
            counts = hist.get("counts")
            bounds = hist.get("bounds")
            if not isinstance(bounds, list) or not isinstance(counts, list):
                raise ValueError(
                    f"histogram {scope}:{hname} needs bounds and counts lists"
                )
            if len(counts) != len(bounds) + 1:
                raise ValueError(
                    f"histogram {scope}:{hname} needs len(bounds)+1 counts"
                )
            if sum(counts) != hist.get("count"):
                raise ValueError(
                    f"histogram {scope}:{hname} count does not match buckets"
                )
    series = doc.get("series")
    if series is not None:
        if not isinstance(series, dict) or "times_ns" not in series:
            raise ValueError("series must be an object with times_ns")
        n = len(series["times_ns"])
        for key, column in series.get("values", {}).items():
            if len(column) != n:
                raise ValueError(
                    f"series column {key!r} length differs from times_ns"
                )


def _metric_name(name: str) -> str:
    """``ble.conn_events_served`` -> ``repro_ble_conn_events_served``."""
    return "repro_" + _NAME_SANITIZE.sub("_", name)


def to_prometheus(scopes: dict) -> str:
    """Render merged scope snapshots in Prometheus text exposition format.

    Counters get a ``_total`` suffix, histograms the conventional
    ``_bucket{le=...}`` / ``_sum`` / ``_count`` triple with cumulative
    bucket counts, vectors one sample per label value.  The per-node /
    per-subsystem scope becomes a ``scope`` label.  Each metric family is
    one group -- its ``# TYPE`` line, then its samples for every scope in
    sorted order -- as the text format requires; families are sorted by
    name.
    """
    families: Dict[str, Tuple[str, List[str]]] = {}

    def family(metric: str, kind: str) -> List[str]:
        return families.setdefault(metric, (kind, []))[1]

    for scope in sorted(scopes):
        registry = scopes[scope]
        for name in sorted(registry.get("counters", {})):
            metric = _metric_name(name) + "_total"
            value = registry["counters"][name]
            family(metric, "counter").append(f'{metric}{{scope="{scope}"}} {value}')
        for name in sorted(registry.get("gauges", {})):
            gauge = registry["gauges"][name]
            metric = _metric_name(name)
            for suffix, key in (("", "last"), ("_min", "min"), ("_max", "max")):
                if gauge.get(key) is None:
                    continue
                family(metric + suffix, "gauge").append(
                    f'{metric}{suffix}{{scope="{scope}"}} {gauge[key]}'
                )
        for name in sorted(registry.get("histograms", {})):
            hist = registry["histograms"][name]
            metric = _metric_name(name)
            samples = family(metric, "histogram")
            cumulative = 0
            for bound, count in zip(hist["bounds"], hist["counts"]):
                cumulative += count
                samples.append(
                    f'{metric}_bucket{{scope="{scope}",le="{bound}"}} '
                    f"{cumulative}"
                )
            samples.append(
                f'{metric}_bucket{{scope="{scope}",le="+Inf"}} {hist["count"]}'
            )
            samples.append(f'{metric}_sum{{scope="{scope}"}} {hist["sum"]}')
            samples.append(f'{metric}_count{{scope="{scope}"}} {hist["count"]}')
        for name in sorted(registry.get("vectors", {})):
            vec = registry["vectors"][name]
            metric = _metric_name(name) + "_total"
            samples = family(metric, "counter")
            label_key = _NAME_SANITIZE.sub("_", vec.get("label", "label"))
            for label in sorted(vec.get("values", {})):
                samples.append(
                    f'{metric}{{scope="{scope}",{label_key}="{label}"}} '
                    f"{vec['values'][label]}"
                )
    lines: List[str] = []
    for metric in sorted(families):
        kind, samples = families[metric]
        lines.append(f"# TYPE {metric} {kind}")
        lines.extend(samples)
    return "\n".join(lines) + ("\n" if lines else "")
