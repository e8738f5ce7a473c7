"""The ``python -m repro metrics`` subcommand: a metered run.

Runs an experiment with the runtime metrics registry armed, then writes
the observability artifacts next to each other::

    <outdir>/
      metrics.json   merged, canonical metrics document (repro.obs/1)
      metrics.prom   the same scopes in Prometheus text exposition format

With ``repetitions > 1`` the repetitions run through the parallel engine
and their registries merge into one document; the document bytes are
independent of ``max_workers`` because the engine returns outcomes in
input order and serialization is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_experiment
from repro.obs.export import (
    build_metrics_document,
    dumps_metrics_document,
    to_prometheus,
    validate_metrics_document,
)
from repro.obs.registry import Histogram


def example_config(description: str = "") -> ExperimentConfig:
    """The default scenario for ``repro metrics``: a short 3-hop line.

    Four nodes in a line is the smallest topology where forwarding,
    fragmentation and the shared-radio scheduler all contribute events, so
    every instrumented subsystem shows up in the document.
    """
    return ExperimentConfig(
        name=description or "metrics",
        topology="line",
        n_nodes=4,
        duration_s=12.0,
        warmup_s=3.0,
        drain_s=2.0,
        producer_interval_s=1.0,
        seed=3,
    )


@dataclass
class MetricsReport:
    """What one ``repro metrics`` invocation produced."""

    document: dict
    outdir: Path
    runs: int


def run_metrics(
    config: ExperimentConfig,
    outdir: str,
    repetitions: int = 1,
    max_workers: int = 1,
    cache_dir: Optional[str] = None,
) -> MetricsReport:
    """Run ``config`` with metrics on; write the document.

    :param repetitions: derived-seed repetitions merged into the document.
    :param max_workers: >1 shards repetitions across worker processes; the
        resulting ``metrics.json`` is byte-identical either way.
    :param cache_dir: enables the engine's on-disk result cache.
    """
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    from repro.exp.repeat import repetition_configs

    metered = replace(config, metrics=True)
    configs = repetition_configs(metered, repetitions)

    if max_workers == 1 and cache_dir is None:
        results = [run_experiment(c) for c in configs]
    else:
        from repro.exp.parallel import ParallelEngine

        engine = ParallelEngine(max_workers=max_workers, cache=cache_dir)
        outcomes = engine.run(configs)
        failed = [o for o in outcomes if not o.ok]
        if failed:
            details = "; ".join(
                f"seed={o.config.seed}: {o.error}" for o in failed
            )
            raise RuntimeError(
                f"{len(failed)}/{repetitions} metered runs failed: {details}"
            )
        results = [o.result for o in outcomes]

    payloads = [getattr(r, "metrics", None) for r in results]
    if any(p is None for p in payloads):
        raise RuntimeError("a metered run returned no metrics payload")
    document = build_metrics_document(
        config.name, payloads, seeds=[c.seed for c in configs]
    )
    validate_metrics_document(document)
    (out / "metrics.json").write_text(dumps_metrics_document(document))
    (out / "metrics.prom").write_text(to_prometheus(document["scopes"]))
    return MetricsReport(document=document, outdir=out, runs=repetitions)


def _merged_rtt_histogram(document: dict) -> Optional[Histogram]:
    """All per-node ``coap.rtt_seconds`` histograms folded into one."""
    merged: Optional[Histogram] = None
    for registry in document["scopes"].values():
        snap = registry.get("histograms", {}).get("coap.rtt_seconds")
        if snap is None:
            continue
        hist = Histogram.from_dict(snap)
        if merged is None:
            merged = hist
        else:
            merged.merge(hist)
    return merged


def render_metrics_summary(report: MetricsReport) -> str:
    """The metrics report as one text block (printed by the CLI)."""
    doc = report.document
    counters = sum(
        len(reg.get("counters", {})) for reg in doc["scopes"].values()
    )
    lines = [
        f"metrics: {doc['runs']} run(s), {len(doc['scopes'])} scopes, "
        f"{counters} counters",
        f"artifacts: {report.outdir}/metrics.json, metrics.prom",
    ]
    rtt = _merged_rtt_histogram(doc)
    if rtt is not None and rtt.count:
        lines.append(
            f"CoAP RTT ({rtt.count} samples): "
            f"p50={rtt.percentile(0.50) * 1000:.1f}ms "
            f"p99={rtt.percentile(0.99) * 1000:.1f}ms"
        )
    return "\n".join(lines) + "\n"
