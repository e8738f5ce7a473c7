"""Artifact output (paper Appendix A).

The paper's experimentation framework produces three artifacts per run:
(i) the static experiment description, (ii) a raw results log, and (iii)
derived metrics/plots.  :func:`write_artifacts` mirrors that layout, and
adds every observation channel the description switched on::

    <outdir>/
      experiment.yml       the description (reproduces the run bit-exactly)
      results.jsonl        raw per-event records (requests, RTTs, losses,
                           link-statistics samples)
      events.jsonl         connection losses, one line per end of each
      summary.txt          derived tables + terminal plots
      trace.jsonl          trace: the cross-layer records, one per line
      trace.pdump          trace: the on-link bytes as a packet dump
      metrics.json         metrics: the repro.obs/1 document
      metrics.prom         metrics: the same scopes, Prometheus text format
      journeys.json        spans: the packet-journey payload
      journeys_trace.json  spans: a Chrome-trace (Perfetto) export
      waterfall.txt        spans: slowest journeys + latency attribution

:func:`render_verdicts` judges what a run recorded: the trace invariant
checkers over its records and the span checker's tiling verdict.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from repro.exp.asciiplot import render_cdf, render_series
from repro.exp.links import ConnLoss
from repro.exp.metrics import aggregate_binned_pdr, cdf, summarize_rtt
from repro.exp.report import format_table
from repro.exp.runner import ExperimentResult
from repro.obs.export import (
    build_metrics_document,
    dumps_metrics_document,
    to_prometheus,
    validate_metrics_document,
)
from repro.sim.units import SEC
from repro.spans.chrome import dumps_chrome_trace
from repro.spans.render import render_attribution, render_waterfall
from repro.trace.invariants import check_records
from repro.trace.record import TraceRecord
from repro.trace.sinks import JsonlSink, PacketDumpSink


def write_results_log(result: ExperimentResult, path: Path) -> int:
    """Write the raw results as JSON lines; returns the record count."""
    count = 0
    with path.open("w") as fh:
        for producer in result.producers:
            acked = {sent for sent, _ in producer.rtt_samples}
            rtt_of = dict(producer.rtt_samples)
            for sent_at in producer.request_times:
                record = {
                    "type": "request",
                    "t_s": sent_at / SEC,
                    "producer": producer.node_id,
                    "acked": sent_at in acked,
                }
                if sent_at in rtt_of:
                    record["rtt_s"] = rtt_of[sent_at] / SEC
                fh.write(json.dumps(record) + "\n")
                count += 1
        for t_s, node, peer in result.connection_losses():
            fh.write(
                json.dumps(
                    {"type": "conn-loss", "t_s": t_s, "node": node, "peer": peer}
                )
                + "\n"
            )
            count += 1
        for (link, direction), series in result.link_series.items():
            for i, t_s in enumerate(series.times_s):
                fh.write(
                    json.dumps(
                        {
                            "type": "link-sample",
                            "t_s": t_s,
                            "coordinator": link[0],
                            "subordinate": link[1],
                            "direction": direction,
                            "tx_attempts": series.tx_attempts[i],
                            "tx_acked": series.tx_acked[i],
                        }
                    )
                    + "\n"
                )
                count += 1
    return count


def dumps_events(losses: Iterable[ConnLoss]) -> str:
    """The ``events.jsonl`` document: one compact ``conn-loss`` line per
    end of each connection loss, in close order (empty without losses)."""
    return "".join(
        json.dumps(
            {
                "t": loss.time_ns,
                "kind": "conn-loss",
                "node": loss.node,
                "peer": loss.peer,
                "role": loss.role,
            },
            separators=(",", ":"),
        )
        + "\n"
        for loss in losses
    )


def render_summary(result: ExperimentResult) -> str:
    """Derived metrics and plots as one text report."""
    config = result.config
    rtts = result.rtts_s()
    lines = [
        f"experiment: {config.name}",
        f"topology={config.topology} link_layer={config.link_layer} "
        f"conn_interval={config.conn_interval} "
        f"producer_interval={config.producer_interval_s}s seed={config.seed}",
        "",
    ]
    rows = [
        ["CoAP requests sent", result.coap_sent()],
        ["CoAP ACKs received", result.coap_acked()],
        ["CoAP PDR", f"{result.coap_pdr():.5f}"],
        ["connection losses", result.num_connection_losses()],
    ]
    if result.link_series:
        rows.append(["link-layer PDR", f"{result.link_pdr_overall():.4f}"])
    if rtts:
        summary = summarize_rtt(rtts)
        rows += [
            ["RTT mean [ms]", f"{summary['mean'] * 1000:.1f}"],
            ["RTT p50 [ms]", f"{summary['p50'] * 1000:.1f}"],
            ["RTT p99 [ms]", f"{summary['p99'] * 1000:.1f}"],
        ]
    currents = result.fleet_current_ua()
    if currents:
        values = list(currents.values())
        rows += [
            ["BLE current, fleet mean [uA]", f"{sum(values) / len(values):.1f}"],
            ["BLE current, max node [uA]", f"{max(values):.1f}"],
        ]
    lines.append(format_table(["metric", "value"], rows))
    if rtts:
        lines += ["", "RTT CDF:", render_cdf({"rtt": cdf(rtts)}, x_label="RTT [s]")]
    times, pdrs = aggregate_binned_pdr(
        result.producers,
        bin_s=max(10.0, config.duration_s / 60),
        t_end_s=config.total_runtime_s,
    )
    if times:
        lines += [
            "",
            "CoAP PDR over runtime:",
            render_series({"pdr": (times, pdrs)}, y_lo=0.0, y_hi=1.0),
        ]
    return "\n".join(lines) + "\n"


#: Waterfalls rendered into ``waterfall.txt`` (the slowest journeys first;
#: ``journeys.json`` always carries every journey).
MAX_WATERFALLS = 8


def dumps_journeys(payload: Dict[str, Any]) -> str:
    """Byte-stable JSON rendering of a journeys payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _journey_duration(journey: Dict[str, Any]) -> int:
    end = journey["end_ns"]
    return (end - journey["begin_ns"]) if end is not None else 0


def render_waterfalls(payload: Dict[str, Any]) -> str:
    """The slowest journeys' waterfalls plus the attribution table."""
    journeys = payload["journeys"]
    slowest = sorted(journeys, key=_journey_duration, reverse=True)
    blocks = [render_waterfall(journey) for journey in slowest[:MAX_WATERFALLS]]
    blocks.append(render_attribution(journeys))
    return "\n\n".join(blocks)


def write_metrics(document: dict, out: Path) -> None:
    """``metrics.json`` and ``metrics.prom`` for a metrics document."""
    validate_metrics_document(document)
    (out / "metrics.json").write_text(dumps_metrics_document(document))
    (out / "metrics.prom").write_text(to_prometheus(document["scopes"]))


def write_artifacts(result: ExperimentResult, outdir: str | Path) -> Path:
    """Write the Appendix-A artifact triple plus every recorded channel;
    returns the output directory."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    config = result.config
    (out / "experiment.yml").write_text(config.to_yaml())
    write_results_log(result, out / "results.jsonl")
    (out / "events.jsonl").write_text(dumps_events(result.conn_losses))
    (out / "summary.txt").write_text(render_summary(result))
    if config.trace:
        jsonl = JsonlSink(out / "trace.jsonl")
        pdump = PacketDumpSink(out / "trace.pdump")
        try:
            for record in result.trace_records:
                jsonl.accept(record)
                pdump.accept(record)
        finally:
            jsonl.close()
            pdump.close()
    if result.metrics is not None:
        write_metrics(
            build_metrics_document(config.name, [result.metrics], seeds=[config.seed]),
            out,
        )
    if result.spans is not None:
        (out / "journeys.json").write_text(dumps_journeys(result.spans))
        (out / "journeys_trace.json").write_text(dumps_chrome_trace(result.spans))
        (out / "waterfall.txt").write_text(render_waterfalls(result.spans) + "\n")
    return out


def _trace_verdict(records: List[TraceRecord]) -> Tuple[List[str], bool]:
    by_layer = Counter(record.layer for record in records)
    tally = ", ".join(f"{layer}={n}" for layer, n in sorted(by_layer.items()))
    lines = [f"trace: {len(records)} records ({tally})"]
    violations = check_records(records)
    if not violations:
        lines.append("invariants: all checks passed")
    else:
        lines.append(f"invariants: {len(violations)} VIOLATION(S)")
        lines += [
            f"  [{v.time_ns / SEC:.6f}s] {v.checker}: {v.message}"
            for v in violations
        ]
    return lines, not violations


def _spans_verdict(payload: Dict[str, Any]) -> Tuple[List[str], bool]:
    summary = payload["summary"]
    outcomes = ", ".join(f"{k}={v}" for k, v in summary["outcomes"].items())
    lines = [
        f"journeys: {summary['journeys']} ({outcomes or 'none'}), "
        f"{summary['hops']} hops, {summary['frames']} link-layer frames",
        "",
        render_attribution(payload["journeys"]),
        "",
    ]
    violations = payload["violations"]
    if not violations:
        lines.append("conformance: every journey's phases tile exactly")
    else:
        lines.append(f"conformance: {len(violations)} VIOLATION(S)")
        lines += [
            f"  [{v['time_ns'] / SEC:.6f}s] journey {v['journey_id']} "
            f"{v['rule']}: {v['message']}"
            for v in violations
        ]
    return lines, not violations


def render_verdicts(result: ExperimentResult) -> Tuple[str, bool]:
    """The checks over what ``result`` recorded, as one text block, and
    whether all of them passed.

    The trace invariant checkers run over ``result.trace_records`` -- the
    layers ``trace_layers`` kept, so the filter narrows what is checked
    along with what is recorded -- and the spans verdict is the streaming
    tiling checker's.  Without a trace or spans the block is empty.
    """
    blocks: List[List[str]] = []
    ok = True
    if result.config.trace:
        lines, passed = _trace_verdict(result.trace_records)
        blocks.append(lines)
        ok = ok and passed
    if result.spans is not None:
        lines, passed = _spans_verdict(result.spans)
        blocks.append(lines)
        ok = ok and passed
    return "\n\n".join("\n".join(lines) for lines in blocks), ok
