"""Chrome-trace / Perfetto JSON export of a journeys payload.

Produces the Trace Event Format (the ``{"traceEvents": [...]}`` JSON that
``chrome://tracing`` and https://ui.perfetto.dev load directly): each
journey becomes one "process", each hop one "thread", and every span a
complete (``"ph": "X"``) event, so a shaded 3-hop run opens as a flame
chart with the per-hop phase decomposition stacked under each hop.

The exporter works on the *exported payload* (plain dicts), not the live
span objects, so it applies equally to a fresh run and to spans shipped
from a worker process or the result cache.

Timestamps are microseconds as the format requires; integer nanoseconds
divide exactly into (possibly fractional) microsecond floats, and
``json.dumps`` renders a given float deterministically, so the export is
byte-stable for a byte-stable payload.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List


def _us(time_ns: int) -> float:
    """Trace-event timestamp: microseconds since the epoch of the run."""
    return time_ns / 1000


def chrome_trace_document(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Build a Trace Event Format document from a journeys payload."""
    events: List[Dict[str, Any]] = []
    for journey in payload.get("journeys", []):
        pid = journey["id"]
        end_ns = journey["end_ns"]
        if end_ns is None:
            continue
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": (
                f"journey {journey['id']}: {journey['src']}->{journey['dst']}"
                f" mid={journey['mid']} ({journey['outcome']})"
            )},
        })
        events.append({
            "ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
            "args": {"sort_index": pid},
        })
        events.append({
            "ph": "X", "name": f"journey ({journey['outcome']})",
            "cat": "journey", "pid": pid, "tid": 0,
            "ts": _us(journey["begin_ns"]),
            "dur": _us(end_ns - journey["begin_ns"]),
            "args": {
                "src": journey["src"], "dst": journey["dst"],
                "token": journey["token"], "mid": journey["mid"],
                "con": journey["con"], "outcome": journey["outcome"],
            },
        })
        # One thread row per (attempt, hop); phases nest under their hop on
        # the same row because Perfetto stacks contained "X" events.
        tid = 0
        for attempt in journey["attempts"]:
            for hop in attempt["hops"]:
                tid += 1
                hop_end = hop["end_ns"]
                if hop_end is None:
                    continue
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                    "args": {"name": (
                        f"a{attempt['index']} {hop['leg'][:3]} "
                        f"{hop['src']}->{hop['dst']}"
                    )},
                })
                events.append({
                    "ph": "X", "name": f"hop {hop['src']}->{hop['dst']}",
                    "cat": f"hop.{hop['leg']}", "pid": pid, "tid": tid,
                    "ts": _us(hop["begin_ns"]),
                    "dur": _us(hop_end - hop["begin_ns"]),
                    "args": {
                        "leg": hop["leg"], "outcome": hop["outcome"],
                        "frames": hop["frames"], "retx": hop["retx"],
                        "reassembly_hold_ns": hop["reassembly_hold_ns"],
                    },
                })
                for phase in hop["phases"]:
                    args = {
                        k: v for k, v in phase.items()
                        if k not in ("name", "begin_ns", "end_ns")
                    }
                    events.append({
                        "ph": "X", "name": phase["name"],
                        "cat": "phase", "pid": pid, "tid": tid,
                        "ts": _us(phase["begin_ns"]),
                        "dur": _us(phase["end_ns"] - phase["begin_ns"]),
                        "args": args,
                    })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def dumps_chrome_trace(payload: Dict[str, Any]) -> str:
    """Serialize the Chrome-trace document (compact, trailing newline)."""
    doc = chrome_trace_document(payload)
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
