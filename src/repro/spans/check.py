"""The span-tree conformance checker.

Verifies, per closed journey, the structural invariants the span model
promises:

* every span is closed, non-negative, and contained in its parent;
* the hops of an attempt are contiguous -- each hop starts the instant
  the previous one delivered -- anchored at the attempt start; for a
  delivered attempt the last hop reaches the attempt end exactly;
* the phases of a hop exactly tile it: first phase at the hop start,
  no gap or overlap between consecutive phases, last phase at the hop
  end (gaps and overlaps are conformance failures, per the issue);
* attempts start at or after the journey start (the first one exactly
  at it) and the journey ends with its last-closing attempt.

Attempts may *overlap* each other: a CoAP retransmission fires on a wall
timer while the previous attempt's fragments can still be in flight, so
sibling attempts only guarantee containment, not tiling.

The checker is streaming in the same sense as the trace invariant
checkers (:mod:`repro.trace.invariants`): it runs once per journey as the
journey closes, holds no global state, and accumulates violations on the
hub for the conformance gate (a span-traced ``python -m repro run``
exits non-zero when any fired).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.spans.model import Attempt, HopSpan, Journey


@dataclass(frozen=True)
class SpanViolation:
    """One conformance failure in a journey's span tree."""

    time_ns: int
    journey_id: int
    rule: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (
            f"[{self.time_ns}ns] journey {self.journey_id} "
            f"{self.rule}: {self.message}"
        )

    def to_dict(self) -> dict:
        """JSON-safe form."""
        return {
            "time_ns": self.time_ns,
            "journey_id": self.journey_id,
            "rule": self.rule,
            "message": self.message,
        }


def check_journey(journey: Journey) -> List[SpanViolation]:
    """All conformance violations of one closed journey (empty = clean)."""
    out: List[SpanViolation] = []

    def fail(rule: str, time_ns: int, message: str) -> None:
        out.append(SpanViolation(time_ns, journey.id, rule, message))

    j_end = journey.end_ns
    if not journey.closed or j_end is None:
        fail("journey-open", journey.begin_ns, "journey was never closed")
        return out
    if j_end < journey.begin_ns:
        fail("negative-span", journey.begin_ns,
             f"journey [{journey.begin_ns}, {j_end}] is negative")
    last_end = journey.begin_ns
    for attempt in journey.attempts:
        _check_attempt(journey, attempt, fail)
        if attempt.end_ns is not None:
            last_end = max(last_end, attempt.end_ns)
    if journey.attempts:
        first = journey.attempts[0]
        if first.begin_ns != journey.begin_ns:
            fail("attempt-anchor", first.begin_ns,
                 f"attempt 0 starts at {first.begin_ns}, "
                 f"journey at {journey.begin_ns}")
        if last_end != j_end:
            fail("journey-tail", j_end,
                 f"journey ends at {j_end} but its last attempt "
                 f"activity ends at {last_end}")
    return out


_Fail = Callable[[str, int, str], None]


def _check_attempt(journey: Journey, attempt: Attempt, fail: _Fail) -> None:
    a_end = attempt.end_ns
    if not attempt.closed or a_end is None:
        fail("attempt-open", attempt.begin_ns,
             f"attempt {attempt.index} was never closed")
        return
    if a_end < attempt.begin_ns:
        fail("negative-span", attempt.begin_ns,
             f"attempt {attempt.index} [{attempt.begin_ns}, "
             f"{a_end}] is negative")
    j_end = journey.end_ns
    if j_end is not None and (
        attempt.begin_ns < journey.begin_ns or a_end > j_end
    ):
        fail("containment", attempt.begin_ns,
             f"attempt {attempt.index} [{attempt.begin_ns}, "
             f"{a_end}] escapes the journey "
             f"[{journey.begin_ns}, {j_end}]")

    cursor = attempt.begin_ns
    for i, hop in enumerate(attempt.hops):
        label = f"attempt {attempt.index} hop {i} {hop.src}->{hop.dst}"
        h_end = hop.end_ns
        if not hop.closed or h_end is None:
            fail("hop-open", hop.begin_ns, f"{label} was never closed")
            continue
        if hop.begin_ns != cursor:
            kind = "overlaps" if hop.begin_ns < cursor else "leaves a gap at"
            fail("hop-tiling", hop.begin_ns,
                 f"{label} starts at {hop.begin_ns} but {kind} the "
                 f"previous hop end {cursor}")
        if h_end < hop.begin_ns:
            fail("negative-span", hop.begin_ns,
                 f"{label} [{hop.begin_ns}, {h_end}] is negative")
        _check_phases(journey, attempt, hop, label, fail)
        cursor = h_end
    if attempt.outcome == "ok" and cursor != a_end:
        fail("attempt-tail", a_end,
             f"attempt {attempt.index} delivered at {a_end} but "
             f"its hop chain ends at {cursor}")
    elif cursor > a_end:
        fail("attempt-tail", a_end,
             f"attempt {attempt.index} hop chain runs to {cursor}, past "
             f"the attempt end {a_end}")


def _check_phases(
    journey: Journey, attempt: Attempt, hop: HopSpan, label: str, fail: _Fail
) -> None:
    h_end = hop.end_ns
    if h_end is None:
        return
    if not hop.phases:
        if h_end != hop.begin_ns:
            fail("phase-tiling", hop.begin_ns,
                 f"{label} spans {h_end - hop.begin_ns}ns "
                 f"with no phases")
        return
    cursor = hop.begin_ns
    for phase in hop.phases:
        if phase.begin_ns != cursor:
            kind = ("overlaps" if phase.begin_ns < cursor
                    else "leaves a gap after")
            fail("phase-tiling", phase.begin_ns,
                 f"{label} phase {phase.name!r} starts at {phase.begin_ns} "
                 f"but {kind} the previous boundary {cursor}")
        if phase.end_ns <= phase.begin_ns:
            fail("phase-tiling", phase.begin_ns,
                 f"{label} phase {phase.name!r} "
                 f"[{phase.begin_ns}, {phase.end_ns}] is empty or negative")
        cursor = max(cursor, phase.end_ns)
    if cursor != h_end:
        fail("phase-tiling", h_end,
             f"{label} phases end at {cursor}, hop at {h_end}")
