"""Structured event log.

The paper's firmware dumps carefully rate-limited events to STDIO (§4.2);
here the runner records them in memory.  Records are cheap tuples; a
per-kind index keeps :meth:`EventLog.of_kind` / :meth:`EventLog.count`
O(matches) instead of O(all records), which matters once hour-long runs
log tens of thousands of events and analysis code filters them per metric.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, TextIO, Tuple


@dataclass(frozen=True)
class EventRecord:
    """One logged event."""

    time_ns: int
    kind: str
    fields: Tuple[Tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        """Field lookup by name."""
        for k, v in self.fields:
            if k == key:
                return v
        return default


class EventLog:
    """An append-only event recorder with a per-kind index."""

    def __init__(self) -> None:
        self._records: List[EventRecord] = []
        self._by_kind: Dict[str, List[EventRecord]] = {}

    def emit(self, time_ns: int, kind: str, **fields: Any) -> None:
        """Record one event."""
        record = EventRecord(time_ns, kind, tuple(fields.items()))
        self._records.append(record)
        self._by_kind.setdefault(kind, []).append(record)

    def of_kind(self, kind: str) -> Iterator[EventRecord]:
        """All records of ``kind`` in time order."""
        return iter(self._by_kind.get(kind, ()))

    def count(self, kind: str) -> int:
        """Number of records of ``kind``."""
        return len(self._by_kind.get(kind, ()))

    def kinds(self) -> List[str]:
        """All record kinds seen, in first-seen order."""
        return list(self._by_kind)

    def write_jsonl(self, fh: TextIO) -> int:
        """Stream the log as JSON lines into a writable text file object.

        One ``{"t", "kind", ...fields}`` object per line; bytes-valued
        fields are hex-encoded; everything else must already be
        JSON-representable (the emitters only log scalars).  Writes line by
        line, so exporting a multi-hour log never materializes the whole
        text in memory.

        :returns: the number of records written.
        """
        written = 0
        for record in self._records:
            obj: Dict[str, Any] = {"t": record.time_ns, "kind": record.kind}
            for key, value in record.fields:
                if isinstance(value, (bytes, bytearray)):
                    value = bytes(value).hex()
                obj[key] = value
            fh.write(json.dumps(obj, separators=(",", ":")))
            fh.write("\n")
            written += 1
        return written

    def to_jsonl(self) -> str:
        """The log as one JSON-lines string (see :meth:`write_jsonl`).

        Thin wrapper for small logs and tests; prefer :meth:`write_jsonl`
        with a real file when exporting long runs.
        """
        buffer = io.StringIO()
        self.write_jsonl(buffer)
        return buffer.getvalue()

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self._records == other._records

    def __iter__(self) -> Iterator[EventRecord]:
        return iter(self._records)
