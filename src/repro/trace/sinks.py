"""Trace sinks: ring buffer, JSONL stream, binary packet dump.

All sinks implement ``accept(record)`` and ``close()``.  The JSONL form is
the interchange format (one header line, then one object per record, field
order preserved); the packet dump is a compact pcap-like binary capture of
every record that carries raw on-link bytes in a ``data`` field, with
:func:`read_packet_dump` as the bundled decoder.
"""

from __future__ import annotations

import io
import json
import struct
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.trace.record import TraceRecord, schema_version

#: JSONL header: first line of every trace file.
JSONL_FORMAT_VERSION = 1

#: Packet dump file magic + format version.
PDUMP_MAGIC = b"RTRC"
PDUMP_VERSION = 1

_PDUMP_HEADER = struct.Struct("<4sHH")  # magic, version, reserved
_PDUMP_RECORD = struct.Struct("<QBBI")  # time_ns, layer_len, kind_len, data_len


def record_to_json(record: TraceRecord) -> dict:
    """The canonical JSON object form of one record.

    Field order is preserved (emission order), ``bytes`` values are
    hex-encoded, and the schema version rides along as ``v`` so a consumer
    can reject records it does not understand.
    """
    obj: dict = {
        "t": record.time_ns,
        "layer": record.layer,
        "kind": record.kind,
        "seq": record.seq,
        "v": record.version,
    }
    for key, value in record.fields:
        if isinstance(value, (bytes, bytearray)):
            value = bytes(value).hex()
        obj[key] = value
    return obj


def record_to_jsonl_line(record: TraceRecord) -> str:
    """One JSONL line (no trailing newline)."""
    return json.dumps(record_to_json(record), separators=(",", ":"))


def jsonl_header() -> str:
    """The file-identifying first line of a JSONL trace."""
    return json.dumps(
        {"trace": "repro.trace", "format": JSONL_FORMAT_VERSION},
        separators=(",", ":"),
    )


def records_to_jsonl(records: Iterable[TraceRecord]) -> str:
    """A complete JSONL trace document (header + records)."""
    lines = [jsonl_header()]
    lines.extend(record_to_jsonl_line(r) for r in records)
    return "\n".join(lines) + "\n"


class RingBufferSink:
    """Keeps every record in memory, oldest first.

    The experiment runner uses this sink to ship a run's full trace on
    :class:`~repro.exp.runner.ExperimentResult`.
    """

    def __init__(self) -> None:
        self._records: List[TraceRecord] = []

    def accept(self, record: TraceRecord) -> None:
        self._records.append(record)

    def records(self) -> List[TraceRecord]:
        """The buffered records, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def close(self) -> None:
        """No-op (memory sink)."""


class JsonlSink:
    """Streams records to a JSONL file as they arrive."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[io.TextIOBase] = self.path.open("w")
        self._fh.write(jsonl_header() + "\n")
        self.records_written = 0

    def accept(self, record: TraceRecord) -> None:
        if self._fh is None:
            raise RuntimeError("sink is closed")
        self._fh.write(record_to_jsonl_line(record) + "\n")
        self.records_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_jsonl(path: Union[str, Path]) -> List[dict]:
    """Decode a JSONL trace file back into record objects.

    Validates the header and each record's schema version against the
    current registry; raises ``ValueError`` on mismatch.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError("empty trace file")
    header = json.loads(lines[0])
    if header.get("trace") != "repro.trace":
        raise ValueError("not a repro.trace JSONL file")
    if header.get("format") != JSONL_FORMAT_VERSION:
        raise ValueError(f"unsupported trace format {header.get('format')}")
    records = []
    for line in lines[1:]:
        obj = json.loads(line)
        expected = schema_version(obj["layer"], obj["kind"])
        if expected and obj.get("v") != expected:
            raise ValueError(
                f"schema mismatch for {obj['layer']}.{obj['kind']}: "
                f"file has v{obj.get('v')}, registry has v{expected}"
            )
        records.append(obj)
    return records


class PacketDumpSink:
    """Binary capture of records carrying on-link bytes (``data`` field).

    Layout: one file header (magic, version), then per packet::

        u64 time_ns | u8 layer_len | u8 kind_len | u32 data_len
        layer bytes | kind bytes | data bytes

    Records without a ``data`` field are skipped, so this sink can share a
    tracer with full-trace sinks.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._fh: Optional[io.BufferedWriter] = self.path.open("wb")
        self._fh.write(_PDUMP_HEADER.pack(PDUMP_MAGIC, PDUMP_VERSION, 0))
        self.packets_written = 0

    def accept(self, record: TraceRecord) -> None:
        data = record.get("data")
        if data is None:
            return
        if self._fh is None:
            raise RuntimeError("sink is closed")
        if isinstance(data, str):  # pre-hexed (e.g. replayed from JSONL)
            data = bytes.fromhex(data)
        layer = record.layer.encode("ascii")
        kind = record.kind.encode("ascii")
        self._fh.write(
            _PDUMP_RECORD.pack(record.time_ns, len(layer), len(kind), len(data))
        )
        self._fh.write(layer)
        self._fh.write(kind)
        self._fh.write(bytes(data))
        self.packets_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_packet_dump(
    path: Union[str, Path],
) -> Iterator[Tuple[int, str, str, bytes]]:
    """Decode a packet dump; yields ``(time_ns, layer, kind, data)``."""
    raw = Path(path).read_bytes()
    if len(raw) < _PDUMP_HEADER.size:
        raise ValueError("truncated packet dump header")
    magic, version, _ = _PDUMP_HEADER.unpack_from(raw)
    if magic != PDUMP_MAGIC:
        raise ValueError("not a repro.trace packet dump")
    if version != PDUMP_VERSION:
        raise ValueError(f"unsupported packet dump version {version}")
    offset = _PDUMP_HEADER.size
    while offset < len(raw):
        if offset + _PDUMP_RECORD.size > len(raw):
            raise ValueError("truncated packet record header")
        time_ns, layer_len, kind_len, data_len = _PDUMP_RECORD.unpack_from(
            raw, offset
        )
        offset += _PDUMP_RECORD.size
        end = offset + layer_len + kind_len + data_len
        if end > len(raw):
            raise ValueError("truncated packet record body")
        layer = raw[offset : offset + layer_len].decode("ascii")
        offset += layer_len
        kind = raw[offset : offset + kind_len].decode("ascii")
        offset += kind_len
        data = raw[offset : offset + data_len]
        offset += data_len
        yield time_ns, layer, kind, data
