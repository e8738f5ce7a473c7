"""Sink round-trips: ring buffer, JSONL, binary packet dump."""

import json

import pytest

from repro.trace.record import SCHEMAS, TraceRecord
from repro.trace.sinks import (
    JSONL_FORMAT_VERSION,
    JsonlSink,
    PacketDumpSink,
    RingBufferSink,
    jsonl_header,
    read_jsonl,
    read_packet_dump,
    record_to_json,
    records_to_jsonl,
)


def _record(seq=0, t=100, layer="ble", kind="ll_tx", **fields):
    return TraceRecord(t, layer, kind, seq, tuple(fields.items()))


class TestRingBuffer:
    def test_unbounded_by_default(self):
        ring = RingBufferSink()
        for i in range(1000):
            ring.accept(_record(seq=i))
        assert len(ring) == 1000
        assert [r.seq for r in ring.records()] == list(range(1000))

    def test_close_is_a_no_op(self):
        ring = RingBufferSink()
        ring.accept(_record())
        ring.close()
        assert len(ring) == 1


class TestJsonl:
    def test_record_to_json_preserves_field_order_and_hexes_bytes(self):
        record = _record(conn=1, data=b"\x01\xff", sn=0)
        obj = record_to_json(record)
        assert list(obj) == ["t", "layer", "kind", "seq", "v", "conn", "data", "sn"]
        assert obj["data"] == "01ff"
        assert obj["v"] == SCHEMAS["ble.ll_tx"]

    def test_header_identifies_format(self):
        header = json.loads(jsonl_header())
        assert header == {"trace": "repro.trace", "format": JSONL_FORMAT_VERSION}

    def test_sink_writes_header_then_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.accept(_record(seq=0, sn=1))
        sink.accept(_record(seq=1, sn=0))
        sink.close()
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["trace"] == "repro.trace"
        assert len(lines) == 3
        assert sink.records_written == 2

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        sink.close()

    def test_read_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.accept(_record(seq=0, conn=0, sn=1, nesn=0))
        sink.close()
        records = read_jsonl(path)
        assert len(records) == 1
        assert records[0]["sn"] == 1
        assert records[0]["layer"] == "ble"

    def test_read_jsonl_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"not":"a trace"}\n')
        with pytest.raises(ValueError, match="not a repro.trace"):
            read_jsonl(path)

    def test_read_jsonl_rejects_future_format(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trace":"repro.trace","format":999}\n')
        with pytest.raises(ValueError, match="unsupported trace format"):
            read_jsonl(path)

    def test_read_jsonl_rejects_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        line = json.dumps(
            {"t": 1, "layer": "ble", "kind": "ll_tx", "seq": 0, "v": 999}
        )
        path.write_text(jsonl_header() + "\n" + line + "\n")
        with pytest.raises(ValueError, match="schema mismatch"):
            read_jsonl(path)

    def test_records_to_jsonl_document(self):
        doc = records_to_jsonl([_record(seq=0), _record(seq=1)])
        lines = doc.splitlines()
        assert len(lines) == 3
        assert doc.endswith("\n")


class TestPacketDump:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.pdump"
        sink = PacketDumpSink(path)
        sink.accept(
            _record(t=42, layer="sixlo", kind="tx", node=1, data=b"\xaa\xbb\xcc")
        )
        sink.accept(_record(t=43, layer="sixlo", kind="rx", data=b""))
        sink.close()
        packets = list(read_packet_dump(path))
        assert packets == [
            (42, "sixlo", "tx", b"\xaa\xbb\xcc"),
            (43, "sixlo", "rx", b""),
        ]

    def test_records_without_data_are_skipped(self, tmp_path):
        path = tmp_path / "t.pdump"
        sink = PacketDumpSink(path)
        sink.accept(_record(kind="conn_open", conn=0))
        sink.close()
        assert sink.packets_written == 0
        assert list(read_packet_dump(path)) == []

    def test_hex_string_data_is_decoded(self, tmp_path):
        """Records replayed from JSONL carry pre-hexed data strings."""
        path = tmp_path / "t.pdump"
        sink = PacketDumpSink(path)
        sink.accept(_record(t=1, layer="sixlo", kind="tx", data="0aff"))
        sink.close()
        assert list(read_packet_dump(path)) == [(1, "sixlo", "tx", b"\x0a\xff")]

    def test_rejects_foreign_magic(self, tmp_path):
        path = tmp_path / "bad.pdump"
        path.write_bytes(b"XXXX\x01\x00\x00\x00")
        with pytest.raises(ValueError, match="not a repro.trace packet dump"):
            list(read_packet_dump(path))

    def test_rejects_truncated_body(self, tmp_path):
        path = tmp_path / "t.pdump"
        sink = PacketDumpSink(path)
        sink.accept(_record(t=1, layer="sixlo", kind="tx", data=b"\x01" * 40))
        sink.close()
        truncated = path.read_bytes()[:-10]
        path.write_bytes(truncated)
        with pytest.raises(ValueError, match="truncated"):
            list(read_packet_dump(path))
