"""EventLog: per-kind index, JSONL export, pickling."""

import json
import pickle

from repro.exp.events import EventLog, EventRecord


def _sample_log() -> EventLog:
    log = EventLog()
    log.emit(10, "tx", node=0, nbytes=21)
    log.emit(20, "rx", node=1, nbytes=21)
    log.emit(30, "tx", node=0, nbytes=7)
    log.emit(40, "drop", node=2, cause="queue-full")
    return log


class TestIndex:
    def test_of_kind_returns_matching_records_in_time_order(self):
        log = _sample_log()
        times = [r.time_ns for r in log.of_kind("tx")]
        assert times == [10, 30]

    def test_of_kind_unknown_kind_is_empty(self):
        assert list(_sample_log().of_kind("nope")) == []

    def test_count_matches_of_kind(self):
        log = _sample_log()
        for kind in ("tx", "rx", "drop", "nope"):
            assert log.count(kind) == len(list(log.of_kind(kind)))
        assert log.count("tx") == 2

    def test_kinds_in_first_seen_order(self):
        assert _sample_log().kinds() == ["tx", "rx", "drop"]

    def test_index_agrees_with_full_scan(self):
        """The index is an optimization, never a semantic change: per-kind
        views must exactly equal a filter over the raw record stream."""
        log = _sample_log()
        for kind in log.kinds():
            scanned = [r for r in log if r.kind == kind]
            assert list(log.of_kind(kind)) == scanned

    def test_len_and_iter_cover_all_records(self):
        log = _sample_log()
        assert len(log) == 4
        assert [r.kind for r in log] == ["tx", "rx", "tx", "drop"]

    def test_record_get(self):
        record = EventRecord(5, "tx", (("node", 3), ("nbytes", 9)))
        assert record.get("node") == 3
        assert record.get("missing", "d") == "d"


class TestJsonl:
    def test_lines_carry_time_kind_and_fields(self):
        lines = _sample_log().to_jsonl().splitlines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert first == {"t": 10, "kind": "tx", "node": 0, "nbytes": 21}

    def test_bytes_fields_are_hex_encoded(self):
        log = EventLog()
        log.emit(1, "pdu", data=b"\x01\xab", mutable=bytearray(b"\xff"))
        obj = json.loads(log.to_jsonl())
        assert obj["data"] == "01ab"
        assert obj["mutable"] == "ff"

    def test_document_ends_with_newline(self):
        assert _sample_log().to_jsonl().endswith("\n")

    def test_empty_log_serializes_to_empty_string(self):
        assert EventLog().to_jsonl() == ""

    def test_write_jsonl_streams_identical_bytes(self, tmp_path):
        log = _sample_log()
        path = tmp_path / "events.jsonl"
        with path.open("w") as fh:
            written = log.write_jsonl(fh)
        assert written == 4
        assert path.read_text() == log.to_jsonl()

    def test_write_jsonl_empty_log_writes_nothing(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with path.open("w") as fh:
            assert EventLog().write_jsonl(fh) == 0
        assert path.read_text() == ""

    def test_write_jsonl_accepts_any_text_sink(self):
        import io

        chunks = []

        class Sink(io.TextIOBase):
            def write(self, text):
                chunks.append(text)
                return len(text)

        log = _sample_log()
        log.write_jsonl(Sink())
        assert "".join(chunks) == log.to_jsonl()


class TestPickle:
    def test_round_trip_preserves_records_and_index(self):
        log = _sample_log()
        clone = pickle.loads(pickle.dumps(log))
        assert clone == log
        assert clone.count("tx") == 2
        assert [r.time_ns for r in clone.of_kind("tx")] == [10, 30]

    def test_equality_ignores_index_internals(self):
        a, b = _sample_log(), _sample_log()
        assert a == b
        b.emit(50, "tx", node=0)
        assert a != b
        assert a != object() or True  # NotImplemented path doesn't raise
