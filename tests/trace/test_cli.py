"""End-to-end traced ``run``: trace artifacts on disk, the invariant
verdict, exit codes."""

import json

import pytest

import repro.exp.artifacts as artifacts
import repro.exp.cli as cli
from repro.exp.cli import main
from repro.trace.sinks import read_jsonl, read_packet_dump
from repro.trace.tracer import TRACE
from tests.support import LINE4

#: The committed line, traced and cut short; every layer still fires.
TRACED = [
    "run", LINE4,
    "--set", "trace=1",
    "--set", "duration_s=3.0",
    "--set", "warmup_s=1.0",
    "--set", "drain_s=0.5",
]


@pytest.fixture(autouse=True)
def _clean_singleton():
    TRACE.reset()
    yield
    TRACE.reset()


def test_traced_run_writes_artifacts_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "trace-out"
    rc = main(TRACED + ["-o", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "invariants: all checks passed" in stdout
    # trace files
    records = read_jsonl(out / "trace.jsonl")
    assert records, "trace.jsonl is empty"
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert {"kernel", "phy", "ble", "l2cap", "sixlo", "ip", "coap"} <= {
        r["layer"] for r in records
    }
    assert f"trace: {len(records)} records" in stdout
    assert list(read_packet_dump(out / "trace.pdump"))
    # the standard artifacts ride along, including the event-log export
    # (empty on a healthy run: the log only records connection losses)
    assert (out / "summary.txt").exists()
    events = (out / "events.jsonl").read_text().splitlines()
    assert all("kind" in json.loads(line) for line in events)


def test_trace_layers_narrow_what_is_recorded_and_checked(
    tmp_path, capsys, monkeypatch
):
    checked = set()
    check_records = artifacts.check_records

    def spy(records):
        checked.update(r.layer for r in records)
        return check_records(records)

    monkeypatch.setattr(artifacts, "check_records", spy)
    out = tmp_path / "trace-out"
    rc = main(TRACED + ["--set", "trace_layers=sixlo,ip", "-o", str(out)])
    assert rc == 0
    assert checked == {"sixlo", "ip"}
    assert {r["layer"] for r in read_jsonl(out / "trace.jsonl")} == checked
    # the packet dump only ever holds data-carrying records anyway
    for _, layer, _, _ in read_packet_dump(out / "trace.pdump"):
        assert layer in checked
    assert "invariants: all checks passed" in capsys.readouterr().out


def test_run_traced_reports_violations_and_cli_exits_nonzero(
    tmp_path, capsys, monkeypatch
):
    """A violation must turn into exit code 1.  No simulator bug is
    available on demand, so inject one: repeat a node's last radio claim,
    which overlaps the claim it copies."""
    run_experiment = cli.run_experiment

    def run_with_overlapping_claim(config):
        result = run_experiment(config)
        claims = [r for r in result.trace_records if r.key == "ble.radio_claim"]
        result.trace_records.append(claims[-1])
        return result

    monkeypatch.setattr(cli, "run_experiment", run_with_overlapping_claim)
    out = tmp_path / "out"
    assert main(TRACED + ["-o", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert "invariants: 1 VIOLATION(S)" in stdout
    assert "radio-exclusive" in stdout
    # the artifacts are still written, for inspection
    assert (out / "trace.jsonl").exists()


def test_traced_run_leaves_the_global_tracer_disarmed(tmp_path):
    main(TRACED + ["-o", str(tmp_path / "o")])
    assert not TRACE.enabled
