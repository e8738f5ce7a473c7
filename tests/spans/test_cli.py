"""End-to-end span-traced ``run``: journey artifacts on disk, the tiling
verdict, exit codes."""

import json

import pytest

import repro.exp.cli as cli
from repro.exp.cli import main
from repro.spans.hub import SPANS
from tests.support import LINE4

#: The committed line with spans, cut short; journeys still complete end
#: to end.
SPANNED = [
    "run", LINE4,
    "--set", "spans=1",
    "--set", "duration_s=4.0",
    "--set", "warmup_s=1.5",
    "--set", "drain_s=1.0",
]


@pytest.fixture(autouse=True)
def _clean_singleton():
    SPANS.reset()
    yield
    SPANS.reset()


def test_spans_run_writes_journey_artifacts_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "journeys-out"
    rc = main(SPANNED + ["-o", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "phases tile exactly" in stdout
    assert "latency attribution" in stdout
    payload = json.loads((out / "journeys.json").read_text())
    assert payload["summary"]["journeys"] > 0
    assert payload["violations"] == []
    trace = json.loads((out / "journeys_trace.json").read_text())
    assert trace["traceEvents"]
    assert "legend" in (out / "waterfall.txt").read_text()


def test_exit_code_keys_off_violations(tmp_path, capsys, monkeypatch):
    run_experiment = cli.run_experiment

    def run_with_violation(config):
        result = run_experiment(config)
        result.spans["violations"].append(
            {"time_ns": 0, "journey_id": 0, "rule": "fake", "message": "injected"}
        )
        return result

    monkeypatch.setattr(cli, "run_experiment", run_with_violation)
    assert main(SPANNED + ["-o", str(tmp_path / "out")]) == 1
    stdout = capsys.readouterr().out
    assert "conformance: 1 VIOLATION(S)" in stdout
    assert "journey 0 fake: injected" in stdout


def test_run_journeys_requires_spans_enabled(tmp_path, capsys):
    """Without ``spans`` a run records no journeys, so it writes no
    journey files and prints no tiling verdict."""
    out = tmp_path / "out"
    argv = [a if a != "spans=1" else "spans=0" for a in SPANNED]
    assert main(argv + ["-o", str(out)]) == 0
    assert (out / "summary.txt").exists()
    for name in ("journeys.json", "journeys_trace.json", "waterfall.txt"):
        assert not (out / name).exists()
    assert "conformance" not in capsys.readouterr().out


def test_spans_run_leaves_the_global_hub_disarmed(tmp_path):
    main(SPANNED + ["-o", str(tmp_path / "o")])
    assert not SPANS.enabled
