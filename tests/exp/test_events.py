"""The connection-loss event log: the link sampler's ``ConnLoss`` records
and their ``events.jsonl`` export."""

import json

from repro.exp import ExperimentConfig, run_experiment
from repro.exp.artifacts import dumps_events, write_artifacts
from repro.exp.links import ConnLoss


def _sample_log():
    """Two losses, each seen from both ends at the same instant."""
    return [
        ConnLoss(10, 3, 2, "coordinator"),
        ConnLoss(10, 2, 3, "subordinate"),
        ConnLoss(30, 1, 0, "coordinator"),
        ConnLoss(30, 0, 1, "subordinate"),
    ]


class TestIndex:
    def test_of_kind_returns_matching_records_in_time_order(self):
        """The loss records are the trace's supervision-timeout closes, one
        per end (coordinator first), in time order."""
        # a drifting 3-hop line whose 3 -> 2 link is lost at 175 s
        result = run_experiment(
            ExperimentConfig(
                name="losses", topology="line", n_nodes=4, conn_interval="75",
                duration_s=180.0, drift_ppm_span=80.0, seed=4,
                trace=True, trace_layers="ble",
            )
        )
        closes = [
            record.time_ns
            for record in result.trace_records
            if record.key == "ble.conn_close"
            and dict(record.fields)["reason"] == "supervision-timeout"
        ]
        assert closes
        assert [loss.time_ns for loss in result.conn_losses] == [
            t for t in closes for _ in range(2)
        ]
        assert [loss.role for loss in result.conn_losses] == [
            "coordinator", "subordinate"
        ] * len(closes)


class TestJsonl:
    def test_lines_carry_time_kind_and_fields(self):
        lines = dumps_events(_sample_log()).splitlines()
        assert len(lines) == 4
        first = json.loads(lines[0])
        assert first == {
            "t": 10, "kind": "conn-loss", "node": 3, "peer": 2, "role": "coordinator"
        }
        assert lines[0] == json.dumps(first, separators=(",", ":"))

    def test_document_ends_with_newline(self):
        assert dumps_events(_sample_log()).endswith("\n")

    def test_empty_log_serializes_to_empty_string(self):
        assert dumps_events([]) == ""

    def test_write_jsonl_empty_log_writes_nothing(self, tmp_path):
        result = run_experiment(
            ExperimentConfig(
                name="quiet", seed=7, duration_s=10.0, warmup_s=4.0, drain_s=3.0
            )
        )
        assert result.conn_losses == []
        out = write_artifacts(result, tmp_path)
        assert (out / "events.jsonl").read_text() == ""
