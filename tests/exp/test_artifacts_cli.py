"""Tests for the artifact pipeline and the CLI."""

import json
from pathlib import Path

import pytest

from repro.exp import ExperimentConfig, run_experiment
from repro.exp.artifacts import render_summary, write_artifacts
from repro.exp.cli import main

#: ``describe`` output from schema v7, which still had a ``kernel:`` block.
STALE_DESCRIPTION = Path(__file__).parent / "data" / "describe_schema7.yml"


@pytest.fixture(scope="module")
def result():
    return run_experiment(
        ExperimentConfig(name="artifacts", duration_s=20.0, warmup_s=4.0,
                         drain_s=3.0, sample_period_s=5.0, seed=3)
    )


class TestArtifacts:
    def test_triple_written(self, result, tmp_path):
        out = write_artifacts(result, tmp_path / "run1")
        assert (out / "experiment.yml").exists()
        assert (out / "results.jsonl").exists()
        assert (out / "summary.txt").exists()

    def test_description_roundtrips(self, result, tmp_path):
        out = write_artifacts(result, tmp_path / "run2")
        text = (out / "experiment.yml").read_text()
        assert ExperimentConfig.from_yaml(text) == result.config

    def test_results_log_is_valid_jsonl(self, result, tmp_path):
        out = write_artifacts(result, tmp_path / "run3")
        records = [
            json.loads(line)
            for line in (out / "results.jsonl").read_text().splitlines()
        ]
        kinds = {r["type"] for r in records}
        assert "request" in kinds
        assert "link-sample" in kinds
        requests = [r for r in records if r["type"] == "request"]
        assert len(requests) == result.coap_sent()
        assert sum(r["acked"] for r in requests) == result.coap_acked()

    def test_summary_contains_headline_metrics(self, result):
        text = render_summary(result)
        assert "CoAP PDR" in text
        assert "RTT p50" in text
        assert "RTT CDF" in text


class TestCli:
    def test_describe_prints_valid_yaml(self, capsys):
        assert main(["describe", "--name", "tpl"]) == 0
        out = capsys.readouterr().out
        config = ExperimentConfig.from_yaml(out)
        assert config.name == "tpl"

    def test_run_with_overrides(self, tmp_path, capsys):
        desc = tmp_path / "exp.yml"
        desc.write_text(ExperimentConfig(name="cli-test").to_yaml())
        code = main([
            "run", str(desc),
            "--set", "duration_s=10",
            "--set", "n_nodes=15",
            "-o", str(tmp_path / "out"),
        ])
        assert code == 0
        assert (tmp_path / "out" / "summary.txt").exists()
        assert "CoAP PDR" in capsys.readouterr().out

    def test_bad_override_rejected(self, tmp_path):
        desc = tmp_path / "exp.yml"
        desc.write_text(ExperimentConfig().to_yaml())
        with pytest.raises(SystemExit):
            main(["run", str(desc), "--set", "nonsense=1"])
        with pytest.raises(SystemExit):
            main(["run", str(desc), "--set", "garbage"])
        with pytest.raises(SystemExit, match="^invalid config: duration_s='long' is not"):
            main(["run", str(desc), "--set", "duration_s=long"])
        with pytest.raises(SystemExit, match="^invalid config: duration_s='long' is not"):
            main(["sweep", str(desc), "--grid", "duration_s=long"])
        for key in ("confirmable", "abort_event_on_crc_error"):
            message = f"^invalid config: {key}='ture' is not a valid bool"
            with pytest.raises(SystemExit, match=message):
                main(["run", str(desc), "--set", "duration_s=1", "--set", f"{key}=ture"])

    def test_bool_override_parsing(self, tmp_path, capsys):
        desc = tmp_path / "exp.yml"
        desc.write_text(ExperimentConfig(name="b").to_yaml())
        code = main([
            "run", str(desc),
            "--set", "duration_s=10",
            "--set", "confirmable=true",
        ])
        assert code == 0


class TestConfigErrors:
    """Stale or bad config input exits with one line, not a traceback."""

    @pytest.mark.parametrize("command", ["run", "sweep", "metrics", "trace", "journeys"])
    def test_stale_description(self, command, tmp_path):
        # duration_s=1 keeps the run short should the description be accepted
        argv = [command, str(STALE_DESCRIPTION), "-o", str(tmp_path),
                "--set", "duration_s=1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == "invalid config: unknown experiment key(s): kernel"

    @pytest.mark.parametrize("command", ["metrics", "trace", "journeys"])
    def test_bad_value_on_example_config(self, command, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([command, "-o", str(tmp_path), "--set", "n_nodes=abc"])
        assert exc.value.code == "invalid config: n_nodes='abc' is not a valid int"
