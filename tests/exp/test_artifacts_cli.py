"""Tests for the artifact pipeline and the CLI."""

import json
from pathlib import Path

import pytest

from repro.exp import ExperimentConfig, run_experiment
from repro.exp.artifacts import render_summary, write_artifacts
from repro.exp.cli import main
from repro.trace.sinks import read_jsonl
from tests.support import LINE4

#: ``describe`` output from schema v7, which still had a ``kernel:`` block.
STALE_DESCRIPTION = Path(__file__).parent / "data" / "describe_schema7.yml"

#: Each way to observe a run, keyed by the channel it records: the
#: subcommand, then what follows the description.
OBSERVED = {
    "run": ("run", []),
    "sweep": ("sweep", []),
    "trace": ("run", ["--set", "trace=1"]),
    "metrics": ("sweep", ["--set", "metrics=1"]),
    "journeys": ("run", ["--set", "spans=1"]),
}


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
        # fleet sizes the topology builders are not defined for
        for overrides in (
            ["topology=tree"],
            ["n_nodes=1"],
            ["topology=star", "n_nodes=1"],
            ["topology=grid", "n_nodes=0"],
            ["topology=building", "n_nodes=0"],
            ["topology=dynamic", "n_nodes=0"],
        ):
            argv = ["run", LINE4]
            for override in overrides:
                argv += ["--set", override]
            with pytest.raises(SystemExit, match="^invalid config: "):
                main(argv)

    def test_bool_override_parsing(self, tmp_path, capsys):
        desc = tmp_path / "exp.yml"
        desc.write_text(ExperimentConfig(name="b").to_yaml())
        code = main([
            "run", str(desc),
            "--set", "duration_s=10",
            "--set", "confirmable=true",
        ])
        assert code == 0

    def test_run_writes_every_recorded_channel(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "run", LINE4,
            "--set", "trace=1", "--set", "spans=1", "--set", "metrics=1",
            "--set", "duration_s=3", "--set", "warmup_s=1", "--set", "drain_s=0.5",
            "-o", str(out),
        ])
        assert code == 0
        for name in ("trace.jsonl", "trace.pdump", "metrics.json", "metrics.prom",
                     "journeys.json", "journeys_trace.json", "waterfall.txt"):
            assert (out / name).stat().st_size > 0, name
        assert read_jsonl(out / "trace.jsonl")
        stdout = capsys.readouterr().out
        assert "invariants: all checks passed" in stdout
        assert "phases tile exactly" in stdout

    def test_drift_ppms_override_is_a_number_list(self, tmp_path):
        desc = tmp_path / "exp.yml"
        desc.write_text(ExperimentConfig(topology="line", n_nodes=3).to_yaml())
        out = tmp_path / "out"
        code = main([
            "run", str(desc), "--set", "drift_ppms=0, 1.5,-2",
            "--set", "duration_s=1", "--set", "warmup_s=1", "-o", str(out),
        ])
        assert code == 0
        written = ExperimentConfig.from_yaml((out / "experiment.yml").read_text())
        assert written.drift_ppms == (0, 1.5, -2)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(desc), "--set", "drift_ppms=012"])
        assert exc.value.code == "invalid config: drift_ppms needs one entry per node"
        with pytest.raises(SystemExit) as exc:
            main(["run", str(desc), "--set", "drift_ppms=0,x,2"])
        assert exc.value.code == "invalid config: drift_ppms entry 'x' is not a number"

    @pytest.mark.parametrize("argv", [
        ["trace", LINE4, "-o", "d", "--set", "seed=1", "--layers", "ip"],
        ["metrics", LINE4, "--repetitions", "4", "-j", "4", "--cache-dir", "c"],
        ["journeys", LINE4, "--ab-check", "--repeats", "5", "--bar", "0.02"],
        ["run", LINE4, "--metrics"],
        ["sweep", LINE4, "--metrics"],
        ["lint", "--format", "sarif"],
        ["lint", "--baseline", "b"],
        ["lint", "--write-baseline"],
        ["lint", "--strict"],
        ["lint", "--explain", "SL001"],
        ["lint", "--cache", "c"],
        ["lint", "--list-rules"],
    ], ids=["trace", "metrics", "journeys", "run", "sweep", "lint-format",
            "lint-baseline", "lint-write-baseline", "lint-strict", "lint-explain",
            "lint-cache", "lint-list-rules"])
    def test_removed_commands_and_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestConfigErrors:
    """Stale or bad config input exits with one line, not a traceback."""

    @pytest.mark.parametrize("command", list(OBSERVED))
    def test_stale_description(self, command, tmp_path):
        subcommand, channel = OBSERVED[command]
        # duration_s=1 keeps the run short should the description be accepted
        argv = [subcommand, str(STALE_DESCRIPTION), "-o", str(tmp_path),
                "--set", "duration_s=1"] + channel
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == "invalid config: unknown experiment key(s): kernel"

    @pytest.mark.parametrize("command", ["metrics", "trace", "journeys"])
    def test_bad_value_on_example_config(self, command, tmp_path):
        subcommand, channel = OBSERVED[command]
        with pytest.raises(SystemExit) as exc:
            main([subcommand, LINE4, "-o", str(tmp_path), "--set", "n_nodes=abc"]
                 + channel)
        assert exc.value.code == "invalid config: n_nodes='abc' is not a valid int"
