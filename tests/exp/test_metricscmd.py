"""Tests for the ``repro metrics`` subcommand and its CLI wiring."""

import json

import pytest

from repro.exp.cli import main
from repro.exp.config import ExperimentConfig
from repro.exp.metricscmd import (
    example_config,
    render_metrics_summary,
    run_metrics,
)
from repro.obs.export import validate_metrics_document

QUICK = dict(
    topology="line", n_nodes=2,
    duration_s=6.0, warmup_s=2.0, drain_s=1.0, sample_period_s=5.0,
)


class TestExampleConfig:
    def test_is_a_multi_hop_line(self):
        cfg = example_config()
        assert cfg.topology == "line"
        assert cfg.n_nodes == 4  # 3 hops
        assert cfg.total_runtime_s < 30  # CI-speed

    def test_description_names_the_experiment(self):
        assert example_config("x").name == "x"


class TestRunMetrics:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("metrics")
        cfg = ExperimentConfig(name="q", seed=4, **QUICK)
        return run_metrics(cfg, str(out), repetitions=2)

    def test_writes_valid_document(self, report):
        doc = json.loads((report.outdir / "metrics.json").read_text())
        validate_metrics_document(doc)
        assert doc["runs"] == 2
        assert doc["seeds"] == [4000, 4001]

    def test_writes_prometheus_exposition(self, report):
        text = (report.outdir / "metrics.prom").read_text()
        assert "# TYPE repro_coap_requests_total counter" in text

    def test_summary_names_artifacts_and_rtt(self, report):
        summary = render_metrics_summary(report)
        assert "metrics.json" in summary
        assert "CoAP RTT" in summary

    def test_rejects_zero_repetitions(self, tmp_path):
        with pytest.raises(ValueError):
            run_metrics(example_config(), str(tmp_path), repetitions=0)


class TestCli:
    def test_metrics_subcommand_defaults(self, tmp_path, capsys):
        rc = main([
            "metrics", "-o", str(tmp_path / "out"),
            "--set", "n_nodes=2", "--set", "duration_s=5",
            "--set", "warmup_s=2", "--set", "drain_s=1",
        ])
        assert rc == 0
        assert (tmp_path / "out" / "metrics.json").exists()
        out = capsys.readouterr().out
        assert "metrics: 1 run(s)" in out

    def test_run_with_metrics_flag_writes_document(self, tmp_path):
        yml = tmp_path / "e.yml"
        yml.write_text(
            ExperimentConfig(name="r", seed=4, **QUICK).to_yaml()
        )
        rc = main([
            "run", str(yml), "--metrics", "-o", str(tmp_path / "out"),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        validate_metrics_document(doc)
        assert doc["series"] is not None

    def test_sweep_with_metrics_flag_writes_merged_document(self, tmp_path):
        yml = tmp_path / "e.yml"
        yml.write_text(
            ExperimentConfig(name="s", seed=4, **QUICK).to_yaml()
        )
        rc = main([
            "sweep", str(yml), "--grid", "seed=4,5", "--seeds", "1",
            "--workers", "1", "--metrics", "--quiet",
            "-o", str(tmp_path / "out"),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        validate_metrics_document(doc)
        assert doc["runs"] == 2
