"""The metrics channel: what ``run`` and ``sweep`` write when the
description records metrics."""

import json
from pathlib import Path

import pytest

from repro.exp.cli import main
from repro.exp.config import ExperimentConfig
from repro.obs.export import validate_metrics_document
from tests.support import LINE4

QUICK = dict(
    topology="line", n_nodes=2,
    duration_s=6.0, warmup_s=2.0, drain_s=1.0, sample_period_s=5.0,
)


def _description(tmp_path, **fields):
    yml = tmp_path / "e.yml"
    yml.write_text(ExperimentConfig(**{**QUICK, **fields}).to_yaml())
    return str(yml)


class TestExampleConfig:
    def test_is_a_multi_hop_line(self):
        cfg = ExperimentConfig.from_yaml(Path(LINE4).read_text())
        assert cfg.topology == "line"
        assert cfg.n_nodes == 4  # 3 hops
        assert cfg.total_runtime_s < 30  # CI-speed

    def test_description_names_the_experiment(self, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "sweep", LINE4, "--seeds", "1", "--workers", "1", "--quiet",
            "--set", "metrics=1", "--set", "name=x", "--set", "duration_s=2",
            "-o", str(out),
        ])
        assert rc == 0
        assert json.loads((out / "metrics.json").read_text())["experiment"] == "x"


class TestRunMetrics:
    @pytest.fixture(scope="class")
    def outdir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("metrics")
        rc = main([
            "sweep", _description(root, name="q", seed=4, metrics=True),
            "--seeds", "2", "--workers", "1", "--quiet",
            "-o", str(root / "out"),
        ])
        assert rc == 0
        return root / "out"

    def test_writes_valid_document(self, outdir):
        doc = json.loads((outdir / "metrics.json").read_text())
        validate_metrics_document(doc)
        assert doc["runs"] == 2
        assert doc["seeds"] == [4000, 4001]

    def test_writes_prometheus_exposition(self, outdir):
        text = (outdir / "metrics.prom").read_text()
        assert "# TYPE repro_coap_requests_total counter" in text

    @pytest.mark.parametrize("option", [
        "--seeds=0", "--timeout=0", "--timeout=-1", "--timeout=inf", "--timeout=nan",
    ])
    def test_rejects_zero_repetitions(self, tmp_path, option):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", _description(tmp_path, metrics=True), option])
        assert exc.value.code == {
            "--seeds": "--seeds must be >= 1",
            "--timeout": "--timeout must be a finite number of seconds > 0",
        }[option.split("=")[0]]


class TestCli:
    def test_run_with_metrics_flag_writes_document(self, tmp_path):
        rc = main([
            "run", _description(tmp_path, name="r", seed=4),
            "--set", "metrics=1", "-o", str(tmp_path / "out"),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        validate_metrics_document(doc)
        assert doc["series"] is not None
        assert (tmp_path / "out" / "metrics.prom").read_text()

    def test_sweep_with_metrics_flag_writes_merged_document(self, tmp_path):
        rc = main([
            "sweep", _description(tmp_path, name="s", seed=4),
            "--grid", "seed=4,5", "--seeds", "1", "--workers", "1",
            "--set", "metrics=1", "--quiet", "-o", str(tmp_path / "out"),
        ])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        validate_metrics_document(doc)
        assert doc["runs"] == 2
