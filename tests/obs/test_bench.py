"""The ``repro bench`` regression gate (compare logic and CLI wiring).

The full bench run is exercised by CI; here the comparison gate is pinned
with canned documents, and the CLI is driven end-to-end with ``run_bench``
monkeypatched so the tests stay fast.
"""

import json

import pytest

import repro.obs.bench as bench_mod
from repro.obs.bench import (
    BENCH_SCHEMA,
    compare_documents,
    main,
    render_comparison,
    scenario_mismatches,
)


def _doc(**eps) -> dict:
    return {
        "schema": BENCH_SCHEMA,
        "scenarios": {
            label: {
                "topology": label,
                "n_nodes": 4,
                "sim_time_s": 10.0,
                "events": 1000,
                "wall_s": 0.1,
                "events_per_wall_s": value,
                "sim_s_per_wall_s": 100.0,
            }
            for label, value in eps.items()
        },
    }


class TestCompareDocuments:
    def test_no_regression_within_threshold(self):
        current = _doc(line=900.0, tree=1100.0)
        baseline = _doc(line=1000.0, tree=1000.0)
        assert compare_documents(current, baseline, 0.25) == []

    def test_regression_beyond_threshold(self):
        current = _doc(line=700.0)
        baseline = _doc(line=1000.0)
        problems = compare_documents(current, baseline, 0.25)
        assert len(problems) == 1
        assert "line" in problems[0] and "30.0%" in problems[0]

    def test_threshold_is_configurable(self):
        current = _doc(line=900.0)
        baseline = _doc(line=1000.0)
        assert compare_documents(current, baseline, 0.25) == []
        assert len(compare_documents(current, baseline, 0.05)) == 1

    def test_scenario_set_difference_is_not_a_regression(self):
        # set differences are the province of scenario_mismatches; the
        # regression check compares the intersection only
        current = _doc(line=1000.0, mesh=1.0)
        baseline = _doc(line=1000.0, tree=1.0)
        assert compare_documents(current, baseline, 0.25) == []

    def test_mismatch_baseline_scenario_missing_from_current(self):
        problems = scenario_mismatches(_doc(line=1.0), _doc(line=1.0, tree=1.0))
        assert len(problems) == 1
        assert problems[0].startswith("tree: present in baseline")

    def test_mismatch_current_scenario_missing_from_baseline(self):
        problems = scenario_mismatches(_doc(line=1.0, mesh=1.0), _doc(line=1.0))
        assert len(problems) == 1
        assert problems[0].startswith("mesh: present in current run")

    def test_mismatch_both_directions_reported(self):
        problems = scenario_mismatches(_doc(mesh=1.0), _doc(tree=1.0))
        assert len(problems) == 2

    def test_identical_scenario_sets_are_clean(self):
        assert scenario_mismatches(_doc(line=1.0), _doc(line=2.0)) == []

    def test_render_comparison_shows_ratio(self):
        text = render_comparison(_doc(line=2000.0), _doc(line=1000.0))
        assert "2.00x" in text


class TestBenchCli:
    @pytest.fixture
    def canned_bench(self, monkeypatch):
        doc = _doc(line=800.0, tree=2000.0, mesh=2000.0)
        monkeypatch.setattr(bench_mod, "run_bench", lambda tier="default": doc)
        return doc

    def test_writes_out_document(self, canned_bench, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["--out", str(out)]) == 0
        assert json.loads(out.read_text()) == canned_bench
        assert "events/sec" in capsys.readouterr().out

    def test_compare_fails_on_regression(self, canned_bench, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_doc(line=2000.0, tree=2000.0, mesh=2000.0)))
        out = tmp_path / "bench.json"
        rc = main(["--out", str(out), "--compare", str(baseline)])
        assert rc == 1
        assert "REGRESSION: line" in capsys.readouterr().out

    def test_warn_only_reports_but_passes(self, canned_bench, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_doc(line=2000.0)))
        rc = main([
            "--out", str(tmp_path / "bench.json"),
            "--compare", str(baseline), "--warn-only",
        ])
        assert rc == 0
        output = capsys.readouterr().out
        assert "REGRESSION" in output and "warn-only" in output

    def test_compare_baseline_may_equal_out_path(self, canned_bench, tmp_path):
        path = tmp_path / "BENCH_metrics.json"
        path.write_text(json.dumps(_doc(line=820.0, tree=2000.0, mesh=2000.0)))
        rc = main(["--out", str(path), "--compare", str(path)])
        assert rc == 0  # baseline read before the rewrite
        assert json.loads(path.read_text()) == canned_bench

    def test_baseline_missing_scenario_exits_2(self, canned_bench, tmp_path, capsys):
        # current (line/tree/mesh) has scenarios the baseline lacks
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_doc(line=800.0, tree=2000.0)))
        rc = main(["--out", str(tmp_path / "b.json"), "--compare", str(baseline)])
        assert rc == 2
        out = capsys.readouterr().out
        assert "MISMATCH: mesh: present in current run" in out

    def test_current_missing_scenario_exits_2(self, canned_bench, tmp_path, capsys):
        # baseline has a scenario the current run lacks (tier mixup)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(_doc(line=800.0, tree=2000.0, mesh=2000.0, scale500=1.0))
        )
        rc = main(["--out", str(tmp_path / "b.json"), "--compare", str(baseline)])
        assert rc == 2
        out = capsys.readouterr().out
        assert "MISMATCH: scale500: present in baseline" in out

    def test_custom_threshold(self, canned_bench, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_doc(line=1000.0, tree=2000.0, mesh=2000.0)))
        args = ["--out", str(tmp_path / "b.json"), "--compare", str(baseline)]
        assert main(args) == 0  # 20% drop passes the default 25%
        assert main(args + ["--threshold", "0.1"]) == 1
