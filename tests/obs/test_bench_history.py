"""The ``repro bench --append-history`` perf log.

The history file is the longitudinal counterpart of ``BENCH_metrics.json``:
one JSONL line per scenario per run, carrying the timestamp and git
revision the baseline document deliberately omits.  CI uploads it as an
artifact, so the format must stay append-only and line-parseable.
"""

import json

import pytest

import repro.obs.bench as bench_mod
from repro.obs.bench import (
    BENCH_HISTORY_SCHEMA,
    append_history,
    git_revision,
    history_lines,
    main,
)


def _doc(**eps) -> dict:
    return {
        "schema": bench_mod.BENCH_SCHEMA,
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


class TestHistoryLines:
    def test_one_line_per_scenario_sorted(self):
        lines = history_lines(_doc(tree=2.0, line=1.0), "default", "abc1234", 0.0)
        assert [ln["scenario"] for ln in lines] == ["line", "tree"]

    def test_line_fields(self):
        (line,) = history_lines(_doc(line=1234.5), "scale", "abc1234", 0.0)
        assert line == {
            "schema": BENCH_HISTORY_SCHEMA,
            "ts": "1970-01-01T00:00:00Z",
            "rev": "abc1234",
            "tier": "scale",
            "scenario": "line",
            "n_nodes": 4,
            "events": 1000,
            "wall_s": 0.1,
            "events_per_wall_s": 1234.5,
        }

    def test_timestamp_is_utc_iso(self):
        (line,) = history_lines(_doc(line=1.0), "default", "r", 1754600000.0)
        assert line["ts"] == "2025-08-07T20:53:20Z"


class TestAppendHistory:
    def test_appends_jsonl(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        assert append_history(path, _doc(line=1.0, tree=2.0), "default") == 2
        assert append_history(path, _doc(line=3.0), "default") == 1
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert len(lines) == 3
        assert all(ln["schema"] == BENCH_HISTORY_SCHEMA for ln in lines)
        # appends, never truncates: the first run's lines are still there
        assert lines[0]["events_per_wall_s"] == 1.0

    def test_git_revision_in_this_repo(self):
        rev = git_revision()
        assert rev  # short hash here, "unknown" outside a repo
        assert "\n" not in rev


class TestCliWiring:
    @pytest.fixture
    def canned_bench(self, monkeypatch):
        doc = _doc(line=800.0)
        monkeypatch.setattr(bench_mod, "run_bench", lambda tier="default": doc)
        return doc

    def test_append_history_flag(self, canned_bench, tmp_path, capsys):
        hist = tmp_path / "BENCH_history.jsonl"
        rc = main([
            "--out", str(tmp_path / "bench.json"),
            "--append-history", str(hist),
        ])
        assert rc == 0
        (line,) = [json.loads(ln) for ln in hist.read_text().splitlines()]
        assert line["scenario"] == "line"
        assert line["tier"] == "default"
        assert "history line(s) appended" in capsys.readouterr().out

    def test_no_flag_no_file(self, canned_bench, tmp_path):
        assert main(["--out", str(tmp_path / "bench.json")]) == 0
        assert not (tmp_path / "BENCH_history.jsonl").exists()

    def test_committed_history_parses(self):
        """The seeded BENCH_history.jsonl at the repo root stays valid."""
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "BENCH_history.jsonl"
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert lines, "seed the history with one bench run"
        for line in lines:
            assert line["schema"] == BENCH_HISTORY_SCHEMA
            assert line["events_per_wall_s"] > 0
