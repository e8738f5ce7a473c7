"""``python -m repro lint``: exit codes, output formats, baseline flags."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def run_lint(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


class TestExitCodes:
    def test_repo_with_empty_baseline_exits_zero(self, tmp_path):
        baseline = tmp_path / "empty-baseline"
        baseline.write_text("")
        proc = run_lint("--baseline", str(baseline))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_each_fixture_exits_nonzero(self):
        for fixture in sorted(FIXTURES.glob("sl*.py")):
            proc = run_lint(str(fixture))
            assert proc.returncode == 1, f"{fixture.name}: {proc.stdout}"

    def test_missing_path_exits_two(self):
        proc = run_lint("does/not/exist.py")
        assert proc.returncode == 2

    def test_missing_baseline_file_exits_two(self):
        proc = run_lint(str(FIXTURES), "--baseline", "no-such-baseline.json")
        assert proc.returncode == 2


class TestFormats:
    def test_json_format_is_parseable(self):
        proc = run_lint(str(FIXTURES), "--format=json")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["schema"] == "repro.lint.report/1"
        found = {f["code"] for f in doc["findings"]}
        assert found == {f"SL00{i}" for i in range(1, 9)}
        for finding in doc["findings"]:
            assert finding["fingerprint"]
            assert finding["line"] >= 1

    def test_text_format_names_rule_and_location(self):
        proc = run_lint(str(FIXTURES / "sl001_wallclock.py"))
        assert "SL001" in proc.stdout
        assert "sl001_wallclock.py:" in proc.stdout

    def test_list_rules(self):
        proc = run_lint("--list-rules")
        assert proc.returncode == 0
        for i in range(1, 9):
            assert f"SL00{i}" in proc.stdout
        assert "SL009" not in proc.stdout

    def test_sarif_format_is_valid(self):
        proc = run_lint(str(FIXTURES / "sl001_wallclock.py"), "--format=sarif")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == {f"SL00{i}" for i in range(1, 9)}
        result = run["results"][0]
        assert result["ruleId"] == "SL001"
        assert result["partialFingerprints"]["simlint/v1"]
        loc = result["locations"][0]["physicalLocation"]
        assert loc["region"]["startLine"] >= 1

    def test_sarif_on_clean_tree_has_empty_results(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        proc = run_lint(str(clean), "--format=sarif")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["runs"][0]["results"] == []


class TestExplain:
    def test_every_rule_has_an_explain_page(self):
        for i in range(1, 9):
            code = f"SL00{i}"
            proc = run_lint("--explain", code)
            assert proc.returncode == 0, proc.stderr
            assert code in proc.stdout
            for section in ("Why", "Example", "Fix"):
                assert section in proc.stdout, f"{code} page missing {section}"

    def test_explain_accepts_aliases_case_insensitively(self):
        by_code = run_lint("--explain", "sl003")
        by_alias = run_lint("--explain", "set-order")
        assert by_code.returncode == by_alias.returncode == 0
        assert by_code.stdout == by_alias.stdout

    def test_unknown_rule_exits_two(self):
        proc = run_lint("--explain", "SL099")
        assert proc.returncode == 2
        assert "unknown rule" in proc.stderr


class TestCache:
    def test_warm_run_is_identical(self, tmp_path):
        cache = tmp_path / "lint-cache.json"
        cold = run_lint(str(FIXTURES / "sl001_wallclock.py"), "--cache", str(cache))
        assert cache.exists()
        warm = run_lint(str(FIXTURES / "sl001_wallclock.py"), "--cache", str(cache))
        assert (cold.returncode, cold.stdout) == (warm.returncode, warm.stdout)

    def test_source_change_invalidates_cache(self, tmp_path):
        target = tmp_path / "t.py"
        target.write_text("X = 1\n")
        cache = tmp_path / "lint-cache.json"
        clean = run_lint(str(target), "--cache", str(cache))
        assert clean.returncode == 0
        target.write_text("import time\n\nT = time.time()\n")
        dirty = run_lint(str(target), "--cache", str(cache))
        assert dirty.returncode == 1
        assert "SL001" in dirty.stdout


class TestBaselineFlags:
    def test_write_baseline_then_lint_exits_zero(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        wrote = run_lint(
            str(FIXTURES), "--baseline", str(baseline), "--write-baseline"
        )
        assert wrote.returncode == 0
        assert baseline.exists()
        relint = run_lint(str(FIXTURES), "--baseline", str(baseline))
        assert relint.returncode == 0, relint.stdout
        assert "baselined" in relint.stdout

    def test_new_finding_beats_stale_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        only_one = run_lint(
            str(FIXTURES / "sl001_wallclock.py"),
            "--baseline",
            str(baseline),
            "--write-baseline",
        )
        assert only_one.returncode == 0
        # the baseline grandfathers SL001 but not the SL002 fixture
        proc = run_lint(
            str(FIXTURES / "sl001_wallclock.py"),
            str(FIXTURES / "sl002_rng.py"),
            "--baseline",
            str(baseline),
        )
        assert proc.returncode == 1
        assert "SL002" in proc.stdout
        assert "SL001" not in proc.stdout
