"""``python -m repro lint``: exit codes and the text output."""

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
    def test_repo_exits_zero(self):
        proc = run_lint()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_each_fixture_exits_nonzero(self):
        for fixture in sorted(FIXTURES.glob("sl*.py")):
            proc = run_lint(str(fixture))
            assert proc.returncode == 1, f"{fixture.name}: {proc.stdout}"
            assert fixture.name[:5].upper() in proc.stdout, fixture.name
            assert proc.stderr == "", f"{fixture.name}: {proc.stderr}"

    def test_missing_path_exits_two(self):
        proc = run_lint("does/not/exist.py")
        assert proc.returncode == 2

    def test_undecodable_file_is_a_finding(self, tmp_path):
        target = tmp_path / "latin1.py"
        target.write_bytes(b'X = "\xff"\n')
        proc = run_lint(str(target))
        assert proc.returncode == 1, proc.stderr
        assert "SL000" in proc.stdout
        assert "Traceback" not in proc.stderr


class TestFormats:
    def test_text_format_names_rule_and_location(self):
        proc = run_lint(str(FIXTURES / "sl001_wallclock.py"))
        assert "SL001" in proc.stdout
        assert "sl001_wallclock.py:" in proc.stdout
