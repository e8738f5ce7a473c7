"""Shared test scaffolding (not a test package; no test_* modules here)."""

from pathlib import Path

#: The committed 4-node line description (CI's observed-run scenario).
LINE4 = str(Path(__file__).resolve().parents[2] / "examples" / "line4.yml")
