"""Every example script runs to completion (short durations)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: Command-line arguments that keep a script short; the others take none.
SHORT_ARGS = {
    "quickstart.py": ["5"],
    "ble_vs_802154.py": ["5"],
    "coap_timeout_interplay.py": ["5"],
}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script), *SHORT_ARGS.get(script.name, [])],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
