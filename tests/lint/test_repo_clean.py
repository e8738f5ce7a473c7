"""The acceptance gate: the repo lints clean, and mutations are caught.

``python -m repro lint`` exiting 0 with an empty baseline is a hard
acceptance criterion; the mutation tests prove the zero isn't vacuous --
reintroducing the exact defects the rules exist for (a ``time.time()`` in
the BLE connection machinery, an unseeded draw in the kernel) flips the
result to failing.
"""

import ast
from pathlib import Path

from repro.lint import lint_paths, lint_source

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"


def test_repo_is_simlint_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n".join(f.render() for f in findings)


def _imported_modules(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_sim_package_reads_no_host_clock():
    """The kernel and its helpers need no wall-clock exemption at all."""
    files = sorted((SRC / "sim").glob("*.py"))
    assert files
    for path in files:
        source = path.read_text()
        assert "allow-wallclock" not in source, path.name
        imported = _imported_modules(ast.parse(source))
        assert not imported & {"time", "repro.obs.wallclock"}, path.name


class TestMutationIsCaught:
    def _mutate(self, relpath: str, addition: str):
        path = SRC / relpath
        source = path.read_text()
        baseline = lint_source(source, path)
        assert baseline == [], f"{relpath} must lint clean before mutation"
        return lint_source(source + addition, path)

    def test_wallclock_in_ble_conn(self):
        findings = self._mutate(
            "ble/conn.py",
            "\n\ndef _leak_wallclock():\n"
            "    import time\n\n"
            "    return time.time()\n",
        )
        assert any(f.code == "SL001" for f in findings)

    def test_global_random_in_kernel(self):
        findings = self._mutate(
            "sim/kernel.py",
            "\n\ndef _leak_entropy():\n"
            "    import random\n\n"
            "    return random.random()\n",
        )
        assert any(f.code == "SL002" for f in findings)

    def test_set_iteration_in_export(self):
        findings = self._mutate(
            "obs/export.py",
            "\n\ndef _leak_hash_order(names):\n"
            "    pending = set(names)\n"
            "    return [n for n in pending]\n",
        )
        assert any(f.code == "SL003" for f in findings)

    def test_env_read_in_cache(self):
        findings = self._mutate(
            "exp/cache.py",
            "\n\ndef _leak_env():\n"
            "    import os\n\n"
            "    return os.environ.get('REPRO_CACHE_DIR')\n",
        )
        assert any(f.code == "SL005" for f in findings)
