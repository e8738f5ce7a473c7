"""Per-rule behaviour of the simlint pass.

The fixture files under ``fixtures/`` are the acceptance contract: each
contains exactly one violation of exactly one rule, and linting it must
produce that rule's code and nothing else.  The inline-source tests pin
the sharper edges of every rule (what must fire, what must stay silent).
"""

from pathlib import Path

import pytest

from repro.lint import default_rules, lint_paths, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

FIXTURE_CASES = [
    ("sl001_wallclock.py", "SL001"),
    ("sl001_launder.py", "SL001"),
    ("sl002_rng.py", "SL002"),
    ("sl002_launder.py", "SL002"),
    ("sl003_setiter.py", "SL003"),
    ("sl003_setcall.py", "SL003"),
    ("sl004_floattime.py", "SL004"),
    ("sl005_env.py", "SL005"),
    ("sl005_launder.py", "SL005"),
    ("sl006_magic.py", "SL006"),
    ("sl007_units.py", "SL007"),
    ("sl008_unguarded.py", "SL008"),
]

#: fixtures that must lint CLEAN: regression guards for false positives
#: the interprocedural upgrade could have introduced.
CLEAN_FIXTURES = ["clean_sorted_sets.py"]


def codes(findings):
    return sorted({f.code for f in findings})


class TestFixtures:
    @pytest.mark.parametrize("filename,expected", FIXTURE_CASES)
    def test_each_fixture_fires_exactly_its_rule(self, filename, expected):
        findings = lint_paths([FIXTURES / filename])
        assert codes(findings) == [expected], [f.render() for f in findings]

    @pytest.mark.parametrize("filename,expected", FIXTURE_CASES)
    def test_findings_carry_location_and_text(self, filename, expected):
        for finding in lint_paths([FIXTURES / filename]):
            assert finding.line >= 1
            assert finding.text, "finding should quote the offending line"

    @pytest.mark.parametrize("filename", CLEAN_FIXTURES)
    def test_clean_fixtures_stay_clean(self, filename):
        findings = lint_paths([FIXTURES / filename])
        assert findings == [], [f.render() for f in findings]


class TestWallclockRule:
    def test_datetime_now_fires(self):
        src = "from datetime import datetime\n\nT0 = datetime.now()\n"
        assert "SL001" in codes(lint_source(src, "x.py"))

    def test_from_import_and_call_both_fire(self):
        src = "from time import perf_counter\n\nt = perf_counter()\n"
        findings = [f for f in lint_source(src, "x.py") if f.code == "SL001"]
        assert len(findings) == 2  # the import and the call

    def test_only_wallclock_module_is_allowlisted(self):
        src = "import time\n\nt = time.time()\n"
        assert lint_source(src, "x.py", module="repro.obs.wallclock") == []
        findings = lint_source(src, "x.py", module="repro.obs.export")
        assert "SL001" in codes(findings)

    def test_sim_now_is_clean(self):
        src = "def f(sim):\n    return sim.now\n"
        assert codes(lint_source(src, "x.py")) == []


class TestRngRule:
    def test_unseeded_random_instance_fires(self):
        src = "import random\n\nrng = random.Random()\n"
        assert "SL002" in codes(lint_source(src, "x.py"))

    def test_seeded_random_instance_is_clean(self):
        src = "import random\n\nrng = random.Random(1234)\n"
        assert codes(lint_source(src, "x.py")) == []

    def test_numpy_random_fires(self):
        src = "import numpy as np\n\nx = np.random.default_rng(7)\n"
        assert "SL002" in codes(lint_source(src, "x.py"))

    def test_from_random_import_fires(self):
        src = "from random import randint\n\nx = randint(0, 10)\n"
        findings = [f for f in lint_source(src, "x.py") if f.code == "SL002"]
        assert len(findings) == 2  # the import and the call

    def test_rng_module_is_allowlisted(self):
        src = "import random\n\nx = random.random()\n"
        assert lint_source(src, "x.py", module="repro.sim.rng") == []


class TestSetIterRule:
    def test_sorted_iteration_is_clean(self):
        src = "def f(xs):\n    s = set(xs)\n    return [x for x in sorted(s)]\n"
        assert codes(lint_source(src, "x.py")) == []

    def test_tainted_variable_is_tracked(self):
        src = "def f(xs):\n    s = set(xs)\n    return list(s)\n"
        assert "SL003" in codes(lint_source(src, "x.py"))

    def test_set_annotation_taints_parameter(self):
        src = "def f(xs: set) -> list:\n    return [x for x in xs]\n"
        assert "SL003" in codes(lint_source(src, "x.py"))

    def test_set_algebra_propagates_taint(self):
        src = (
            "def f(a, b):\n"
            "    live = set(a) | set(b)\n"
            "    for x in live:\n"
            "        print(x)\n"
        )
        assert "SL003" in codes(lint_source(src, "x.py"))

    def test_dict_iteration_is_clean(self):
        src = "def f(d: dict):\n    return [k for k in d]\n"
        assert codes(lint_source(src, "x.py")) == []

    def test_join_over_set_fires(self):
        src = "def f(xs):\n    return ','.join({str(x) for x in xs})\n"
        assert "SL003" in codes(lint_source(src, "x.py"))


class TestFloatTimeRule:
    def test_float_multiply_fires(self):
        src = "def f(interval_ns: int):\n    return interval_ns * 1.5\n"
        assert "SL004" in codes(lint_source(src, "x.py"))

    def test_division_conversion_is_exempt(self):
        src = "SEC = 10**9\n\ndef f(t_ns: int):\n    return t_ns / SEC\n"
        assert codes(lint_source(src, "x.py")) == []

    def test_conversion_call_boundary_is_exempt(self):
        src = "def f(t_ns, ns_to_s):\n    return ns_to_s(t_ns) * 1e6\n"
        assert codes(lint_source(src, "x.py")) == []

    def test_int_preserving_builtin_still_time(self):
        src = "def f(a_ns, b_ns):\n    return min(a_ns, b_ns) * 0.5\n"
        assert "SL004" in codes(lint_source(src, "x.py"))

    def test_integer_arithmetic_is_clean(self):
        src = "def f(t_ns: int, d_ns: int):\n    return t_ns + 2 * d_ns\n"
        assert codes(lint_source(src, "x.py")) == []

    def test_untimed_float_math_is_clean(self):
        src = "def f(ratio):\n    return ratio * 1.5\n"
        assert codes(lint_source(src, "x.py")) == []


class TestEnvRule:
    def test_cpu_count_fires(self):
        src = "import os\n\nN = os.cpu_count()\n"
        assert "SL005" in codes(lint_source(src, "x.py"))

    def test_cli_module_is_allowlisted(self):
        src = "import os\n\nW = os.environ.get('REPRO_WORKERS')\n"
        assert lint_source(src, "x.py", module="repro.exp.cli") == []

    def test_os_path_is_clean(self):
        src = "import os\n\np = os.path.join('a', 'b')\n"
        assert codes(lint_source(src, "x.py")) == []


class TestMagicTimingRule:
    def test_caps_constant_definition_is_exempt(self):
        src = "T_IFS_NS: int = 150_000\n"
        assert codes(lint_source(src, "x.py")) == []

    def test_product_form_fires(self):
        src = "USEC = 1000\n\ndef f(t_ns):\n    return t_ns + 150 * USEC\n"
        assert "SL006" in codes(lint_source(src, "x.py"))

    def test_product_form_in_caps_definition_is_exempt(self):
        src = "USEC = 1000\nT_IFS_NS: int = 150 * USEC\n"
        assert codes(lint_source(src, "x.py")) == []

    def test_unknown_literal_is_clean(self):
        src = "def f(t_ns):\n    return t_ns + 123_456\n"
        assert codes(lint_source(src, "x.py")) == []

    def test_units_module_is_allowlisted(self):
        src = "X = [150_000][0]\n"
        assert "SL006" in codes(lint_source(src, "x.py"))
        assert lint_source(src, "x.py", module="repro.sim.units") == []


class TestEngine:
    def test_default_rules_are_sl001_to_sl008(self):
        assert [r.code for r in default_rules()] == [f"SL00{i}" for i in range(1, 9)]

    def test_syntax_error_becomes_meta_finding(self):
        findings = lint_source("def broken(:\n", "x.py")
        assert codes(findings) == ["SL000"]

    def test_simlint_text_in_docstring_is_ignored(self):
        src = '"""Docs mention # simlint: allow-wallclock here."""\nX = 1\n'
        assert lint_source(src, "x.py") == []
