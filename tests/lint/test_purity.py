"""SL008 guard checks and mutation tests.

The mutation tests are the teeth of the rules: they lint *real repo
source* with one safety property surgically broken and assert the rule
catches it, alongside the unmutated precondition staying clean.
"""

import ast
import textwrap
from pathlib import Path

from repro.lint import lint_source
from repro.lint.core import FileContext
from repro.lint.graph import Project
from repro.lint.purity import is_hot_module, unguarded_touches

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def ctx_for(module, source):
    source = textwrap.dedent(source)
    return FileContext(
        path=Path(f"{module.replace('.', '/')}.py"),
        module=module,
        source=source,
        lines=source.splitlines(),
        tree=ast.parse(source),
    )


def project_of(**modules):
    return Project.from_contexts([ctx_for(m, s) for m, s in modules.items()])


def unguarded(project, module):
    return list(unguarded_touches(project, module))


# ---------------------------------------------------------------------------
# SL008: guard idioms
# ---------------------------------------------------------------------------


class TestGuardIdioms:
    def test_unguarded_call_fires(self):
        p = project_of(m="def f(t):\n    TRACE.emit(t, 'x', 'y')\n")
        assert len(unguarded(p, "m")) == 1

    def test_direct_guard_is_clean(self):
        p = project_of(
            m="""
            def f(t):
                if TRACE.enabled:
                    TRACE.emit(t, 'x', 'y')
            """
        )
        assert unguarded(p, "m") == []

    def test_hoisted_alias_guard_is_clean(self):
        p = project_of(
            m="""
            def f(t):
                trace_on = TRACE.enabled
                if trace_on:
                    TRACE.emit(t, 'x', 'y')
            """
        )
        assert unguarded(p, "m") == []

    def test_compound_and_guard_is_clean(self):
        p = project_of(
            m="""
            def f(t, pdu):
                if pdu and SPANS.enabled:
                    SPANS.drop('pktbuf')
            """
        )
        assert unguarded(p, "m") == []

    def test_boolop_expression_guard_is_clean(self):
        p = project_of(m="def f(t):\n    TRACE.enabled and TRACE.emit(t, 'x', 'y')\n")
        assert unguarded(p, "m") == []

    def test_ifexp_guard_is_clean(self):
        p = project_of(
            m="""
            def f(t):
                return TRACE.emit(t, 'x', 'y') if TRACE.enabled else None
            """
        )
        assert unguarded(p, "m") == []

    def test_early_return_guard_is_clean(self):
        p = project_of(
            m="""
            def f(t):
                if not TRACE.enabled:
                    return
                TRACE.emit(t, 'x', 'y')
            """
        )
        assert unguarded(p, "m") == []

    def test_wrong_hub_guard_still_fires(self):
        p = project_of(
            m="""
            def f(t):
                if SPANS.enabled:
                    TRACE.emit(t, 'x', 'y')
            """
        )
        assert len(unguarded(p, "m")) == 1

    def test_or_guard_still_fires(self):
        # `A or B` implies neither: the emit can run with TRACE off.
        p = project_of(
            m="""
            def f(t):
                if SPANS.enabled or TRACE.enabled:
                    TRACE.emit(t, 'x', 'y')
                if not (TRACE.enabled or t):
                    return
                TRACE.emit(t, 'x', 'y')
            """
        )
        assert len(unguarded(p, "m")) == 2

    def test_unguarded_store_fires(self):
        p = project_of(m="def f(t):\n    SPANS.now_hint = t\n")
        touches = unguarded(p, "m")
        assert len(touches) == 1
        assert touches[0][1].kind == "store"

    def test_cold_module_is_out_of_scope(self):
        assert not is_hot_module("repro.topo.builder")
        p = project_of(**{"repro.topo.builder": "def f(t):\n    TRACE.emit(t, 'x', 'y')\n"})
        assert unguarded(p, "repro.topo.builder") == []

    def test_hot_prefixes_are_in_scope(self):
        for module in ("repro.sim.kernel", "repro.ble.conn", "repro.net.rpl", "m"):
            assert is_hot_module(module)


class TestDelegatedGuards:
    """A helper that touches a hub unguarded fires whatever its callers do:
    the guard sits at the seam, never behind a call."""

    def test_caller_guarded_helper_fires(self):
        p = project_of(
            m="""
            def emit(t):
                TRACE.emit(t, 'x', 'y')

            def f(t):
                if TRACE.enabled:
                    emit(t)
            """
        )
        touches = unguarded(p, "m")
        assert [(fn.name, touch.line) for fn, touch in touches] == [("emit", 3)]

    def test_one_unguarded_call_site_breaks_the_proof(self):
        source = textwrap.dedent(
            """
            def emit(t):
                TRACE.emit(t, 'x', 'y')

            def f(t):
                if TRACE.enabled:
                    emit(t)

            def g(t):
                emit(t)
            """
        )
        findings = lint_source(source, "m.py", module="m")
        assert [(f.code, f.line) for f in findings] == [("SL008", 3)]
        assert "in emit() is not dominated by 'TRACE.enabled' in the same function" in (
            findings[0].message
        )

    def test_guard_delegation_through_chains_fires(self):
        p = project_of(
            m="""
            def emit(t):
                TRACE.emit(t, 'x', 'y')

            def mid(t):
                emit(t)

            def f(t):
                if TRACE.enabled:
                    mid(t)
            """
        )
        assert [fn.name for fn, _ in unguarded(p, "m")] == ["emit"]

    def test_ref_edge_forces_unguarded(self):
        # registering the helper as a callback means it later runs in the
        # dispatcher's context -- the registration-site guard proves nothing.
        p = project_of(
            m="""
            def emit(t):
                TRACE.emit(t, 'x', 'y')

            def f(sim):
                if TRACE.enabled:
                    sim.at(5, emit)
            """
        )
        touches = unguarded(p, "m")
        assert len(touches) == 1

    def test_cold_callers_change_nothing(self):
        # a hot helper fires on its own body, whoever calls it from where
        p = project_of(
            m="""
            def emit(t):
                TRACE.emit(t, 'x', 'y')

            def f(t):
                if TRACE.enabled:
                    emit(t)
            """,
            **{
                "repro.topo.builder": """
                from m import emit

                def cold(t):
                    emit(t)
                """
            },
        )
        assert [fn.name for fn, _ in unguarded(p, "m")] == ["emit"]
        assert unguarded(p, "repro.topo.builder") == []


# ---------------------------------------------------------------------------
# Mutation tests: real repo source with one safety property broken
# ---------------------------------------------------------------------------


def repo_source(rel):
    return (SRC / rel).read_text(encoding="utf-8")


def lint_repo_source(rel, source):
    module = "repro." + rel[:-3].replace("/", ".")
    return lint_source(source, str(SRC / rel), module=module)


class TestMutations:
    def test_sl008_fires_when_trace_tx_guard_removed(self):
        original = repo_source("ble/conn.py")
        guard = "        if not TRACE.enabled:\n            return\n"
        assert guard in original, "mutation anchor moved -- update the test"
        assert lint_repo_source("ble/conn.py", original) == []
        mutated = original.replace(guard, "", 1)
        codes = {f.code for f in lint_repo_source("ble/conn.py", mutated)}
        assert codes == {"SL008"}

    def test_sl007_fires_when_ms_conversion_uses_wrong_scale(self):
        original = repo_source("exp/runner.py")
        anchor = "cfg.max_event_len_ms * MSEC"
        assert anchor in original, "mutation anchor moved -- update the test"
        assert lint_repo_source("exp/runner.py", original) == []
        mutated = original.replace(anchor, "cfg.max_event_len_ms * SEC", 1)
        codes = {f.code for f in lint_repo_source("exp/runner.py", mutated)}
        assert "SL007" in codes
