"""The project symbol table and call graph under simlint 2.0."""

import ast
import textwrap
from pathlib import Path

from repro.lint.core import FileContext
from repro.lint.graph import EDGE_CALL, EDGE_PARTIAL, EDGE_REF, Project


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


class TestSymbolTable:
    def test_functions_classes_and_methods_are_indexed(self):
        p = project_of(
            m="""
            def f():
                pass

            class C:
                def meth(self):
                    pass
            """
        )
        assert "m.f" in p.functions
        assert "m.C" in p.classes
        assert p.classes["m.C"].methods["meth"] == "m.C.meth"

    def test_self_and_cls_stripped_from_params(self):
        p = project_of(
            m="""
            class C:
                def meth(self, a, b):
                    pass
            """
        )
        assert p.functions["m.C.meth"].params == ["a", "b"]

    def test_sequence_annotated_params_recorded(self):
        p = project_of(
            m="""
            from typing import Sequence

            def mean(samples: Sequence[float], scale: float):
                pass
            """
        )
        assert p.functions["m.mean"].seq_params == frozenset({"samples"})


class TestCallResolution:
    def test_local_and_imported_calls_resolve(self):
        p = project_of(
            a="""
            def helper():
                pass

            def caller():
                helper()
            """,
            b="""
            from a import helper

            def other():
                helper()
            """,
        )
        assert [c.callee for c in p.functions["a.caller"].calls] == ["a.helper"]
        assert [c.callee for c in p.functions["b.other"].calls] == ["a.helper"]

    def test_self_method_dispatch_resolves_through_mro(self):
        p = project_of(
            m="""
            class Base:
                def tick(self):
                    pass

            class Child(Base):
                def run(self):
                    self.tick()
            """
        )
        assert [c.callee for c in p.functions["m.Child.run"].calls] == ["m.Base.tick"]

    def test_typed_local_method_dispatch(self):
        p = project_of(
            m="""
            class Conn:
                def poll(self):
                    pass

            def drive():
                c = Conn()
                c.poll()
            """
        )
        callees = {c.callee for c in p.functions["m.drive"].calls}
        assert "m.Conn.poll" in callees

    def test_partial_creates_partial_edge(self):
        p = project_of(
            m="""
            import functools

            def target():
                pass

            def maker():
                return functools.partial(target, 1)
            """
        )
        edges = [(c.callee, c.kind) for c in p.functions["m.maker"].calls]
        assert ("m.target", EDGE_PARTIAL) in edges

    def test_partial_bound_local_call_resolves_to_wrapped(self):
        p = project_of(
            m="""
            import functools

            def target():
                pass

            def caller():
                cb = functools.partial(target)
                cb()
            """
        )
        kinds = {(c.callee, c.kind) for c in p.functions["m.caller"].calls}
        assert ("m.target", EDGE_CALL) in kinds

    def test_bare_reference_argument_is_ref_edge(self):
        p = project_of(
            m="""
            def callback():
                pass

            def register(sim):
                sim.at(5, callback)
            """
        )
        edges = [(c.callee, c.kind) for c in p.functions["m.register"].calls]
        assert ("m.callback", EDGE_REF) in edges

    def test_external_calls_keep_dotted_path(self):
        p = project_of(
            m="""
            import time

            def f():
                return time.time()
            """
        )
        assert [c.callee for c in p.functions["m.f"].calls] == ["time.time"]


class TestReturnsSet:
    def test_set_literal_and_annotation(self):
        p = project_of(
            m="""
            def lit():
                return {1, 2}

            def ann() -> set:
                return build()

            def build():
                return set()
            """
        )
        assert p.functions["m.lit"].returns_set
        assert p.functions["m.ann"].returns_set
        assert p.functions["m.build"].returns_set


class TestDeterminism:
    def test_analysis_memoised_once(self):
        p = project_of(m="def f():\n    pass\n")
        calls = []
        p.analysis("k", lambda: calls.append(1) or "v")
        p.analysis("k", lambda: calls.append(1) or "v")
        assert calls == [1]
