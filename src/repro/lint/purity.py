"""Instrumentation-guard check (SL008): one guard per seam.

SL008 makes the <2% disabled-overhead bar a *static* invariant.  The
hot-path contract (DESIGN.md) is: every ``TRACE``/``SPANS`` hub call or
store on the kernel/BLE/L2CAP/IP dispatch path sits behind its own hub's
``.enabled`` predicate in the same function, so a disabled subsystem
costs one attribute load and one branch.  An A/B test measures that; this
rule proves it, one function at a time, accepting the idioms the codebase
uses:

* a direct guard -- ``if TRACE.enabled: TRACE.emit(...)``,
* a hoisted local -- ``trace_on = TRACE.enabled`` ... ``if trace_on:``,
* an ``and`` chain -- ``if pdu.payload and SPANS.enabled:``,
* a conditional expression -- ``TRACE.emit(...) if TRACE.enabled else None``,
* an early return -- ``if not TRACE.enabled: return``.

A helper that touches a hub without its own guard fires whatever its
callers do: the guard sits at the seam, so proving it needs no call graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.lint.graph import FunctionInfo, Project, terminal_name

#: The guarded instrumentation hubs, by conventional singleton name.
HUB_NAMES = ("SPANS", "TRACE")

#: Module prefixes that constitute the hot dispatch path for SL008.
HOT_PREFIXES = ("repro.sim.kernel", "repro.ble", "repro.l2cap", "repro.net")


def is_hot_module(module: str) -> bool:
    """Hot-path scope: the named prefixes, plus anything outside ``repro``
    (fixtures and ad-hoc files lint with the rule active)."""
    if not module.startswith("repro"):
        return True
    return any(
        module == p or module.startswith(p + ".") for p in HOT_PREFIXES
    )


# ---------------------------------------------------------------------------
# SL008: guard analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HubTouch:
    """One call/store on an instrumentation hub inside a function."""

    hub: str
    line: int
    col: int
    #: hubs whose ``.enabled`` predicates dominate this site.
    guarded_by: FrozenSet[str]
    #: ``call`` or ``store`` (attribute assignment such as ``SPANS.now_hint``).
    kind: str


class _GuardWalker:
    """Collect the hub touches of one function with their guard sets."""

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.touches: List[HubTouch] = []
        #: local alias name -> hubs its truthiness implies.
        self.aliases: Dict[str, FrozenSet[str]] = {}
        self._collect_aliases()
        node = fn.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        self._walk_body(node.body, frozenset())

    # -- aliases -------------------------------------------------------

    def _collect_aliases(self) -> None:
        node = self.fn.node
        for child in ast.walk(node):  # type: ignore[arg-type]
            if isinstance(child, ast.Assign) and len(child.targets) == 1:
                target = child.targets[0]
                if isinstance(target, ast.Name):
                    hubs = self._hubs_in_test(child.value, negated=False)
                    if hubs:
                        self.aliases[target.id] = hubs

    def _hubs_in_test(self, test: ast.expr, negated: bool) -> FrozenSet[str]:
        """Hubs whose enabled-ness the (possibly compound) test implies."""
        found: Set[str] = set()

        def scan(node: ast.expr, neg: bool) -> None:
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                scan(node.operand, not neg)
                return
            if neg:
                return
            if isinstance(node, ast.Attribute) and node.attr == "enabled":
                hub = terminal_name(node.value)
                if hub in HUB_NAMES:
                    found.add(hub)
                return
            if isinstance(node, ast.Name) and node.id in self.aliases:
                found.update(self.aliases[node.id])
                return
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
                for value in node.values:
                    scan(value, neg)
                return
            if isinstance(node, ast.Compare):
                return  # `x.enabled == False` style: not a sanctioned guard

        scan(test, negated)
        return frozenset(found)

    # -- structural walk -----------------------------------------------

    def _walk_body(self, body: List[ast.stmt], guarded: FrozenSet[str]) -> None:
        for stmt in body:
            self._walk_stmt(stmt, guarded)
            # early-return guard: `if not HUB.enabled: return` dominates
            # everything after it in this block with HUB's negation.
            if (
                isinstance(stmt, ast.If)
                and not stmt.orelse
                and all(
                    isinstance(s, (ast.Return, ast.Raise, ast.Continue, ast.Break))
                    for s in stmt.body
                )
            ):
                guarded = guarded | self._hubs_in_test(stmt.test, negated=True)

    def _walk_stmt(self, stmt: ast.stmt, guarded: FrozenSet[str]) -> None:
        if isinstance(stmt, ast.If):
            pos = self._hubs_in_test(stmt.test, negated=False)
            neg = self._hubs_in_test(stmt.test, negated=True)
            self._walk_expr(stmt.test, guarded)
            self._walk_body(stmt.body, guarded | pos)
            self._walk_body(stmt.orelse, guarded | neg)
        elif isinstance(stmt, (ast.While,)):
            pos = self._hubs_in_test(stmt.test, negated=False)
            self._walk_expr(stmt.test, guarded)
            self._walk_body(stmt.body, guarded | pos)
            self._walk_body(stmt.orelse, guarded)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._walk_expr(stmt.iter, guarded)
            self._walk_body(stmt.body, guarded)
            self._walk_body(stmt.orelse, guarded)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._walk_body(stmt.body, guarded)
        elif isinstance(stmt, ast.ClassDef):
            self._walk_body(stmt.body, guarded)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._walk_expr(item.context_expr, guarded)
            self._walk_body(stmt.body, guarded)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, guarded)
            for handler in stmt.handlers:
                self._walk_body(handler.body, guarded)
            self._walk_body(stmt.orelse, guarded)
            self._walk_body(stmt.finalbody, guarded)
        elif isinstance(stmt, ast.Assign):
            self._note_store(stmt.targets, stmt, guarded)
            self._walk_expr(stmt.value, guarded)
        elif isinstance(stmt, ast.AugAssign):
            self._note_store([stmt.target], stmt, guarded)
            self._walk_expr(stmt.value, guarded)
        elif isinstance(stmt, ast.AnnAssign):
            self._note_store([stmt.target], stmt, guarded)
            if stmt.value is not None:
                self._walk_expr(stmt.value, guarded)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._walk_expr(stmt.value, guarded)
        elif isinstance(stmt, ast.Expr):
            self._walk_expr(stmt.value, guarded)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._walk_expr(child, guarded)
                elif isinstance(child, ast.stmt):
                    self._walk_stmt(child, guarded)

    def _note_store(
        self, targets: List[ast.expr], stmt: ast.stmt, guarded: FrozenSet[str]
    ) -> None:
        for target in targets:
            if isinstance(target, ast.Attribute):
                hub = terminal_name(target.value)
                if hub in HUB_NAMES:
                    self.touches.append(
                        HubTouch(
                            hub=hub,
                            line=stmt.lineno,
                            col=stmt.col_offset,
                            guarded_by=guarded,
                            kind="store",
                        )
                    )

    def _walk_expr(self, expr: ast.expr, guarded: FrozenSet[str]) -> None:
        if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And):
            acc = guarded
            for value in expr.values:
                self._walk_expr(value, acc)
                acc = acc | self._hubs_in_test(value, negated=False)
            return
        if isinstance(expr, ast.IfExp):
            pos = self._hubs_in_test(expr.test, negated=False)
            neg = self._hubs_in_test(expr.test, negated=True)
            self._walk_expr(expr.test, guarded)
            self._walk_expr(expr.body, guarded | pos)
            self._walk_expr(expr.orelse, guarded | neg)
            return
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute):
                hub = terminal_name(func.value)
                if hub in HUB_NAMES and isinstance(func.value, ast.Name):
                    self.touches.append(
                        HubTouch(
                            hub=hub,
                            line=expr.lineno,
                            col=expr.col_offset,
                            guarded_by=guarded,
                            kind="call",
                        )
                    )
            self._walk_expr(func, guarded)
            for arg in expr.args:
                self._walk_expr(arg, guarded)
            for kw in expr.keywords:
                self._walk_expr(kw.value, guarded)
            return
        if isinstance(expr, (ast.FunctionDef,)):  # pragma: no cover - defensive
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._walk_expr(child, guarded)


def unguarded_touches(project: Project, module: str) -> Iterator[Tuple[FunctionInfo, HubTouch]]:
    """SL008 violations in ``module``: each hub touch that its own hub's
    guard does not dominate, with the function it sits in."""
    if not is_hot_module(module):
        return
    for qualname in sorted(project.functions):
        fn = project.functions[qualname]
        if fn.module != module:
            continue
        for touch in _GuardWalker(fn).touches:
            if touch.hub not in touch.guarded_by:
                yield fn, touch
