"""Instrumentation-guard proof (SL008).

SL008 makes the <2% disabled-overhead bar a *static* invariant.  The
hot-path contract (DESIGN.md) is: every ``METRICS``/``TRACE``/``SPANS``
hub call on the kernel/BLE/L2CAP/IP dispatch path sits behind its
``.enabled`` predicate, so a disabled subsystem costs one attribute load
and one branch.  An A/B test measures that; this rule proves it.  The
analysis accepts the idioms the codebase actually uses:

* a direct guard -- ``if TRACE.enabled: TRACE.emit(...)``,
* a hoisted local -- ``trace_on = TRACE.enabled`` ... ``if trace_on:``,
* compound tests -- ``if pdu.payload and METRICS.enabled:``, and
* *delegated* guards: a helper whose body emits unguarded is fine when
  every one of its hot-path call sites is itself guarded.  That proof is
  a greatest fixpoint over the call graph (assume every called helper is
  always-guarded, discard any with an unguarded hot call site, repeat),
  so guard delegation composes through chains of helpers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.lint.graph import EDGE_REF, FunctionInfo, Project, terminal_name

#: The guarded instrumentation hubs, by conventional singleton name.
HUB_NAMES = ("METRICS", "SPANS", "TRACE")

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
    """Collect hub touches and per-call-site guard sets for one function."""

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.touches: List[HubTouch] = []
        #: (line, col) of resolved call sites -> dominating guard set.
        self.call_guards: Dict[Tuple[int, int], FrozenSet[str]] = {}
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
            if isinstance(node, ast.BoolOp):
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
            self.call_guards[(expr.lineno, expr.col_offset)] = guarded
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


@dataclass
class GuardAnalysis:
    """Project-wide SL008 facts."""

    project: Project
    walkers: Dict[str, _GuardWalker] = field(default_factory=dict)
    #: hub -> set of functions proven always-called-under-guard.
    always_guarded: Dict[str, Set[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for qualname in sorted(self.project.functions):
            self.walkers[qualname] = _GuardWalker(self.project.functions[qualname])
        for hub in HUB_NAMES:
            self.always_guarded[hub] = self._fixpoint_always_guarded(hub)

    def _call_sites_of(self, qualname: str) -> List[Tuple[FunctionInfo, int, int, str]]:
        out = []
        for caller_name in sorted(self.project.functions):
            caller = self.project.functions[caller_name]
            for site in caller.calls:
                if site.callee == qualname:
                    out.append((caller, site.line, site.col, site.kind))
        return out

    def _fixpoint_always_guarded(self, hub: str) -> Set[str]:
        # greatest fixpoint: start from "every called function is guarded",
        # peel off any with an unguarded hot-path call site whose caller is
        # not itself always-guarded.
        candidates: Set[str] = set()
        sites: Dict[str, List[Tuple[FunctionInfo, int, int, str]]] = {}
        for qualname in sorted(self.project.functions):
            found = self._call_sites_of(qualname)
            if found:
                sites[qualname] = found
                candidates.add(qualname)
        changed = True
        while changed:
            changed = False
            for qualname in sorted(candidates):
                for caller, line, col, kind in sites[qualname]:
                    if not is_hot_module(caller.module):
                        continue  # cold call sites don't hit the hot path
                    walker = self.walkers[caller.qualname]
                    guard = walker.call_guards.get((line, col), frozenset())
                    if kind == EDGE_REF:
                        # a callback registration: the function later runs
                        # in the dispatcher's (unguarded) context.
                        guard = frozenset()
                    if hub in guard:
                        continue
                    if caller.qualname in candidates and caller.qualname != qualname:
                        continue  # caller itself only ever runs under guard
                    candidates.discard(qualname)
                    changed = True
                    break
        return candidates

    def unguarded_touches(self, module: str) -> Iterator[Tuple[FunctionInfo, HubTouch, str]]:
        """Yield SL008 violations in ``module``: (function, touch, detail)."""
        if not is_hot_module(module):
            return
        for qualname in sorted(self.walkers):
            fn = self.project.functions[qualname]
            if fn.module != module:
                continue
            walker = self.walkers[qualname]
            for touch in walker.touches:
                if touch.hub in touch.guarded_by:
                    continue
                if qualname in self.always_guarded[touch.hub]:
                    continue
                detail = self._unguarded_reason(qualname, touch.hub)
                yield fn, touch, detail

    def _unguarded_reason(self, qualname: str, hub: str) -> str:
        sites = self._call_sites_of(qualname)
        if not sites:
            return (
                "and the function has no statically-known call sites"
                " (dispatch callbacks must guard internally)"
            )
        for caller, line, col, kind in sites:
            if not is_hot_module(caller.module):
                continue
            walker = self.walkers.get(caller.qualname)
            guard = (
                walker.call_guards.get((line, col), frozenset())
                if walker is not None and kind != EDGE_REF
                else frozenset()
            )
            if hub not in guard and caller.qualname not in self.always_guarded[hub]:
                return (
                    f"and it is called unguarded from"
                    f" {caller.qualname.split('.')[-1]}() at line {line}"
                )
        return "and not every call site could be proven guarded"


def compute_guards(project: Project) -> GuardAnalysis:
    return project.analysis("guards", lambda: GuardAnalysis(project))  # type: ignore[return-value]
