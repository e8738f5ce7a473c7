"""Interprocedural taint: wall-clock, RNG, env-read, and set-order flow.

PR 4's rules catch ``time.time()`` where it is *written*; this engine
catches it where it is *laundered*.  A helper that wraps a wall-clock read
(or an unseeded draw, or an ``os.environ`` access) taints itself, every
function that calls it taints transitively, and the flow-aware variants of
SL001/SL002/SL005 report each call into the tainted region with the full
call chain as evidence (``_jitter -> _now_hack -> time.time``).

Semantics, deliberately conservative and deterministic:

* **Sources** are the same syntactic patterns the intra-file rules match
  (the rules import the name sets below), so the two layers can never
  disagree about what counts as a read.
* **Barriers** are each rule's sanctioned modules (``repro.obs.wallclock``
  for wall-clock, ``repro.sim.rng`` for randomness, ``repro.exp.cli`` for
  env): taint never propagates *out of* a barrier module, because routing
  through it is exactly the sanctioned fix.  An inline suppression on the
  source line is likewise a barrier -- a justified read must not re-flag
  every caller.
* **Propagation** follows ``call`` and ``partial`` edges of the
  :class:`repro.lint.graph.Project` graph (a ``partial(f, ...)`` bakes the
  creator's context into ``f``); bare callback references do not
  propagate, since the callback runs in the dispatcher's context.
* The fixpoint is a worklist over sorted qualnames; ties in chain length
  break lexicographically, so evidence chains are stable across runs.

Set-order taint is different in kind: a function *returning* a set makes
its call sites order-hazardous.  :attr:`TaintAnalysis.set_returning`
closes ``returns_set`` over wrapper functions (``def g(): return f()``)
and feeds SL003's ``_is_setish``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.graph import EDGE_REF, FunctionInfo, Project, dotted, terminal_name

#: Taint kinds.
WALLCLOCK = "wallclock"
RNG = "rng"
ENV = "env"

KINDS = (WALLCLOCK, RNG, ENV)

#: kind -> modules taint never escapes from (the sanctioned homes).
BARRIER_MODULES: Dict[str, frozenset] = {
    WALLCLOCK: frozenset({"repro.obs.wallclock"}),
    RNG: frozenset({"repro.sim.rng"}),
    ENV: frozenset({"repro.exp.cli"}),
}

#: ``time`` module functions that read the host clock.
WALLCLOCK_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)
#: ``datetime``/``date`` class methods that read the host clock.
DATETIME_FACTORIES = frozenset({"now", "utcnow", "today"})
#: ``os`` functions that read the environment or host CPUs (SL005).
ENV_FUNCS = frozenset(
    {"getenv", "cpu_count", "sched_getaffinity", "process_cpu_count", "putenv"}
)


def source_kind(callee: str) -> Optional[Tuple[str, str]]:
    """Classify an *external* dotted call target as a taint source.

    Returns ``(kind, canonical_source)`` or None.  Operates on the resolved
    dotted path (``time.perf_counter``, ``random.random``, ``os.environ``),
    which the call resolver produces for imported externals.
    """
    head, _, rest = callee.partition(".")
    if head == "time" and rest in WALLCLOCK_TIME_FUNCS:
        return WALLCLOCK, callee
    if head in ("datetime", "date") and rest in DATETIME_FACTORIES:
        return WALLCLOCK, callee
    if head == "datetime" and rest.startswith(("datetime.", "date.")):
        tail = rest.rsplit(".", 1)[-1]
        if tail in DATETIME_FACTORIES:
            return WALLCLOCK, callee
    if head == "random":
        if rest == "Random":
            return None  # seeded construction is fine; unseeded caught below
        if rest:
            return RNG, callee
    if head == "numpy" and rest.startswith("random"):
        return RNG, callee
    if head == "os":
        if rest == "environ" or rest.startswith("environ."):
            return ENV, "os.environ"
        if rest in ENV_FUNCS:
            return ENV, callee
    return None


@dataclass
class Taint:
    """Why one function is tainted for one kind."""

    kind: str
    #: Qualname chain from this function down to the source call,
    #: ending with the canonical source (``time.time``).
    chain: Tuple[str, ...]
    #: Line of the call (or source read) inside this function.
    line: int

    def render_chain(self) -> str:
        return " -> ".join(self.chain)


class TaintAnalysis:
    """Fixpoint taint facts over one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: kind -> {qualname -> Taint}.
        self.tainted: Dict[str, Dict[str, Taint]] = {k: {} for k in KINDS}
        #: qualnames whose calls evaluate to sets (interprocedural SL003).
        self.set_returning: Set[str] = set()
        self._suppressed_lines = self._collect_suppressed_source_lines()
        self._seed_direct_sources()
        self._propagate()
        self._close_set_returning()

    # -- seeding -------------------------------------------------------

    def _collect_suppressed_source_lines(self) -> Dict[str, Set[int]]:
        """module -> lines carrying a simlint suppression (any rule).

        A suppressed source read is *sanctioned*: it must not seed taint,
        or every caller of the function holding it would light up
        despite the justified inline allow.
        """
        from repro.lint.core import parse_suppressions

        out: Dict[str, Set[int]] = {}
        alias_to_code = _suppression_alias_map()
        for module in sorted(self.project.modules):
            ctx = self.project.modules[module].ctx
            sup = parse_suppressions(ctx, alias_to_code)
            out[module] = set(sup.by_line)
        return out

    def _seed_direct_sources(self) -> None:
        for qualname in sorted(self.project.functions):
            fn = self.project.functions[qualname]
            for kind, source, line in _direct_sources(fn):
                if line in self._suppressed_lines.get(fn.module, ()):
                    continue
                if fn.module in BARRIER_MODULES[kind]:
                    continue
                current = self.tainted[kind].get(qualname)
                if current is None or line < current.line:
                    self.tainted[kind][qualname] = Taint(
                        kind=kind, chain=(qualname, source), line=line
                    )

    # -- propagation ---------------------------------------------------

    def _propagate(self) -> None:
        for kind in KINDS:
            barriers = BARRIER_MODULES[kind]
            facts = self.tainted[kind]
            changed = True
            while changed:
                changed = False
                for qualname in sorted(self.project.functions):
                    fn = self.project.functions[qualname]
                    if fn.module in barriers:
                        continue
                    best = facts.get(qualname)
                    for site in fn.calls:
                        if site.kind == EDGE_REF:
                            continue
                        callee_fact = facts.get(site.callee)
                        if callee_fact is None:
                            continue
                        callee = self.project.functions.get(site.callee)
                        if callee is not None and callee.module in barriers:
                            continue
                        if site.line in self._suppressed_lines.get(fn.module, ()):
                            continue
                        candidate = Taint(
                            kind=kind,
                            chain=(qualname,) + callee_fact.chain,
                            line=site.line,
                        )
                        if best is None or _chain_key(candidate) < _chain_key(best):
                            best = candidate
                    if best is not None and best is not facts.get(qualname):
                        facts[qualname] = best
                        changed = True

    def _close_set_returning(self) -> None:
        self.set_returning = {
            q for q, fn in self.project.functions.items() if fn.returns_set
        }
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.project.functions):
                if qualname in self.set_returning:
                    continue
                fn = self.project.functions[qualname]
                if _returns_call_to(fn, self.set_returning, self.project):
                    self.set_returning.add(qualname)
                    changed = True

    # -- queries -------------------------------------------------------

    def taint_of(self, kind: str, qualname: str) -> Optional[Taint]:
        return self.tainted[kind].get(qualname)

    def call_site_findings(
        self, module: str
    ) -> List[Tuple[str, FunctionInfo, "CallSiteTaint"]]:
        """Tainted project-function calls made from ``module``, sorted.

        Each item is ``(kind, caller, site_taint)``; the direct source
        inside the tainted callee is reported separately by the intra-file
        rule, so only *project-internal* callees appear here.
        """
        out: List[Tuple[str, FunctionInfo, CallSiteTaint]] = []
        for qualname in sorted(self.project.functions):
            fn = self.project.functions[qualname]
            if fn.module != module:
                continue
            for kind in KINDS:
                if fn.module in BARRIER_MODULES[kind]:
                    continue
                facts = self.tainted[kind]
                for site in fn.calls:
                    if site.kind == EDGE_REF:
                        continue
                    fact = facts.get(site.callee)
                    if fact is None:
                        continue
                    callee = self.project.functions.get(site.callee)
                    if callee is None or callee.module in BARRIER_MODULES[kind]:
                        continue
                    out.append(
                        (
                            kind,
                            fn,
                            CallSiteTaint(
                                line=site.line,
                                col=site.col,
                                callee=site.callee,
                                via_partial=site.kind != "call",
                                chain=(qualname,) + fact.chain,
                            ),
                        )
                    )
        out.sort(key=lambda item: (item[2].line, item[2].col, item[0], item[2].callee))
        return out


@dataclass(frozen=True)
class CallSiteTaint:
    """One tainted call site, ready to become a finding."""

    line: int
    col: int
    callee: str
    via_partial: bool
    chain: Tuple[str, ...]

    def render_chain(self) -> str:
        return " -> ".join(_short(q) for q in self.chain)


def _short(qualname: str) -> str:
    """Compress ``repro.ble.conn.Connection._tick`` to ``conn.Connection._tick``."""
    parts = qualname.split(".")
    if parts[0] == "repro" and len(parts) > 3:
        return ".".join(parts[2:])
    return qualname


def _chain_key(taint: Taint) -> Tuple[int, Tuple[str, ...]]:
    return (len(taint.chain), taint.chain)


def _suppression_alias_map() -> Dict[str, str]:
    from repro.lint.core import _alias_map
    from repro.lint.rules import default_rules

    return _alias_map(default_rules())


def _returns_call_to(fn: FunctionInfo, targets: Set[str], project: Project) -> bool:
    """Does ``fn`` return the result of a call into ``targets``?"""
    node = fn.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    resolver_calls = {(c.line, c.col): c.callee for c in fn.calls}
    for child in ast.walk(node):
        if isinstance(child, ast.Return) and isinstance(child.value, ast.Call):
            callee = resolver_calls.get(
                (child.value.lineno, child.value.col_offset)
            )
            if callee in targets:
                return True
    return False


# -- direct-source detection (shared with the intra-file rules) -------------


def _direct_sources(fn: FunctionInfo) -> List[Tuple[str, str, int]]:
    """``(kind, canonical_source, line)`` for every source read in ``fn``.

    Works from the resolved call edges where possible (imports already
    honoured by the resolver) plus a small AST pass for the patterns that
    are not calls (``os.environ[...]`` subscripts, attribute reads).
    """
    out: List[Tuple[str, str, int]] = []
    for site in fn.calls:
        if site.kind == EDGE_REF:
            continue
        classified = source_kind(site.callee)
        if classified is not None:
            out.append((classified[0], classified[1], site.line))
    node = fn.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute) and child.attr == "environ":
            root = terminal_name(child.value)
            if root == "os":
                out.append((ENV, "os.environ", child.lineno))
        elif isinstance(child, ast.Call):
            func = child.func
            # unseeded random.Random() / Random()
            callee = dotted(func)
            if callee.endswith("Random") and not child.args and not child.keywords:
                tail = callee.rsplit(".", 1)[-1]
                if tail == "Random" and callee in ("Random", "random.Random"):
                    out.append((RNG, "random.Random()", child.lineno))
                elif tail == "SystemRandom":
                    out.append((RNG, "random.SystemRandom", child.lineno))
    out.sort(key=lambda item: (item[2], item[0], item[1]))
    return out


def compute_taint(project: Project) -> TaintAnalysis:
    """The memoized entry point used by the flow-aware rules."""
    return project.analysis("taint", lambda: TaintAnalysis(project))  # type: ignore[return-value]
