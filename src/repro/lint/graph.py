"""Project symbol table and call graph for whole-program simlint rules.

A :class:`Project` parses every file handed to the linter once, builds a
symbol table (modules, functions, classes, methods, imports), and resolves
call sites into a deterministic call graph.  The graph is deliberately
*syntactic and conservative*: it never executes code, and it only records
edges it can resolve with high confidence --

* direct calls to module-level functions (local or imported, honouring
  ``as`` aliases),
* method dispatch on ``self``/``cls`` through the project-class MRO,
* method dispatch on locals whose class is statically evident (assigned
  from ``ClassName(...)`` or annotated with a project class),
* ``functools.partial`` wrapping (a ``partial(f, ...)`` counts as an edge
  to ``f``: the wrapped callable runs with the creator's data flow), and
* bare function references passed as call arguments (``sim.at(when, cb)``)
  as weaker ``ref`` edges.  Taint does not flow along them, since a
  registered callback executes in the dispatcher's context, not the
  registrar's.

Everything is keyed by dotted *qualnames* (``repro.ble.conn.Connection.
_tick``) and iterated in sorted order, so downstream fixpoints -- the
taint engine in :mod:`repro.lint.taint` -- produce byte-identical results
regardless of filesystem enumeration order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guards
    from repro.lint.core import FileContext
    from repro.lint.taint import TaintAnalysis


def terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def dotted(node: ast.AST) -> str:
    """Render a Name/Attribute chain as ``a.b.c`` (best effort)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


#: Call-edge kinds, strongest first.
EDGE_CALL = "call"
EDGE_PARTIAL = "partial"
EDGE_REF = "ref"


@dataclass(frozen=True)
class CallSite:
    """One resolved outgoing edge of a function."""

    #: Resolved dotted target: a project qualname (``repro.x.f``) or an
    #: external dotted path (``time.time``, ``os.environ``).
    callee: str
    #: 1-based source line of the call/reference.
    line: int
    #: 0-based column.
    col: int
    #: :data:`EDGE_CALL`, :data:`EDGE_PARTIAL`, or :data:`EDGE_REF`.
    kind: str


@dataclass
class FunctionInfo:
    """Symbol-table entry for one function or method."""

    qualname: str
    module: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    #: Positional-or-keyword parameter names, ``self``/``cls`` stripped.
    params: List[str]
    #: Parameters annotated as collections (Sequence[...], list, ...):
    #: unit-polymorphic aggregation boundaries for SL007.
    seq_params: FrozenSet[str] = frozenset()
    #: Enclosing project class qualname, or None for module-level functions.
    class_qualname: Optional[str] = None
    #: Outgoing resolved edges, in source order.
    calls: List[CallSite] = field(default_factory=list)
    #: True when the function's return type is a set (annotation or a
    #: returned set expression); refined interprocedurally by the taint pass.
    returns_set: bool = False

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")


@dataclass
class ClassInfo:
    """Symbol-table entry for one class."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    #: Base classes, as dotted names resolved in module scope (best effort).
    bases: List[str] = field(default_factory=list)
    #: method name -> function qualname.
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Per-module slice of the symbol table."""

    module: str
    ctx: "FileContext"
    #: local name -> fully-qualified dotted target for imports.
    imports: Dict[str, str] = field(default_factory=dict)
    #: top-level function name -> qualname.
    functions: Dict[str, str] = field(default_factory=dict)
    #: class name -> qualname.
    classes: Dict[str, str] = field(default_factory=dict)


class Project:
    """Whole-program context shared by the interprocedural rules.

    Build once per lint invocation via :meth:`from_contexts`; the taint
    and unit analyses hang off it and are computed lazily (and at most
    once) by their rule's first ``check`` call.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: Lazily-attached analyses (set by the owning modules).
        self._taint: Optional["TaintAnalysis"] = None
        self._analysis_cache: Dict[str, object] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def from_contexts(cls, contexts: List["FileContext"]) -> "Project":
        project = cls()
        for ctx in sorted(contexts, key=lambda c: c.module):
            project._index_module(ctx)
        for qualname in sorted(project.functions):
            project._resolve_calls(project.functions[qualname])
        return project

    def _index_module(self, ctx: "FileContext") -> None:
        info = ModuleInfo(module=ctx.module, ctx=ctx)
        self.modules[ctx.module] = info
        for node in ctx.tree.body:
            self._index_statement(info, node, class_info=None)
        # imports can appear anywhere (function-local imports are common
        # for cycle breaking); collect them module-wide.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    local = (item.asname or item.name).split(".")[0]
                    target = item.name if item.asname else item.name.split(".")[0]
                    info.imports.setdefault(local, target)
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for item in node.names:
                    if item.name == "*":
                        continue
                    local = item.asname or item.name
                    info.imports.setdefault(local, f"{node.module}.{item.name}")

    def _index_statement(
        self, info: ModuleInfo, node: ast.stmt, class_info: Optional[ClassInfo]
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if class_info is None:
                qualname = f"{info.module}.{node.name}"
                info.functions[node.name] = qualname
            else:
                qualname = f"{class_info.qualname}.{node.name}"
                class_info.methods.setdefault(node.name, qualname)
            args = node.args.posonlyargs + node.args.args
            params = [a.arg for a in args]
            if class_info is not None and params and params[0] in ("self", "cls"):
                params = params[1:]
            seq_params = frozenset(
                a.arg for a in args + node.args.kwonlyargs
                if _annotation_is_sequence(a.annotation)
            )
            self.functions[qualname] = FunctionInfo(
                qualname=qualname,
                module=info.module,
                name=node.name,
                node=node,
                params=params,
                seq_params=seq_params,
                class_qualname=class_info.qualname if class_info else None,
                returns_set=_annotation_is_set(node.returns),
            )
        elif isinstance(node, ast.ClassDef) and class_info is None:
            qualname = f"{info.module}.{node.name}"
            cinfo = ClassInfo(
                qualname=qualname,
                module=info.module,
                name=node.name,
                node=node,
                bases=[dotted(b) for b in node.bases if dotted(b)],
            )
            info.classes[node.name] = qualname
            self.classes[qualname] = cinfo
            for child in node.body:
                self._index_statement(info, child, class_info=cinfo)

    # -- resolution ----------------------------------------------------

    def resolve_module_name(self, module: str, name: str) -> Optional[str]:
        """Resolve a bare name in ``module`` scope to a dotted target."""
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.functions:
            return info.functions[name]
        if name in info.classes:
            return info.classes[name]
        if name in info.imports:
            return info.imports[name]
        return None

    def _class_mro(self, qualname: str) -> Iterator[ClassInfo]:
        """The project-visible MRO of a class (naive DFS, cycles guarded)."""
        seen: Set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cinfo = self.classes.get(current)
            if cinfo is None:
                continue
            yield cinfo
            for base in cinfo.bases:
                head, _, tail = base.partition(".")
                resolved = self.resolve_module_name(cinfo.module, head)
                if resolved is None:
                    continue
                stack.append(f"{resolved}.{tail}" if tail else resolved)

    def resolve_method(self, class_qualname: str, method: str) -> Optional[str]:
        """Resolve ``method`` through the class's project MRO."""
        for cinfo in self._class_mro(class_qualname):
            if method in cinfo.methods:
                return cinfo.methods[method]
        return None

    def _resolve_calls(self, fn: FunctionInfo) -> None:
        resolver = _CallResolver(self, fn)
        resolver.run()

    # -- queries -------------------------------------------------------

    def analysis(self, key: str, factory: object) -> object:
        """Memoize a project-level analysis under ``key``."""
        if key not in self._analysis_cache:
            self._analysis_cache[key] = factory()  # type: ignore[operator]
        return self._analysis_cache[key]


def _annotation_is_set(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    target = node.value if isinstance(node, ast.Subscript) else node
    name = terminal_name(target)
    return name in ("set", "Set", "frozenset", "FrozenSet", "AbstractSet", "MutableSet")


_SEQUENCE_ANNOTATIONS = frozenset(
    {
        "Sequence",
        "List",
        "list",
        "Tuple",
        "tuple",
        "Iterable",
        "Iterator",
        "Collection",
        "Set",
        "set",
        "FrozenSet",
        "frozenset",
        "Dict",
        "dict",
        "Mapping",
    }
)


def _annotation_is_sequence(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    target = node.value if isinstance(node, ast.Subscript) else node
    return terminal_name(target) in _SEQUENCE_ANNOTATIONS


class _CallResolver(ast.NodeVisitor):
    """Resolve the outgoing edges of one function body."""

    def __init__(self, project: Project, fn: FunctionInfo) -> None:
        self.project = project
        self.fn = fn
        self.module = project.modules[fn.module]
        #: local name -> project class qualname (statically evident types).
        self.local_types: Dict[str, str] = {}
        #: local name -> qualname wrapped by a functools.partial binding.
        self.partial_locals: Dict[str, str] = {}
        self._collect_param_types()

    def run(self) -> None:
        node = self.fn.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in node.body:
            self.visit(stmt)

    # -- type seeding --------------------------------------------------

    def _collect_param_types(self) -> None:
        node = self.fn.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            cls = self._class_from_annotation(arg.annotation)
            if cls is not None:
                self.local_types[arg.arg] = cls

    def _class_from_annotation(self, ann: Optional[ast.expr]) -> Optional[str]:
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            # string annotation: "Connection" / "conn.Connection"
            name = ann.value.split("[")[0].strip()
        else:
            target = ann.value if isinstance(ann, ast.Subscript) else ann
            name = dotted(target)
        if not name:
            return None
        head, _, tail = name.partition(".")
        resolved = self.project.resolve_module_name(self.fn.module, head)
        candidate = f"{resolved}.{tail}" if resolved and tail else resolved
        if candidate in self.project.classes:
            return candidate
        return None

    # -- expression resolution -----------------------------------------

    def _resolve_callable(self, func: ast.expr) -> Optional[str]:
        """Dotted target of a call/reference expression, or None."""
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.partial_locals:
                return self.partial_locals[name]
            resolved = self.project.resolve_module_name(self.fn.module, name)
            return resolved or None
        if isinstance(func, ast.Attribute):
            chain = dotted(func)
            if not chain:
                return None
            head, _, rest = chain.partition(".")
            if head in ("self", "cls") and self.fn.class_qualname and rest:
                if "." in rest:
                    return None  # self.a.b(): attribute of an attribute
                return self.project.resolve_method(self.fn.class_qualname, rest)
            if head in self.local_types and rest and "." not in rest:
                return self.project.resolve_method(self.local_types[head], rest)
            resolved = self.project.resolve_module_name(self.fn.module, head)
            if resolved is not None and rest:
                target = f"{resolved}.{rest}"
                # narrow "module attr" chains onto known project symbols
                if target in self.project.functions or target in self.project.classes:
                    return target
                parts = rest.split(".")
                if len(parts) == 2:
                    cls_or_fn = f"{resolved}.{parts[0]}"
                    if cls_or_fn in self.project.classes:
                        return self.project.resolve_method(cls_or_fn, parts[1])
                return target  # external dotted path (time.time, os.environ)
            return None
        return None

    def _add_edge(self, target: str, node: ast.AST, kind: str) -> None:
        self.fn.calls.append(
            CallSite(
                callee=target,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                kind=kind,
            )
        )

    # -- visitors ------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # nested defs get their own symbol only if top-level; their bodies
        # still execute in this function's context often enough (closures
        # scheduled as callbacks) that we fold their calls into the parent.
        for stmt in node.body:
            self.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._note_binding(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            cls = self._class_from_annotation(node.annotation)
            if cls is not None:
                self.local_types[node.target.id] = cls
        if node.value is not None:
            self._note_binding([node.target], node.value)
        self.generic_visit(node)

    def _note_binding(self, targets: List[ast.expr], value: ast.expr) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if isinstance(value, ast.Call):
            target = self._resolve_callable(value.func)
            if target in self.project.classes:
                for name in names:
                    self.local_types[name] = target  # type: ignore[assignment]
            elif self._is_partial_call(value):
                wrapped = self._partial_target(value)
                if wrapped is not None:
                    for name in names:
                        self.partial_locals[name] = wrapped

    def _is_partial_call(self, node: ast.Call) -> bool:
        target = self._resolve_callable(node.func)
        return target in ("functools.partial", "functools.partialmethod")

    def _partial_target(self, node: ast.Call) -> Optional[str]:
        if not node.args:
            return None
        inner = node.args[0]
        target = self._resolve_callable(inner)
        if target in self.project.functions:
            return target
        if target in self.project.classes:
            return target
        return None

    def visit_Call(self, node: ast.Call) -> None:
        if self._is_partial_call(node):
            wrapped = self._partial_target(node)
            if wrapped is not None:
                self._add_edge(wrapped, node, EDGE_PARTIAL)
            # partial's remaining args may still reference callables
            for arg in node.args[1:]:
                self._note_ref(arg)
        else:
            target = self._resolve_callable(node.func)
            if target is not None:
                if target in self.project.classes:
                    init = self.project.resolve_method(target, "__init__")
                    self._add_edge(init if init else target, node, EDGE_CALL)
                else:
                    self._add_edge(target, node, EDGE_CALL)
            for arg in node.args:
                self._note_ref(arg)
            for kw in node.keywords:
                self._note_ref(kw.value)
        self.generic_visit(node)

    def _note_ref(self, expr: ast.expr) -> None:
        """A bare function reference passed as an argument -> ``ref`` edge."""
        if not isinstance(expr, (ast.Name, ast.Attribute)):
            return
        target = self._resolve_callable(expr)
        if target is not None and (
            target in self.project.functions or target in self.project.classes
        ):
            self._add_edge(target, expr, EDGE_REF)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and _returns_set_expr(node.value):
            self.fn.returns_set = True
        self.generic_visit(node)


def _returns_set_expr(node: ast.expr) -> bool:
    """Is the returned expression evidently a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return False
