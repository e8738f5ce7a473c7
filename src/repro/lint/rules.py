"""The simlint rule set: SL001..SL008.

Each rule targets a property the simulator's results actually depend on
(see :mod:`repro.lint`).  Rules are AST walkers over a shared
:class:`repro.lint.core.FileContext`; they never execute the code under
analysis.  Since simlint 2.0 every context also carries a whole-program
:class:`repro.lint.graph.Project`, so SL001/SL002/SL005 flag *laundered*
sources through call chains (:mod:`repro.lint.taint`), SL003 sees
set-returning functions, and SL007/SL008 are interprocedural by nature.
False-positive escapes are inline suppressions with a mandatory reason --
the rules err toward flagging, the suppression inventory stays auditable.

+--------+----------------+-----------------------------------------------+
| code   | alias          | property enforced                             |
+========+================+===============================================+
| SL001  | wallclock      | no wall-clock reads outside obs.wallclock     |
| SL002  | rng            | all randomness flows through repro.sim.rng    |
| SL003  | set-order      | no order-sensitive iteration over sets        |
| SL004  | float-time     | no float arith/equality on integer sim time   |
| SL005  | env            | no env/CPU introspection outside the CLI      |
| SL006  | magic-time     | timing literals must be named constants       |
| SL007  | unit-mix       | no cross-unit time arithmetic/API crossings   |
| SL008  | instr-guard    | hot-path hub calls sit behind .enabled        |
+--------+----------------+-----------------------------------------------+
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.core import FileContext, Finding
from repro.lint.taint import DATETIME_FACTORIES, ENV_FUNCS, WALLCLOCK_TIME_FUNCS


class Rule:
    """Base class: identity, suppression alias, per-module exemptions."""

    code: str = "SL000"
    alias: str = "meta"
    #: Dotted modules the rule never applies to (the sanctioned homes of
    #: the behaviour the rule forbids elsewhere).
    allowed_modules: frozenset = frozenset()

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return self.finding_at(
            ctx, getattr(node, "lineno", 1), getattr(node, "col_offset", 0), message
        )

    def finding_at(
        self, ctx: FileContext, line: int, col: int, message: str
    ) -> Finding:
        return Finding(self.code, str(ctx.path), line, col, message, ctx.line_text(line))

    def _taint_findings(self, ctx: FileContext, kind: str, fix: str) -> Iterator[Finding]:
        """Flow-aware half of SL001/SL002/SL005: tainted project calls."""
        if ctx.project is None:
            return
        from repro.lint.taint import compute_taint

        analysis = compute_taint(ctx.project)
        for found_kind, _fn, site in analysis.call_site_findings(ctx.module):
            if found_kind != kind:
                continue
            how = "wrapped in functools.partial" if site.via_partial else "called"
            yield self.finding_at(
                ctx,
                site.line,
                site.col,
                f"'{site.chain[1].rsplit('.', 1)[-1]}' is {how} here and"
                f" launders {site.chain[-1]} (chain:"
                f" {site.render_chain()}) -- {fix}",
            )


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dotted(node: ast.AST) -> str:
    """Render a Name/Attribute chain as ``a.b.c`` (best effort)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _module_aliases(tree: ast.Module, module: str) -> Set[str]:
    """Local names bound to ``import <module>`` (honouring ``as`` aliases)."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == module or item.name.startswith(module + "."):
                    aliases.add((item.asname or item.name).split(".")[0])
    return aliases


# -- SL001: wall clock -------------------------------------------------------


class WallclockRule(Rule):
    """SL001: simulated code must never read the host clock.

    Simulation time is :attr:`repro.sim.kernel.Simulator.now`; wall-clock
    reads belong to :mod:`repro.obs.wallclock` (which is allowlisted) and
    make any value they touch non-reproducible.
    """

    code = "SL001"
    alias = "wallclock"
    allowed_modules = frozenset({"repro.obs.wallclock"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        time_aliases = _module_aliases(ctx.tree, "time")
        datetime_aliases = {"datetime", "date"}
        from_imported: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for item in node.names:
                        if item.name in WALLCLOCK_TIME_FUNCS:
                            from_imported.add(item.asname or item.name)
                            yield self.finding(
                                ctx,
                                node,
                                f"wall-clock import 'from time import {item.name}'"
                                " -- sim code must use Simulator.now; wall-clock"
                                " reads live in repro.obs.wallclock",
                            )
                elif node.module == "datetime":
                    for item in node.names:
                        if item.name in ("datetime", "date"):
                            datetime_aliases.add(item.asname or item.name)
            elif isinstance(node, ast.Call):
                func = node.func
                called = _dotted(func)
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in time_aliases
                    and func.attr in WALLCLOCK_TIME_FUNCS
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"wall-clock read '{called}()' -- use Simulator.now"
                        " (sim time) or route through repro.obs.wallclock",
                    )
                elif isinstance(func, ast.Name) and func.id in from_imported:
                    yield self.finding(
                        ctx,
                        node,
                        f"wall-clock read '{func.id}()' -- use Simulator.now"
                        " (sim time) or route through repro.obs.wallclock",
                    )
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr in DATETIME_FACTORIES
                    and _terminal_name(func.value) in datetime_aliases
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"wall-clock read '{called}()' -- timestamps must come"
                        " from sim time, not the host calendar",
                    )
        yield from self._taint_findings(
            ctx,
            "wallclock",
            "route through repro.obs.wallclock or take sim time as a parameter",
        )


# -- SL002: randomness -------------------------------------------------------


class RngRule(Rule):
    """SL002: no global/unseeded randomness; use :mod:`repro.sim.rng`.

    The module-level ``random.*`` functions share one hidden global stream,
    ``random.Random()`` with no arguments seeds from the OS, and every
    ``numpy.random`` entry point either is global or hides its own seed
    plumbing -- all three break the ``(experiment_seed, stream_name)``
    derivation that makes repetitions bit-for-bit reproducible.
    """

    code = "SL002"
    alias = "rng"
    allowed_modules = frozenset({"repro.sim.rng"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        random_aliases = _module_aliases(ctx.tree, "random")
        numpy_aliases = _module_aliases(ctx.tree, "numpy")
        from_imported: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for item in node.names:
                        if item.name == "Random":
                            continue
                        from_imported.add(item.asname or item.name)
                        yield self.finding(
                            ctx,
                            node,
                            f"'from random import {item.name}' pulls from the"
                            " global stream -- take a random.Random from"
                            " repro.sim.rng.RngRegistry.stream() instead",
                        )
                elif node.module in ("numpy", "numpy.random") and any(
                    item.name == "random" or node.module == "numpy.random"
                    for item in node.names
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "numpy.random is not routed through repro.sim.rng --"
                        " derive draws from an RngRegistry stream",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in random_aliases
                ):
                    if func.attr == "Random":
                        if not node.args and not node.keywords:
                            yield self.finding(
                                ctx,
                                node,
                                "unseeded random.Random() seeds from the OS --"
                                " pass an explicit seed or use"
                                " repro.sim.rng.RngRegistry.stream()",
                            )
                    elif func.attr == "SystemRandom":
                        yield self.finding(
                            ctx,
                            node,
                            "random.SystemRandom is OS entropy, never"
                            " reproducible -- use a seeded stream from"
                            " repro.sim.rng",
                        )
                    else:
                        yield self.finding(
                            ctx,
                            node,
                            f"global 'random.{func.attr}()' shares hidden state"
                            " across the process -- use a named stream from"
                            " repro.sim.rng.RngRegistry",
                        )
                elif isinstance(func, ast.Name):
                    if func.id in from_imported:
                        yield self.finding(
                            ctx,
                            node,
                            f"'{func.id}()' draws from the global random stream"
                            " -- use a named stream from repro.sim.rng",
                        )
                    elif func.id == "Random" and not node.args and not node.keywords:
                        yield self.finding(
                            ctx,
                            node,
                            "unseeded Random() seeds from the OS -- pass an"
                            " explicit seed derived from the experiment seed",
                        )
                elif isinstance(func, ast.Attribute):
                    value = func.value
                    if (
                        isinstance(value, ast.Attribute)
                        and value.attr == "random"
                        and isinstance(value.value, ast.Name)
                        and value.value.id in numpy_aliases
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"'{_dotted(func)}()' bypasses repro.sim.rng --"
                            " all randomness must derive from the experiment"
                            " seed via RngRegistry",
                        )
        yield from self._taint_findings(
            ctx,
            "rng",
            "take a seeded random.Random from repro.sim.rng instead",
        )


# -- SL003: set iteration order ----------------------------------------------


def _is_sorted_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
    )


def _is_setish(
    node: ast.AST,
    tainted: Set[str],
    is_set_call: Optional["_SetCallPredicate"] = None,
) -> bool:
    """Does ``node`` evaluate to a set (literal, ctor, tainted local, or a
    call to a set-returning project function)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return True
        # interprocedural: `helper()` where helper is proven set-returning.
        # sorted(...) is a Call and lands here too -> never setish, so
        # `sorted(helper())` launders at every consumer.
        return is_set_call is not None and is_set_call(node)
    if isinstance(node, ast.Name) and node.id in tainted:
        return True
    if isinstance(node, ast.GeneratorExp) and node.generators:
        # a genexp streams its source's order; one wrapping an immediate
        # sorted(...) is deterministic and must stay clean.
        source = node.generators[0].iter
        if _is_sorted_call(source):
            return False
        return _is_setish(source, tainted, is_set_call)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        # set algebra propagates taint: (a | b) is a set if either side is.
        return _is_setish(node.left, tainted, is_set_call) or _is_setish(
            node.right, tainted, is_set_call
        )
    return False


def _is_set_annotation(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    name = _terminal_name(node if not isinstance(node, ast.Subscript) else node.value)
    return name in ("set", "Set", "frozenset", "FrozenSet", "AbstractSet", "MutableSet")


class _SetCallPredicate:
    """Resolve a call node to "returns a set" via the project call graph.

    Covers bare names (``neighbours(...)``) and single-dotted module
    attributes (``topo.neighbours(...)``); deeper chains and method calls
    stay unresolved -- conservative silence, not a false positive.
    """

    def __init__(self, ctx: FileContext) -> None:
        self._project = ctx.project
        self._module = ctx.module
        self._returning: frozenset = frozenset()
        if self._project is not None:
            from repro.lint.taint import compute_taint

            self._returning = frozenset(compute_taint(self._project).set_returning)

    def __call__(self, node: ast.Call) -> bool:
        if not self._returning or self._project is None:
            return False
        func = node.func
        if isinstance(func, ast.Name):
            target = self._project.resolve_module_name(self._module, func.id)
            return target in self._returning
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            head = self._project.resolve_module_name(self._module, func.value.id)
            return head is not None and f"{head}.{func.attr}" in self._returning
        return False


class SetIterRule(Rule):
    """SL003: iteration order over a set is hash-randomized -- sort first.

    ``dict`` iteration is insertion-ordered (deterministic given a
    deterministic program) and deliberately not flagged; ``set`` iteration
    order depends on ``PYTHONHASHSEED`` for str/bytes members and on
    insertion history for ints, either of which lets host state reach event
    scheduling or serialized output.  The taint heuristic is local to each
    function: names bound to set expressions are tracked, attribute loads
    are not (annotate those sites or sort at the source).
    """

    code = "SL003"
    alias = "set-order"

    #: calls whose argument order becomes output order.
    _ORDER_SINKS = frozenset({"list", "tuple", "iter", "enumerate"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # pass 1: collect tainted names file-wide (set-valued assignments,
        # set-annotated targets and parameters).  File-global taint is the
        # "lite" in taint-lite: a rare same-name collision across functions
        # over-flags, and the escape hatch is an annotated suppression.
        is_set_call = _SetCallPredicate(ctx)
        tainted: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                if _is_setish(node.value, tainted, is_set_call):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tainted.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                if _is_set_annotation(node.annotation) or (
                    node.value is not None
                    and _is_setish(node.value, tainted, is_set_call)
                ):
                    tainted.add(node.target.id)
            elif isinstance(node, ast.arg) and _is_set_annotation(node.annotation):
                tainted.add(node.arg)
        # pass 2: find order-sensitive consumers of set-ish iterables.
        for node in ast.walk(ctx.tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else None
                attr = func.attr if isinstance(func, ast.Attribute) else None
                if (name in self._ORDER_SINKS or attr == "join") and node.args:
                    iters.append(node.args[0])
            for it in iters:
                # sorted(...) / sorted(..., key=...) launders the taint --
                # including sorted(<set-returning call>).
                if _is_sorted_call(it):
                    continue
                if _is_setish(it, tainted, is_set_call):
                    yield self.finding(
                        ctx,
                        it,
                        "iteration over a set is hash-order dependent and can"
                        " reach event scheduling or serialized output -- wrap"
                        " the iterable in sorted(...)",
                    )


# -- SL004: float time -------------------------------------------------------

#: name suffixes of the integer-time naming convention.
_TIME_SUFFIXES = ("_ns", "_us", "_ms")
#: bare names treated as sim-time values after stripping leading underscores.
_TIME_BARE_NAMES = frozenset({"now", "when", "deadline", "anchor_point"})


def _is_time_identifier(name: str) -> bool:
    stripped = name.lstrip("_")
    return name.endswith(_TIME_SUFFIXES) or stripped in _TIME_BARE_NAMES


#: builtins that preserve integer-ness: a time name inside these is still time.
_INT_PRESERVING_CALLS = frozenset({"min", "max", "abs", "round", "int", "sum"})


def _mentions_time_name(node: ast.AST) -> Optional[str]:
    """Find a time-named identifier in ``node`` without crossing conversions.

    Descends into arithmetic and integer-preserving builtins but *not* into
    arbitrary calls: ``ns_to_s(t_ns) * 1e6`` is an explicit conversion whose
    result is no longer integer sim time.
    """
    if isinstance(node, ast.Name):
        return node.id if _is_time_identifier(node.id) else None
    if isinstance(node, ast.Attribute):
        if _is_time_identifier(node.attr):
            return node.attr
        return None
    if isinstance(node, ast.Call):
        func_name = node.func.id if isinstance(node.func, ast.Name) else None
        if func_name not in _INT_PRESERVING_CALLS:
            return None
        for arg in node.args:
            hit = _mentions_time_name(arg)
            if hit is not None:
                return hit
        return None
    for child in ast.iter_child_nodes(node):
        hit = _mentions_time_name(child)
        if hit is not None:
            return hit
    return None


def _float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _float_literal(node.operand)
    return False


class FloatTimeRule(Rule):
    """SL004: sim time is integer ns -- keep floats away from ``*_ns`` names.

    Flags ``==``/``!=`` against a float literal and ``+ - * %`` with a
    float-literal operand whenever the other side mentions a time-named
    variable (``*_ns``/``*_us``/``*_ms``, ``now``, ``when``).  True
    division is deliberately exempt: ``t_ns / SEC`` is the sanctioned
    idiom for producing float *reporting* values (:mod:`repro.sim.units`).
    """

    code = "SL004"
    alias = "float-time"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for op, left, right in zip(node.ops, operands, operands[1:]):
                    if not isinstance(op, (ast.Eq, ast.NotEq)):
                        continue
                    for a, b in ((left, right), (right, left)):
                        if _float_literal(a):
                            name = _mentions_time_name(b)
                            if name is not None:
                                yield self.finding(
                                    ctx,
                                    node,
                                    f"float equality against integer sim time"
                                    f" '{name}' -- compare integer nanoseconds"
                                    " (repro.sim.units), never floats",
                                )
                                break
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult, ast.Mod)
            ):
                for a, b in ((node.left, node.right), (node.right, node.left)):
                    if _float_literal(a):
                        name = _mentions_time_name(b)
                        if name is not None:
                            yield self.finding(
                                ctx,
                                node,
                                f"float arithmetic on integer sim time"
                                f" '{name}' -- scale in integer ns (or divide,"
                                " which is the explicit float-conversion"
                                " idiom)",
                            )
                            break


# -- SL005: environment ------------------------------------------------------


class EnvRule(Rule):
    """SL005: configuration must be explicit -- no env/CPU introspection.

    A cached result is only replayable if its config hash captures every
    input; a sneaky ``os.environ`` read is an input the hash cannot see.
    The CLI boundary (``repro.exp.cli``) is the one sanctioned reader: it
    turns environment state into explicit config before anything runs.
    """

    code = "SL005"
    alias = "env"
    allowed_modules = frozenset({"repro.exp.cli"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        os_aliases = _module_aliases(ctx.tree, "os")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                for item in node.names:
                    if item.name == "environ" or item.name in ENV_FUNCS:
                        yield self.finding(
                            ctx,
                            node,
                            f"'from os import {item.name}' -- environment and"
                            " host-CPU state must enter through repro.exp.cli"
                            " as explicit config",
                        )
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in os_aliases
                and node.attr == "environ"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "os.environ read outside the CLI boundary -- cached"
                    " results cannot see this input; pass it as explicit"
                    " config from repro.exp.cli",
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in os_aliases
                and node.func.attr in ENV_FUNCS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"'os.{node.func.attr}()' outside the CLI boundary --"
                    " host introspection makes runs machine-dependent; pass"
                    " the value as explicit config",
                )
        yield from self._taint_findings(
            ctx,
            "env",
            "read the environment in repro.exp.cli and pass explicit config",
        )


# -- SL006: magic timing literals --------------------------------------------

#: ns values of protocol timing constants that must be referenced by name.
TIMING_LITERALS: Dict[int, str] = {
    150_000: "T_IFS_NS (BLE inter-frame space, 150 us)",
    1_250_000: "CONN_INTERVAL_UNIT_NS / TRANSMIT_WINDOW_DELAY_NS (1.25 ms)",
    625_000: "the BLE time-slot unit (0.625 ms)",
    10_000_000: "the BLE supervision-timeout unit (10 ms)",
    192_000: "IEEE 802.15.4 macSIFS (192 us)",
    640_000: "IEEE 802.15.4 macLIFS (640 us)",
}

#: unit names from repro.sim.units, for the ``<n> * USEC`` product form.
_UNIT_VALUES = {"NSEC": 1, "USEC": 1_000, "MSEC": 1_000_000, "SEC": 1_000_000_000}


class MagicTimingRule(Rule):
    """SL006: BLE/802.15.4 timing literals must reference named constants.

    ``t + 150_000`` is T_IFS to the author and noise to the reviewer; when
    the spec value changes (LE 2M, Coded PHY) the literal silently stays.
    Defining sites -- module/class assignments to ALL_CAPS names -- are
    exempt, which is also the fix: name the constant, then use the name.
    """

    code = "SL006"
    alias = "magic-time"
    allowed_modules = frozenset({"repro.sim.units"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node

        def in_caps_definition(node: ast.AST) -> bool:
            cur: Optional[ast.AST] = node
            while cur is not None:
                if isinstance(cur, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        cur.targets if isinstance(cur, ast.Assign) else [cur.target]
                    )
                    for target in targets:
                        name = _terminal_name(target)
                        if name and name.isupper() and len(name) > 1:
                            return True
                cur = parents.get(cur)
            return False

        def hit(node: ast.AST, value: int, rendering: str) -> Finding:
            return self.finding(
                ctx,
                node,
                f"magic timing literal {rendering} is {TIMING_LITERALS[value]}"
                " -- reference the named constant instead",
            )

        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Constant)
                and type(node.value) is int
                and node.value in TIMING_LITERALS
            ):
                parent = parents.get(node)
                if isinstance(parent, ast.BinOp) and self._product_value(parent):
                    continue  # reported once, at the product expression
                if not in_caps_definition(node):
                    yield hit(node, node.value, str(node.value))
            elif isinstance(node, ast.BinOp):
                product = self._product_value(node)
                if product is not None and not in_caps_definition(node):
                    yield hit(node, product, f"'{ast.unparse(node)}'")

    @staticmethod
    def _product_value(node: ast.BinOp) -> Optional[int]:
        """Value of ``<int> * <UNIT>`` / ``<UNIT> * <int>`` if it is a known
        timing constant, else None."""
        if not isinstance(node.op, ast.Mult):
            return None
        pairs: List[Tuple[ast.expr, ast.expr]] = [
            (node.left, node.right),
            (node.right, node.left),
        ]
        for const, unit in pairs:
            if (
                isinstance(const, ast.Constant)
                and type(const.value) is int
                and isinstance(unit, ast.Name)
                and unit.id in _UNIT_VALUES
            ):
                product = const.value * _UNIT_VALUES[unit.id]
                if product in TIMING_LITERALS:
                    return product
        return None


# -- SL007: time-unit inference ----------------------------------------------


class UnitMixRule(Rule):
    """SL007: unit-suffixed time values must not mix across units or APIs.

    The lattice lives in :mod:`repro.lint.units`: names type from their
    ``_ns``/``_us``/``_ms``/``_s`` suffixes, ``repro.sim.units`` constants
    and converters move between points, and the rule fires only when *both*
    sides of an arithmetic, assignment, return, or call-argument binding
    are known and disagree.  ``150 * USEC`` (conversion) and ``t_ns / SEC``
    (ratio) are typed correctly, not flagged.
    """

    code = "SL007"
    alias = "unit-mix"
    allowed_modules = frozenset({"repro.sim.units"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        from repro.lint.units import infer_module_units

        for mix, fn_name in infer_module_units(ctx.tree, ctx.module, ctx.project):
            where = f" [in {fn_name}()]" if fn_name else ""
            yield self.finding_at(ctx, mix.line, mix.col, mix.message + where)


# -- SL008: instrumentation guards -------------------------------------------


class InstrumentationGuardRule(Rule):
    """SL008: hot-path hub calls must sit behind their ``.enabled`` check.

    The disabled-overhead budget (<2%, measured dynamically by the A/B
    gate in ``tests/spans/test_disabled.py``) only holds if every
    ``TRACE``/``SPANS`` touch on the kernel/BLE/L2CAP/IP dispatch path is
    skipped by a branch when the subsystem is off.  :mod:`repro.lint.purity`
    proves this one function at a time: the touch's own hub's guard must
    dominate it (a direct test, a hoisted ``x = HUB.enabled`` local, an
    ``and`` chain, a conditional expression or an early return).
    """

    code = "SL008"
    alias = "instr-guard"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.project is None:
            return
        from repro.lint.purity import unguarded_touches

        for fn, touch in unguarded_touches(ctx.project, ctx.module):
            what = "store to" if touch.kind == "store" else "call on"
            yield self.finding_at(
                ctx,
                touch.line,
                touch.col,
                f"hot-path {what} {touch.hub} in {fn.name}() is not dominated"
                f" by '{touch.hub}.enabled' in the same function -- guard it"
                f" (or hoist 'if {touch.hub}.enabled:' around the block)",
            )


# -- registry ----------------------------------------------------------------


def default_rules() -> List[Rule]:
    """Fresh instances of every shipped rule, in code order."""
    return [
        WallclockRule(),
        RngRule(),
        SetIterRule(),
        FloatTimeRule(),
        EnvRule(),
        MagicTimingRule(),
        UnitMixRule(),
        InstrumentationGuardRule(),
    ]
