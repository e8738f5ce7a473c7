"""The simlint engine: file contexts, findings, suppressions, dispatch.

The engine is deliberately rule-agnostic.  A rule is any object with a
``code`` (``SL001``), an ``alias`` (``wallclock``, the name suppressions
use), an ``allowed_modules`` frozenset (modules the rule never applies
to), and a ``check(ctx)`` iterator of :class:`Finding` objects.  The
engine parses a file once, hands every rule the same
:class:`FileContext`, filters the union of findings through inline
suppressions, and returns them sorted.  Every finding fails the gate.

Suppression grammar (one comment, same line or the line directly above)::

    # simlint: allow-wallclock -- progress line only, never sim input
    # simlint: allow-wallclock,allow-env -- reason covering both

The reason after ``--`` is mandatory: a suppression without one, or one
naming an unknown rule, is itself reported as an ``SL000`` finding.  This
keeps the suppression inventory greppable *and* justified.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.lint.graph import Project
    from repro.lint.rules import Rule

#: Code used for engine-level diagnostics (files that do not decode or
#: parse, bad suppressions).
META_CODE = "SL000"
META_ALIAS = "meta"


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule (or by the engine itself).

    :param code: rule code, e.g. ``SL001``.
    :param path: the path the file was linted under (display only).
    :param line: 1-based source line.
    :param col: 0-based column.
    :param message: what is wrong and what to do instead.
    :param text: the stripped offending source line.
    """

    code: str
    path: str
    line: int
    col: int
    message: str
    text: str = ""

    def render(self) -> str:
        """One-line human rendering: ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"


@dataclass
class FileContext:
    """Everything a rule may inspect about one source file."""

    path: Path
    module: str
    source: str
    lines: list[str]
    tree: ast.Module
    #: Whole-program context (symbol table, call graph, lazy analyses).
    #: Always set by the engine -- a single-file lint gets a single-file
    #: project -- but Optional so hand-built contexts stay constructible.
    project: Optional["Project"] = None

    def line_text(self, lineno: int) -> str:
        """The stripped source text of a 1-based line (empty if out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def _anchored_parts(path: Path) -> list[str]:
    """Path components below the source root (``src/`` or the ``repro`` pkg)."""
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        last_src = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[last_src + 1 :]
    elif "repro" in parts:
        parts = parts[parts.index("repro") :]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return parts


def module_name_for(path: Path) -> str:
    """Best-effort dotted module name for ``path``.

    ``src/repro/ble/conn.py`` -> ``repro.ble.conn``; a file outside any
    recognised root keeps its stem (fixture files lint as themselves).
    """
    return ".".join(_anchored_parts(Path(path))) or Path(path).stem


# -- suppressions ------------------------------------------------------------

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*(?P<items>allow-[^#]*?)\s*(?:--\s*(?P<reason>.*\S))?\s*$"
)
_MALFORMED_RE = re.compile(r"#\s*simlint\b")


@dataclass
class Suppressions:
    """Parsed inline suppressions for one file."""

    #: line (1-based) -> set of suppressed rule codes on that line.
    by_line: dict[int, set[str]] = field(default_factory=dict)
    #: engine findings about the suppressions themselves (missing reason, ...).
    problems: list[Finding] = field(default_factory=list)

    def suppresses(self, finding: Finding) -> bool:
        return finding.code in self.by_line.get(finding.line, ())


def parse_suppressions(
    ctx: FileContext, alias_to_code: dict[str, str]
) -> Suppressions:
    """Scan ``ctx`` for ``# simlint:`` comments.

    A comment on a code line covers that line; a comment standing alone on
    its own line covers the next line as well (decorator style).
    """
    out = Suppressions()

    def meta(lineno: int, message: str) -> Finding:
        return Finding(
            META_CODE, str(ctx.path), lineno, 0, message, ctx.line_text(lineno)
        )

    # real comments only (via tokenize): 'simlint:' inside a string literal
    # or docstring must not create or satisfy a suppression.
    comments: list[tuple[int, str, bool]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(ctx.source).readline):
            if tok.type == tokenize.COMMENT:
                lineno, col = tok.start
                standalone = not tok.line[:col].strip()
                comments.append((lineno, tok.string, standalone))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparseable tails already surface as SL000 parse findings

    for lineno, raw, standalone in comments:
        if "simlint" not in raw:
            continue
        match = _SUPPRESS_RE.search(raw)
        if match is None:
            if _MALFORMED_RE.search(raw):
                out.problems.append(
                    meta(
                        lineno,
                        "malformed simlint comment; expected "
                        "'# simlint: allow-<rule> -- <reason>'",
                    )
                )
            continue
        if not match.group("reason"):
            out.problems.append(
                meta(
                    lineno,
                    "simlint suppression is missing its mandatory reason "
                    "('# simlint: allow-<rule> -- <reason>')",
                )
            )
            continue
        codes: set[str] = set()
        ok = True
        for item in match.group("items").split(","):
            item = item.strip()
            if not item:
                continue
            if not item.startswith("allow-"):
                out.problems.append(
                    meta(lineno, f"simlint suppression item {item!r} must be 'allow-<rule>'")
                )
                ok = False
                continue
            name = item[len("allow-") :].strip()
            code = alias_to_code.get(name.lower())
            if code is None:
                known = ", ".join(sorted(set(alias_to_code.values())))
                out.problems.append(
                    meta(
                        lineno,
                        f"simlint suppression names unknown rule {name!r} "
                        f"(known: {known})",
                    )
                )
                ok = False
                continue
            codes.add(code)
        if not ok or not codes:
            continue
        out.by_line.setdefault(lineno, set()).update(codes)
        if standalone:
            # standalone comment: covers the code line it annotates, skipping
            # over the rest of the comment block and any blank lines.
            j = lineno + 1
            while j <= len(ctx.lines):
                out.by_line.setdefault(j, set()).update(codes)
                stripped = ctx.lines[j - 1].strip()
                if stripped and not stripped.startswith("#"):
                    break
                j += 1
    return out


# -- engine ------------------------------------------------------------------


def _resolve_rules(rules: Optional[Iterable["Rule"]]) -> list["Rule"]:
    if rules is None:
        from repro.lint.rules import default_rules

        return default_rules()
    return list(rules)


def _alias_map(rules: Sequence["Rule"]) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for rule in rules:
        mapping[rule.alias.lower()] = rule.code
        mapping[rule.code.lower()] = rule.code
    mapping.setdefault(META_ALIAS, META_CODE)
    mapping.setdefault(META_CODE.lower(), META_CODE)
    return mapping


def _parse_context(
    source: str | bytes, path: Path, modname: str
) -> tuple[Optional[FileContext], Optional[Finding]]:
    """Decode and parse one file into a context, or an SL000 finding."""
    if isinstance(source, bytes):
        try:
            # universal newlines, as a text-mode read would give
            source = source.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        except UnicodeDecodeError as exc:
            line_start = source.rfind(b"\n", 0, exc.start) + 1
            return None, Finding(
                META_CODE,
                str(path),
                source.count(b"\n", 0, exc.start) + 1,
                exc.start - line_start,
                f"could not read file: {exc}",
            )
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return None, Finding(
            META_CODE,
            str(path),
            exc.lineno or 1,
            (exc.offset or 1) - 1,
            f"could not parse file: {exc.msg}",
        )
    ctx = FileContext(
        path=path,
        module=modname,
        source=source,
        lines=source.splitlines(),
        tree=tree,
    )
    return ctx, None


def _check_context(ctx: FileContext, active: Sequence["Rule"]) -> list[Finding]:
    """Run every rule over one parsed context; filter suppressions, sort."""
    suppressions = parse_suppressions(ctx, _alias_map(active))
    findings: list[Finding] = []
    for rule in active:
        if ctx.module in rule.allowed_modules:
            continue
        findings.extend(rule.check(ctx))
    # nested expressions (e.g. chained BinOps) can report one defect several
    # times on a line; keep the first occurrence of each (code, line, message).
    seen: set[tuple[str, int, str]] = set()
    kept: list[Finding] = []
    for f in findings:
        key = (f.code, f.line, f.message)
        if key in seen or suppressions.suppresses(f):
            continue
        seen.add(key)
        kept.append(f)
    kept.extend(suppressions.problems)
    kept.sort(key=lambda f: (f.line, f.col, f.code))
    return kept


def lint_source(
    source: str,
    path: Path | str,
    *,
    rules: Optional[Iterable["Rule"]] = None,
    module: Optional[str] = None,
    project: Optional["Project"] = None,
) -> list[Finding]:
    """Lint ``source`` as if it lived at ``path``; returns sorted findings.

    The ``path``/``module`` indirection is what makes the mutation tests
    possible: callers can lint hypothetical file contents under a real
    module identity (e.g. a ``time.time()`` grafted into ``repro.ble.conn``)
    without touching the working tree.  Without an explicit ``project``
    the file is analysed as a single-file program, so the interprocedural
    rules still see laundering chains that live within the file.
    """
    from repro.lint.graph import Project

    active = _resolve_rules(rules)
    path = Path(path)
    modname = module if module is not None else module_name_for(path)
    ctx, parse_failure = _parse_context(source, path, modname)
    if ctx is None:
        assert parse_failure is not None
        return [parse_failure]
    ctx.project = project if project is not None else Project.from_contexts([ctx])
    return _check_context(ctx, active)


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Expand files/directories into a deterministic list of ``.py`` files."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            yield from sorted(
                p
                for p in entry.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        else:
            yield entry


def lint_paths(
    paths: Iterable[Path | str], *, rules: Optional[Iterable["Rule"]] = None
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` as ONE program.

    All files parse first, one :class:`~repro.lint.graph.Project` is built
    over the whole set, and every rule then sees each file with the shared
    whole-program context -- this is what lets SL001/SL002/SL005 taint flow
    across modules and SL008 prove guards through callers.
    """
    from repro.lint.graph import Project

    active = _resolve_rules(rules)
    findings: list[Finding] = []
    contexts: list[FileContext] = []
    for file in iter_python_files(paths):
        ctx, parse_failure = _parse_context(
            file.read_bytes(), file, module_name_for(file)
        )
        if ctx is None:
            assert parse_failure is not None
            findings.append(parse_failure)
        else:
            contexts.append(ctx)
    project = Project.from_contexts(contexts)
    for ctx in contexts:
        ctx.project = project
        findings.extend(_check_context(ctx, active))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
