"""``python -m repro lint``: argument wiring, output formats, exit codes.

The subcommand is registered by :mod:`repro.exp.cli`; this module owns the
flags and the run loop so the lint layer stays importable without the
experiment stack.

Exit codes: 0 clean (or every finding baselined/suppressed), 1 findings,
2 usage/configuration problems (unreadable baseline, missing paths).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional, TextIO

from repro.lint.baseline import BaselineError, load_baseline, write_baseline
from repro.lint.core import SEVERITY_ERROR, Finding, lint_paths
from repro.lint.rules import default_rules


def default_target() -> Path:
    """The ``repro`` package directory (lint target when no paths given)."""
    import repro

    return Path(repro.__file__).resolve().parent


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` flags to an (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files/directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="subtract grandfathered findings recorded in FILE "
        "(an empty file is a valid, empty baseline)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate --baseline FILE from the current findings and exit 0",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors for the exit code",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--explain",
        default=None,
        metavar="SL00X",
        help="print one rule's rationale/example/suppression page and exit",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="FILE",
        help="reuse/store findings in FILE, keyed on a hash of every target"
        " and linter source file (warm re-lints are sub-second)",
    )


def _print_rules(stream: TextIO) -> None:
    for rule in default_rules():
        allowed = ", ".join(sorted(rule.allowed_modules)) or "-"
        stream.write(
            f"{rule.code}  allow-{rule.alias:<11} [{rule.severity}] "
            f"{rule.summary}  (exempt: {allowed})\n"
        )


def _render_text(
    findings: List[Finding], baselined: int, files_hint: str, stream: TextIO
) -> None:
    for finding in findings:
        stream.write(finding.render() + "\n")
        if finding.text:
            stream.write(f"    {finding.text}\n")
    by_code = Counter(f.code for f in findings)
    breakdown = ", ".join(f"{code} x{n}" for code, n in sorted(by_code.items()))
    summary = f"simlint: {len(findings)} finding(s)"
    if breakdown:
        summary += f" ({breakdown})"
    if baselined:
        summary += f", {baselined} baselined"
    summary += f" in {files_hint}"
    stream.write(summary + "\n")


def run_lint(args: argparse.Namespace, stream: Optional[TextIO] = None) -> int:
    """Execute the lint subcommand; returns the process exit code."""
    out = stream if stream is not None else sys.stdout
    if args.list_rules:
        _print_rules(out)
        return 0
    if args.explain:
        from repro.lint.explain import explain

        page = explain(args.explain)
        if page is None:
            print(f"simlint: unknown rule {args.explain!r}", file=sys.stderr)
            return 2
        out.write(page)
        return 0
    targets = [Path(p) for p in args.paths] or [default_target()]
    missing = [str(p) for p in targets if not p.exists()]
    if missing:
        print(f"simlint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    findings: Optional[List[Finding]] = None
    cache_key: Optional[str] = None
    if args.cache:
        from repro.lint.cache import load_cached, source_hash
        from repro.lint.core import iter_python_files

        cache_key = source_hash(list(iter_python_files(targets)))
        findings = load_cached(Path(args.cache), cache_key)
    if findings is None:
        findings = lint_paths(targets)
        if args.cache and cache_key is not None:
            from repro.lint.cache import store

            store(Path(args.cache), cache_key, findings)

    if args.write_baseline:
        if not args.baseline:
            print("simlint: --write-baseline requires --baseline FILE", file=sys.stderr)
            return 2
        count = write_baseline(args.baseline, findings)
        print(
            f"simlint: baseline with {count} entr{'y' if count == 1 else 'ies'} "
            f"written to {args.baseline}",
            file=sys.stderr,
        )
        return 0

    baselined = 0
    if args.baseline:
        try:
            grandfathered = load_baseline(args.baseline)
        except FileNotFoundError:
            print(
                f"simlint: baseline {args.baseline} does not exist "
                "(touch it for an empty baseline, or --write-baseline)",
                file=sys.stderr,
            )
            return 2
        except BaselineError as exc:
            print(f"simlint: {exc}", file=sys.stderr)
            return 2
        fresh = [f for f in findings if f.fingerprint() not in grandfathered]
        baselined = len(findings) - len(fresh)
        findings = fresh

    files_hint = ", ".join(str(t) for t in targets)
    if args.format == "sarif":
        from repro.lint.sarif import render_sarif

        out.write(render_sarif(findings))
    elif args.format == "json":
        doc = {
            "schema": "repro.lint.report/1",
            "targets": [str(t) for t in targets],
            "baselined": baselined,
            "findings": [f.to_dict() for f in findings],
        }
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        _render_text(findings, baselined, files_hint, out)

    failing = [
        f
        for f in findings
        if f.severity == SEVERITY_ERROR or args.strict
    ]
    return 1 if failing else 0
