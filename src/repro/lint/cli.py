"""``python -m repro lint [paths...]``: the simlint gate.

The subcommand is registered by :mod:`repro.exp.cli`; this module owns its
one argument and the run loop so the lint layer stays importable without
the experiment stack.  Findings print as text, one per line with the
offending source quoted below it, then a one-line tally.

Exit codes: 0 clean (every finding fixed or suppressed inline), 1 any
finding, 2 a path that does not exist.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from repro.lint.core import lint_paths


def default_target() -> Path:
    """The ``repro`` package directory (lint target when no paths given)."""
    import repro

    return Path(repro.__file__).resolve().parent


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` arguments to an (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files/directories to lint as one program "
        "(default: the installed repro package)",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint subcommand; returns the process exit code."""
    targets = [Path(p) for p in args.paths] or [default_target()]
    missing = [str(p) for p in targets if not p.exists()]
    if missing:
        print(f"simlint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    findings = lint_paths(targets)
    for finding in findings:
        print(finding.render())
        if finding.text:
            print(f"    {finding.text}")
    by_code = Counter(f.code for f in findings)
    breakdown = ", ".join(f"{code} x{n}" for code, n in sorted(by_code.items()))
    summary = f"simlint: {len(findings)} finding(s)"
    if breakdown:
        summary += f" ({breakdown})"
    print(f"{summary} in {', '.join(str(t) for t in targets)}")
    return 1 if findings else 0
