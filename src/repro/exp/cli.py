"""Command-line entry point: run experiments from YAML descriptions.

Mirrors the paper's experimentation workflow (Appendix A): a static
description file fully determines the run; the output directory receives
the description, the raw results log, and the derived summary.  ``sweep``
expands a config grid and runs it through the parallel sharded engine
(:mod:`repro.exp.parallel`) with optional on-disk result caching.

Usage::

    python -m repro describe > experiment.yml   # a template description
    python -m repro run experiment.yml -o out/  # execute + write artifacts
    python -m repro run experiment.yml --set duration_s=120 --set seed=7
    python -m repro trace -o trace-out/         # traced run + invariant check
    python -m repro metrics -o metrics-out/     # metered run
    python -m repro sweep experiment.yml \\
        --grid conn_interval=75,[65:85] --grid producer_interval_s=0.1,1.0 \\
        --seeds 5 --workers 4 --cache-dir .repro-cache -o out/

``sweep`` honours ``REPRO_WORKERS`` and ``REPRO_CACHE_DIR`` when the
corresponding flags are not given.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TextIO

if TYPE_CHECKING:  # pragma: no cover
    from repro.exp.parallel import ProgressEvent

from repro.exp.artifacts import render_summary, write_artifacts
from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_experiment
from repro.obs.wallclock import monotonic


def _env_int(name: str, default: int = 0) -> int:
    """Parse an integer environment variable, warning instead of crashing.

    ``REPRO_WORKERS=lots`` used to abort the whole sweep with a bare
    ``ValueError``; a mis-set variable now falls back to ``default`` with a
    warning on stderr (unset/blank falls back silently).
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw.strip())
    except ValueError:
        print(
            f"warning: ignoring non-numeric {name}={raw!r} "
            f"(using default {default})",
            file=sys.stderr,
        )
        return default


#: The accepted spellings of a bool override (matched case-insensitively).
_BOOLS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _coerce(config: ExperimentConfig, key: str, raw: str) -> object:
    """Parse ``raw`` into the type of ``config.<key>``."""
    if not hasattr(config, key):
        raise SystemExit(f"unknown config field {key!r}")
    current = getattr(config, key)
    try:
        if isinstance(current, bool):
            return _BOOLS[raw.lower()]
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
    except (KeyError, ValueError):
        raise ValueError(f"{key}={raw!r} is not a valid {type(current).__name__}") from None
    return raw


def _apply_overrides(config: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply ``key=value`` overrides onto a config (typed via the field)."""
    values = {}
    for item in overrides:
        if "=" not in item:
            raise SystemExit(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        values[key] = _coerce(config, key, raw)
    if not values:
        return config
    from dataclasses import asdict

    return ExperimentConfig(**{**asdict(config), **values})


def _load_config(
    description: str | None,
    overrides: list[str],
    example: Callable[[], ExperimentConfig] = ExperimentConfig,
) -> ExperimentConfig:
    """The YAML ``description`` (or ``example()`` without one) with the
    ``--set`` overrides applied.  Bad input -- a key an older version
    wrote, a mistyped value -- exits with one line, not a traceback."""
    try:
        if description:
            config = ExperimentConfig.from_yaml(Path(description).read_text())
        else:
            config = example()
        return _apply_overrides(config, overrides)
    except ValueError as exc:
        raise SystemExit(f"invalid config: {exc}") from None


def _parse_grid(config: ExperimentConfig, items: list[str]) -> dict:
    """Parse repeated ``--grid KEY=V1,V2,...`` flags into a typed grid;
    a mistyped value exits like a bad ``--set``."""
    grid: dict = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"--grid expects key=v1,v2,..., got {item!r}")
        key, raw = item.split("=", 1)
        values = [v for v in raw.split(",") if v != ""]
        if not values:
            raise SystemExit(f"--grid axis {key!r} has no values")
        try:
            grid[key] = [_coerce(config, key, v) for v in values]
        except ValueError as exc:
            raise SystemExit(f"invalid config: {exc}") from None
    return grid


def _progress_printer(stream: "TextIO") -> "Callable[[ProgressEvent], None]":
    """A progress callback that writes one status line per engine event."""

    def on_event(event: "ProgressEvent") -> None:
        name = f"{event.config.name} seed={event.config.seed}"
        position = f"[{event.completed}/{event.total}]"
        if event.kind == "cache-hit":
            print(f"{position} cached   {name}", file=stream)
        elif event.kind == "done":
            print(
                f"{position} done     {name} ({event.wall_time_s:.2f}s)",
                file=stream,
            )
        elif event.kind == "retry":
            print(
                f"{position} retry    {name} (attempt {event.attempt} "
                f"failed: {event.detail})",
                file=stream,
            )
        elif event.kind == "failed":
            print(
                f"{position} FAILED   {name} after {event.attempt} attempts: "
                f"{event.detail}",
                file=stream,
            )

    return on_event


def main(argv: list[str] | None = None) -> int:
    """CLI dispatch; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Mind the Gap: Multi-hop IPv6 over BLE'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser("describe", help="print a template description")
    describe.add_argument("--name", default="experiment")

    lint = sub.add_parser(
        "lint",
        help="simlint: determinism & unit-discipline static analysis "
             "(non-zero exit on findings)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)

    run = sub.add_parser("run", help="execute a YAML experiment description")
    run.add_argument("description", help="path to the experiment YAML")
    run.add_argument("-o", "--outdir", default=None,
                     help="write Appendix-A artifacts here")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config field")
    run.add_argument("--metrics", action="store_true",
                     help="collect runtime metrics; writes metrics.json "
                          "with the artifacts")

    metrics = sub.add_parser(
        "metrics",
        help="run with the metrics registry, write metrics.json",
    )
    metrics.add_argument("description", nargs="?", default=None,
                         help="experiment YAML (default: a short 3-hop line)")
    metrics.add_argument("-o", "--outdir", default="metrics-out",
                         help="metrics artifact directory "
                              "(default: metrics-out)")
    metrics.add_argument("--set", dest="overrides", action="append",
                         default=[], metavar="KEY=VALUE",
                         help="override a config field")
    metrics.add_argument("--repetitions", type=int, default=1,
                         help="derived-seed repetitions merged into the "
                              "document (default 1)")
    metrics.add_argument("-j", "--workers", type=int, default=1,
                         help="worker processes for the repetitions "
                              "(default 1; the document bytes are identical "
                              "either way)")
    metrics.add_argument("--cache-dir", default=None,
                         help="result cache directory for the repetitions")

    trace = sub.add_parser(
        "trace",
        help="run a traced scenario, write trace artifacts, check invariants",
    )
    trace.add_argument("description", nargs="?", default=None,
                       help="experiment YAML (default: a short 4-node line)")
    trace.add_argument("-o", "--outdir", default="trace-out",
                       help="trace + artifact directory (default: trace-out)")
    trace.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config field")
    trace.add_argument("--layers", default="",
                       help="comma-separated layer filter for the trace files "
                            "(checkers always see every layer)")

    sweep = sub.add_parser(
        "sweep",
        help="run a config grid in parallel (sharded workers + result cache)",
    )
    sweep.add_argument("description", help="path to the base experiment YAML")
    sweep.add_argument("--grid", dest="grid", action="append", default=[],
                       metavar="KEY=V1,V2", help="one grid axis (repeatable)")
    sweep.add_argument("--seeds", type=int, default=5,
                       help="repetitions per cell (default 5, like the paper)")
    sweep.add_argument("-j", "--workers", type=int, default=None,
                       help="worker processes (default: $REPRO_WORKERS or CPU count)")
    sweep.add_argument("--cache-dir", default=None,
                       help="result cache directory (default: $REPRO_CACHE_DIR)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-run wall-clock timeout in seconds")
    sweep.add_argument("-o", "--outdir", default=None,
                       help="write per-run Appendix-A artifacts here")
    sweep.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a base config field")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-run progress lines")
    sweep.add_argument("--metrics", action="store_true",
                       help="collect runtime metrics on every run; with "
                            "-o, also writes a merged metrics.json")

    journeys = sub.add_parser(
        "journeys",
        help="span-traced run: waterfalls, attribution, Chrome-trace "
             "export; non-zero exit on a phase-tiling violation",
    )
    journeys.add_argument("description", nargs="?", default=None,
                          help="experiment YAML (default: a short 3-hop "
                               "line with spans=True)")
    journeys.add_argument("-o", "--outdir", default="journeys-out",
                          help="journeys artifact directory "
                               "(default: journeys-out)")
    journeys.add_argument("--set", dest="overrides", action="append",
                          default=[], metavar="KEY=VALUE",
                          help="override a config field")
    journeys.add_argument("--ab-check", action="store_true",
                          help="instead of a traced run: interleaved "
                               "spans-off/spans-on overhead measurement on "
                               "the Fig. 8a cell (non-zero exit over the "
                               "bar)")
    journeys.add_argument("--repeats", type=int, default=3,
                          help="measured A/B repetitions (default 3)")
    journeys.add_argument("--bar", type=float, default=0.02,
                          help="tolerated B/A overhead fraction "
                               "(default 0.02)")

    workload = sub.add_parser(
        "workload",
        help="churn seed-matrix smoke: write reconvergence.json, non-zero "
             "exit if any cell fails to reconverge",
    )
    from repro.exp.workloadcmd import add_workload_arguments

    add_workload_arguments(workload)

    args = parser.parse_args(argv)

    if args.command == "describe":
        print(ExperimentConfig(name=args.name).to_yaml(), end="")
        return 0

    if args.command == "lint":
        from repro.lint.cli import run_lint

        return run_lint(args)

    if args.command == "metrics":
        from repro.exp.metricscmd import (
            example_config,
            render_metrics_summary,
            run_metrics,
        )

        config = _load_config(args.description, args.overrides, example_config)
        if args.repetitions < 1:
            raise SystemExit("--repetitions must be >= 1")
        if args.workers < 1:
            raise SystemExit("--workers must be >= 1")
        print(f"metering {config.name!r}: {config.topology} topology, "
              f"{config.n_nodes} nodes, {config.duration_s:.0f}s, "
              f"{args.repetitions} repetition(s) ...", file=sys.stderr)
        report = run_metrics(
            config,
            args.outdir,
            repetitions=args.repetitions,
            max_workers=args.workers,
            cache_dir=args.cache_dir,
        )
        print(render_metrics_summary(report), end="")
        return 0

    if args.command == "trace":
        from repro.exp.tracecmd import (
            example_config,
            render_trace_summary,
            run_traced,
        )

        config = _load_config(args.description, args.overrides, example_config)
        print(f"tracing {config.name!r}: {config.topology} topology, "
              f"{config.n_nodes} nodes, {config.duration_s:.0f}s ...",
              file=sys.stderr)
        report = run_traced(config, args.outdir, layers=args.layers)
        print(render_trace_summary(report), end="")
        return 0 if report.ok else 1

    if args.command == "journeys":
        from repro.exp.journeyscmd import (
            example_config,
            render_ab_summary,
            render_journeys_summary,
            run_ab_check,
            run_journeys,
        )

        if args.ab_check:
            if args.repeats < 1:
                raise SystemExit("--repeats must be >= 1")
            print(f"A/B overhead check: {args.repeats} interleaved "
                  f"repetitions on the Fig. 8a cell ...", file=sys.stderr)
            check = run_ab_check(repeats=args.repeats, bar=args.bar)
            print(render_ab_summary(check))
            return 0 if check["ok"] else 1
        config = _load_config(args.description, args.overrides, example_config)
        print(f"spanning {config.name!r}: {config.topology} topology, "
              f"{config.n_nodes} nodes, {config.duration_s:.0f}s ...",
              file=sys.stderr)
        report = run_journeys(config, args.outdir)
        print(render_journeys_summary(report))
        return 0 if report.ok else 1

    if args.command == "workload":
        from repro.exp.workloadcmd import run_workload_cli

        return run_workload_cli(args)

    config = _load_config(args.description, args.overrides)

    if getattr(args, "metrics", False):
        from dataclasses import replace

        config = replace(config, metrics=True)

    if args.command == "run":
        print(f"running {config.name!r}: {config.topology} topology, "
              f"{config.link_layer}, conn interval {config.conn_interval}, "
              f"{config.duration_s:.0f}s ...", file=sys.stderr)
        result = run_experiment(config)
        print(render_summary(result), end="")
        if args.outdir:
            out = write_artifacts(result, args.outdir)
            print(f"artifacts written to {out}/", file=sys.stderr)
        return 0

    # -- sweep ---------------------------------------------------------------
    from repro.exp.sweep import render_sweep_table, run_sweep

    grid = _parse_grid(config, args.grid)
    workers = args.workers
    if workers is None:
        workers = _env_int("REPRO_WORKERS") or (os.cpu_count() or 1)
    if workers < 1:
        raise SystemExit("--workers must be >= 1")
    if args.seeds < 1:
        raise SystemExit("--seeds must be >= 1")
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None

    n_cells = 1
    for values in grid.values():
        n_cells *= len(values)
    print(
        f"sweeping {config.name!r}: {n_cells} cells x {args.seeds} seeds = "
        f"{n_cells * args.seeds} runs, {workers} workers"
        + (f", cache at {cache_dir}" if cache_dir else ", no cache"),
        file=sys.stderr,
    )
    started = monotonic()
    try:
        result = run_sweep(
            config,
            grid,
            seeds=args.seeds,
            max_workers=workers,
            cache_dir=cache_dir,
            timeout_s=args.timeout,
            outdir=args.outdir,
            progress=None if args.quiet else _progress_printer(sys.stderr),
        )
    except ValueError as exc:  # e.g. a grid value the config rejects
        raise SystemExit(f"invalid sweep: {exc}")
    wall = monotonic() - started
    print(render_sweep_table(result))
    print(result.stats.summary())
    if result.stats.run_wall_s:
        busy = sum(result.stats.run_wall_s)
        print(
            f"worker time {busy:.2f}s in {wall:.2f}s wall "
            f"(effective concurrency x{busy / wall:.2f})"
        )
    if args.outdir:
        if args.metrics:
            payloads = [
                getattr(o.result, "metrics", None)
                for o in result.outcomes
                if o.ok
            ]
            payloads = [p for p in payloads if p is not None]
            if payloads:
                from repro.obs.export import (
                    build_metrics_document,
                    dumps_metrics_document,
                )

                doc = build_metrics_document(
                    config.name,
                    payloads,
                    seeds=[o.config.seed for o in result.outcomes if o.ok],
                )
                merged = Path(args.outdir) / "metrics.json"
                merged.write_text(dumps_metrics_document(doc))
                print(f"merged metrics written to {merged}", file=sys.stderr)
        print(f"artifacts written to {args.outdir}/", file=sys.stderr)
    return 1 if result.total_failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
