"""Command-line entry point: run experiments from YAML descriptions.

Mirrors the paper's experimentation workflow (Appendix A): a static
description file fully determines the run; the output directory receives
the description, the raw results log, the derived summary, and every
observation channel the description's ``trace`` / ``metrics`` / ``spans``
flags recorded (see :mod:`repro.exp.artifacts`).  ``run`` also checks
what it recorded -- the trace invariants and the span phase tiling -- and
exits 1 on any violation.  ``sweep`` expands a config grid and runs it
through the parallel sharded engine (:mod:`repro.exp.parallel`) with
optional on-disk result caching.

Usage::

    python -m repro describe > experiment.yml   # a template description
    python -m repro run experiment.yml -o out/  # execute + write artifacts
    python -m repro run experiment.yml --set duration_s=120 --set seed=7
    python -m repro run examples/line4.yml --set trace=1 --set spans=1 -o out/
    python -m repro sweep experiment.yml \\
        --grid conn_interval=75,[65:85] --grid producer_interval_s=0.1,1.0 \\
        --seeds 5 --workers 4 --cache-dir .repro-cache -o out/
    python -m repro sweep examples/line4.yml --seeds 4 --set metrics=1 -o out/

``sweep`` honours ``REPRO_WORKERS`` and ``REPRO_CACHE_DIR`` when the
corresponding flags are not given.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TextIO

if TYPE_CHECKING:  # pragma: no cover
    from repro.exp.parallel import ProgressEvent

from repro.exp.artifacts import render_summary, render_verdicts, write_artifacts
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


def _number(raw: str) -> object:
    """``raw`` as an int or a float, like YAML reads it; other text stays
    a string for the config to reject by name."""
    for kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            pass
    return raw


def _coerce(config: ExperimentConfig, key: str, raw: str) -> object:
    """Parse ``raw`` into the type of ``config.<key>``."""
    if not hasattr(config, key):
        raise SystemExit(f"unknown config field {key!r}")
    if key == "drift_ppms":  # the one list-valued field: comma-separated
        return tuple(_number(part.strip()) for part in raw.split(","))
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


def _load_config(description: str, overrides: list[str]) -> ExperimentConfig:
    """The YAML ``description`` with the ``--set`` overrides applied.  Bad
    input -- a key an older version wrote, a mistyped value -- exits with
    one line, not a traceback."""
    try:
        config = ExperimentConfig.from_yaml(Path(description).read_text())
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
                     help="write the Appendix-A artifacts and every "
                          "recorded channel here")
    run.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config field")

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
                       help="write per-run artifacts here (plus one merged "
                            "metrics.json when the runs recorded metrics)")
    sweep.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a base config field")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-run progress lines")

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

    if args.command == "workload":
        from repro.exp.workloadcmd import run_workload_cli

        return run_workload_cli(args)

    config = _load_config(args.description, args.overrides)

    if args.command == "run":
        print(f"running {config.name!r}: {config.topology} topology, "
              f"{config.link_layer}, conn interval {config.conn_interval}, "
              f"{config.duration_s:.0f}s ...", file=sys.stderr)
        result = run_experiment(config)
        print(render_summary(result), end="")
        verdicts, ok = render_verdicts(result)
        if verdicts:
            print(f"\n{verdicts}")
        if args.outdir:
            out = write_artifacts(result, args.outdir)
            print(f"artifacts written to {out}/", file=sys.stderr)
        return 0 if ok else 1

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
    if args.timeout is not None and not 0 < args.timeout < math.inf:
        raise SystemExit("--timeout must be a finite number of seconds > 0")
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
        print(f"artifacts written to {args.outdir}/", file=sys.stderr)
    return 1 if result.total_failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
