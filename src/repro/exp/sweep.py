"""Config-grid sweeps (the paper's Appendix B workflow, parallelized).

A sweep is a base :class:`~repro.exp.config.ExperimentConfig`, a grid of
field overrides (e.g. ``conn_interval`` x ``producer_interval_s``), and a
repetition count.  :func:`run_sweep` expands the cross product into
``cells x seeds`` work items, runs them through the
:class:`~repro.exp.parallel.ParallelEngine` (sharded + cached), aggregates
each cell like :class:`~repro.exp.repeat.RepeatedResult`, and optionally
writes the Appendix-A artifact triple per run.
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exp.config import ExperimentConfig
from repro.exp.parallel import (
    EngineStats,
    ParallelEngine,
    ProgressEvent,
    RunOutcome,
)
from repro.exp.repeat import RepeatedResult, repetition_configs
from repro.exp.report import format_table

#: Sanitizer for per-run artifact directory names.
_UNSAFE = re.compile(r"[^A-Za-z0-9._=,\-\[\]:]+")


@dataclass
class SweepCell:
    """One grid point: a config (base seed) and its per-seed outcomes."""

    config: ExperimentConfig
    #: The grid overrides that define this cell, in grid-key order.
    overrides: Tuple[Tuple[str, object], ...]
    outcomes: List[RunOutcome] = field(default_factory=list)

    @property
    def label(self) -> str:
        """Human-readable cell id, e.g. ``conn_interval=75``."""
        if not self.overrides:
            return self.config.name
        return ",".join(f"{k}={v}" for k, v in self.overrides)

    @property
    def failed(self) -> List[RunOutcome]:
        """Outcomes that produced no result."""
        return [o for o in self.outcomes if not o.ok]

    def aggregate(self) -> RepeatedResult:
        """The cell's repetitions aggregated (successful runs only)."""
        agg = RepeatedResult(config=self.config)
        agg.results = [o.result for o in self.outcomes if o.ok]
        return agg


@dataclass
class SweepResult:
    """Everything one sweep produced."""

    cells: List[SweepCell]
    stats: EngineStats

    @property
    def outcomes(self) -> List[RunOutcome]:
        """All outcomes across cells, cell-major, seed-minor."""
        return [o for cell in self.cells for o in cell.outcomes]

    @property
    def total_failures(self) -> int:
        """Runs that failed after retries."""
        return sum(len(cell.failed) for cell in self.cells)


def expand_grid(
    base: ExperimentConfig,
    grid: Dict[str, Sequence],
    seeds: int = 5,
) -> List[SweepCell]:
    """Expand ``base`` x ``grid`` x ``seeds`` into cells with run configs.

    Grid keys must be config field names; the cross product is taken in the
    given key order, so expansion order (and therefore work-item order) is
    deterministic.  Each cell's repetition ``k`` uses
    :func:`~repro.exp.repeat.derive_seed`.
    """
    if seeds < 1:
        raise ValueError("need at least one seed")
    base_fields = asdict(base)
    for key in grid:
        if key not in base_fields:
            raise ValueError(f"unknown config field {key!r} in grid")
        if not grid[key]:
            raise ValueError(f"grid axis {key!r} is empty")
    keys = list(grid)
    cells: List[SweepCell] = []
    for combo in itertools.product(*(grid[k] for k in keys)) if keys else [()]:
        overrides = tuple(zip(keys, combo))
        name = base.name + ("/" + ",".join(f"{k}={v}" for k, v in overrides)
                            if overrides else "")
        cell_config = ExperimentConfig(
            **{**base_fields, **dict(overrides), "name": name}
        )
        cell = SweepCell(config=cell_config, overrides=overrides)
        cells.append(cell)
    return cells


def artifact_dirname(index: int, config: ExperimentConfig) -> str:
    """A filesystem-safe per-run artifact directory name."""
    safe = _UNSAFE.sub("_", config.name.replace("/", "__"))
    return f"{index:04d}-{safe}-seed{config.seed}"


def run_sweep(
    base: ExperimentConfig,
    grid: Dict[str, Sequence],
    seeds: int = 5,
    max_workers: Optional[int] = None,
    cache_dir: str | os.PathLike | None = None,
    timeout_s: Optional[float] = None,
    outdir: str | os.PathLike | None = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
) -> SweepResult:
    """Run the whole grid through the parallel engine.

    :param outdir: when given, every successful run writes its artifacts
        into ``<outdir>/<NNNN>-<name>-seed<seed>/``, and the runs that
        recorded metrics merge into one ``metrics.json`` / ``metrics.prom``
        at the top of ``outdir``.
    """
    cells = expand_grid(base, grid, seeds)
    flat_configs: List[ExperimentConfig] = []
    spans: List[Tuple[SweepCell, int, int]] = []
    for cell in cells:
        start = len(flat_configs)
        flat_configs.extend(repetition_configs(cell.config, seeds))
        spans.append((cell, start, len(flat_configs)))

    engine = ParallelEngine(
        max_workers=max_workers,
        cache=cache_dir,
        timeout_s=timeout_s,
        progress=progress,
    )
    outcomes = engine.run(flat_configs)
    for cell, start, end in spans:
        cell.outcomes = outcomes[start:end]

    if outdir is not None:
        from repro.exp.artifacts import write_artifacts, write_metrics
        from repro.obs.export import build_metrics_document

        root = Path(outdir)
        metered_seeds: List[int] = []
        payloads: List[dict] = []
        for index, outcome in enumerate(outcomes):
            if outcome.result is None:
                continue
            write_artifacts(
                outcome.result, root / artifact_dirname(index, outcome.config)
            )
            if outcome.result.metrics is not None:
                metered_seeds.append(outcome.config.seed)
                payloads.append(outcome.result.metrics)
        if payloads:
            write_metrics(
                build_metrics_document(base.name, payloads, seeds=metered_seeds),
                root,
            )
    return SweepResult(cells=cells, stats=engine.stats)


def render_sweep_table(sweep: SweepResult) -> str:
    """The per-cell aggregate table the CLI prints."""
    headers = [
        "cell", "runs", "coap pdr", "min pdr", "ll pdr",
        "losses", "rtt p50 [ms]", "rtt p99 [ms]",
    ]
    rows = []
    for cell in sweep.cells:
        agg = cell.aggregate()
        if agg.n == 0:
            rows.append([cell.label, "0 (all failed)"] + ["-"] * 6)
            continue
        has_rtts = any(r.rtts_s() for r in agg.results)
        rows.append([
            cell.label,
            f"{agg.n}" + (f"+{len(cell.failed)} failed" if cell.failed else ""),
            f"{agg.coap_pdr_mean():.5f}",
            f"{agg.coap_pdr_min():.5f}",
            f"{agg.link_pdr_mean():.4f}",
            str(agg.total_connection_losses()),
            f"{agg.rtt_percentile(0.50) * 1000:.1f}" if has_rtts else "-",
            f"{agg.rtt_percentile(0.99) * 1000:.1f}" if has_rtts else "-",
        ])
    return format_table(headers, rows)
