"""The committed perf baseline: ``python -m repro.obs.bench``.

Runs one representative scenario per topology class under the wall-clock
profiler and writes ``BENCH_metrics.json`` -- the events-per-second and
wall-time baseline the PR checks future regressions against.  The numbers
are machine-dependent by nature, so the file records the *shape* of the
simulator's performance (relative subsystem shares, sim-seconds per wall
second per scenario class), not a CI-enforced threshold; the CI metrics
job republishes the current events/sec figure warn-only instead.

Scenarios (all BLE, static 75 ms interval, 1 s producers):

* ``line``: 4 nodes end-to-end -- the multi-hop forwarding path.
* ``tree``: the paper's 15-node Figure-6 tree -- the fan-in workload.
* ``mesh``: 8 nodes, self-forming ``dynamic`` topology -- dynconn + RPL
  control traffic on top of data, with the long warmup the DODAG needs.
* ``scale100`` / ``scale100-allpairs``: the scale tier's entry point --
  100 nodes self-forming over a random-geometric layout, once with the
  uniform-grid neighbor index and once with the O(N)-per-transmission
  all-pairs reference.  The two runs make byte-identical delivery
  decisions (the differential suite proves it), so the events/sec gap
  between them is exactly the spatial index's win.

``--tier scale`` swaps in the 500- and 1000-node random-geometric
scenarios (grid index only); CI runs that tier in a separate,
non-blocking step.  Don't ``--compare`` across tiers: a baseline written
by one tier reports the other tier's scenarios as missing.

No timestamps are recorded in the baseline document: reruns on the same
machine and commit should produce comparable documents.  Longitudinal
tracking lives elsewhere -- ``--append-history BENCH_history.jsonl``
appends one line per scenario (timestamp, git revision, events/sec) to a
machine-local perf log that CI uploads as an artifact.
"""

from __future__ import annotations

import argparse
import json
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional

from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_experiment
from repro.obs.profiler import PROFILER
from repro.obs.wallclock import unix_time
from repro.sim.units import s_to_ns

#: Schema tag of the baseline document.
BENCH_SCHEMA = "repro.obs.bench/1"

#: Schema tag of one bench-history JSONL line.
BENCH_HISTORY_SCHEMA = "repro.obs.bench-history/1"

#: Default tolerated throughput drop before the compare gate fails (25 %).
DEFAULT_REGRESSION_THRESHOLD = 0.25


#: The bench tiers: ``default`` runs on every ``python -m repro bench``
#: invocation; ``scale`` is the separate non-blocking CI step.
BENCH_TIERS = ("default", "scale")


def scale_config(n_nodes: int, spatial_index: str = "grid") -> ExperimentConfig:
    """The scale-tier scenario at ``n_nodes``: dynconn self-formation over
    a random-geometric layout, range-gated by the chosen spatial index.

    The warmup keeps the fleet mid-formation for most of the run: orphans
    advertise continuously, which is precisely the fan-out the spatial
    index exists to cut, so the grid-vs-allpairs events/sec gap measures
    the honest worst case rather than a settled, quiet mesh.
    """
    suffix = "" if spatial_index == "grid" else f"-{spatial_index}"
    return ExperimentConfig(
        name=f"bench-scale{n_nodes}{suffix}",
        topology="dynamic",
        geometry="rgg",
        spatial_index=spatial_index,
        n_nodes=n_nodes,
        duration_s=10.0,
        warmup_s=30.0,
        drain_s=2.0,
        seed=7,
    )


def bench_configs(tier: str = "default") -> Dict[str, ExperimentConfig]:
    """One config per scenario, keyed by scenario label."""
    if tier == "scale":
        return {
            "scale500": scale_config(500),
            "scale1000": scale_config(1000),
        }
    if tier != "default":
        raise ValueError(f"unknown bench tier {tier!r} (choose from {BENCH_TIERS})")
    return {
        "line": ExperimentConfig(
            name="bench-line",
            topology="line",
            n_nodes=4,
            duration_s=30.0,
            warmup_s=3.0,
            drain_s=2.0,
            seed=7,
        ),
        "tree": ExperimentConfig(
            name="bench-tree",
            topology="tree",
            n_nodes=15,
            duration_s=20.0,
            warmup_s=5.0,
            drain_s=2.0,
            seed=7,
        ),
        "mesh": ExperimentConfig(
            name="bench-mesh",
            topology="dynamic",
            n_nodes=8,
            duration_s=20.0,
            warmup_s=30.0,
            drain_s=2.0,
            seed=7,
        ),
        "scale100": scale_config(100),
        "scale100-allpairs": scale_config(100, spatial_index="allpairs"),
    }


def run_bench(tier: str = "default") -> dict:
    """Profile every scenario of ``tier``; return the baseline document."""
    scenarios = {}
    for label, config in bench_configs(tier).items():
        PROFILER.configure()
        try:
            run_experiment(config)
        finally:
            profile = PROFILER.report(
                sim_time_ns=s_to_ns(config.total_runtime_s)
            )
            PROFILER.reset()
        scenarios[label] = {
            "topology": config.topology,
            "n_nodes": config.n_nodes,
            "sim_time_s": config.total_runtime_s,
            "events": profile["events"],
            "wall_s": round(profile["wall_s"], 4),
            "events_per_wall_s": round(profile["events_per_wall_s"], 1),
            "sim_s_per_wall_s": round(profile["sim_s_per_wall_s"], 1),
        }
    return {"schema": BENCH_SCHEMA, "scenarios": scenarios}


def scenario_mismatches(current: dict, baseline: dict) -> List[str]:
    """Scenario-set differences between two bench documents, both ways.

    A label present in one document but not the other is a comparison
    *setup* error (typically documents produced by different ``--tier``
    values), not a perf regression: each difference yields one clear
    diagnostic line and the CLI exits 2 instead of raising a KeyError or
    mislabeling it a regression.
    """
    cur = set(current.get("scenarios", {}))
    base = set(baseline.get("scenarios", {}))
    problems: List[str] = []
    for label in sorted(base - cur):
        problems.append(
            f"{label}: present in baseline but missing from current run "
            f"(different --tier values?)"
        )
    for label in sorted(cur - base):
        problems.append(
            f"{label}: present in current run but missing from baseline "
            f"(different --tier values?)"
        )
    return problems


def compare_documents(
    current: dict, baseline: dict, threshold: float
) -> List[str]:
    """Check ``current`` against ``baseline``; return regression messages.

    A scenario regresses when its ``events_per_wall_s`` drops by more than
    ``threshold`` (a fraction: 0.25 = 25 %) relative to the baseline.
    Only scenarios present in *both* documents are compared; scenario-set
    differences are the province of :func:`scenario_mismatches` (the CLI
    runs both and exits 2 on a mismatch).
    """
    problems: List[str] = []
    base_scenarios = baseline.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})
    for label, base_row in sorted(base_scenarios.items()):
        cur_row = cur_scenarios.get(label)
        if cur_row is None:
            continue
        base_eps = float(base_row["events_per_wall_s"])
        cur_eps = float(cur_row["events_per_wall_s"])
        if base_eps <= 0:
            continue
        ratio = cur_eps / base_eps
        if ratio < 1.0 - threshold:
            problems.append(
                f"{label}: {cur_eps:.1f} events/s is "
                f"{(1.0 - ratio) * 100.0:.1f}% below baseline "
                f"{base_eps:.1f} (threshold {threshold * 100.0:.0f}%)"
            )
    return problems


def render_comparison(current: dict, baseline: dict) -> str:
    """Human-readable per-scenario throughput deltas vs a baseline."""
    lines = []
    base_scenarios = baseline.get("scenarios", {})
    for label, row in sorted(current.get("scenarios", {}).items()):
        cur_eps = float(row["events_per_wall_s"])
        base_row = base_scenarios.get(label)
        if base_row is None:
            lines.append(f"{label:17s} {cur_eps:10.1f} events/sec (no baseline)")
            continue
        base_eps = float(base_row["events_per_wall_s"])
        ratio = cur_eps / base_eps if base_eps > 0 else float("inf")
        lines.append(
            f"{label:17s} {cur_eps:10.1f} events/sec "
            f"vs baseline {base_eps:10.1f}  ({ratio:5.2f}x)"
        )
    return "\n".join(lines)


def git_revision() -> str:
    """The current git revision (short), or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def history_lines(
    doc: dict, tier: str, rev: str, ts_unix: float
) -> List[dict]:
    """One history record per scenario of a bench document.

    The timestamp and git revision are wall-clock/workspace facts, which
    is exactly the point: the history file is the machine-local perf log
    (like ``profile.json``), never a reproducible result document.
    """
    stamp = datetime.fromtimestamp(ts_unix, timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )
    lines = []
    for label, row in sorted(doc.get("scenarios", {}).items()):
        lines.append({
            "schema": BENCH_HISTORY_SCHEMA,
            "ts": stamp,
            "rev": rev,
            "tier": tier,
            "scenario": label,
            "n_nodes": row["n_nodes"],
            "events": row["events"],
            "wall_s": row["wall_s"],
            "events_per_wall_s": row["events_per_wall_s"],
        })
    return lines


def append_history(path: Path, doc: dict, tier: str) -> int:
    """Append the document's per-scenario records to the JSONL history
    file; returns the number of lines appended."""
    lines = history_lines(doc, tier, git_revision(), unix_time())
    with path.open("a") as fh:
        for line in lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    return len(lines)


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``bench`` options (shared by the CLI subcommand)."""
    parser.add_argument(
        "-o", "--out", default="BENCH_metrics.json",
        help="baseline document to (re)write (default: BENCH_metrics.json)",
    )
    parser.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="compare against this baseline document and fail on regression",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_REGRESSION_THRESHOLD,
        help="tolerated events/sec drop as a fraction "
             f"(default {DEFAULT_REGRESSION_THRESHOLD})",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but exit 0 (CI soak mode)",
    )
    parser.add_argument(
        "--tier", choices=BENCH_TIERS, default="default",
        help="scenario tier: 'default' (line/tree/mesh + 100-node scale) "
             "or 'scale' (500/1000-node runs; use a separate --out and "
             "baseline)",
    )
    parser.add_argument(
        "--append-history", default=None, metavar="JSONL",
        help="also append one line per scenario (timestamp, git rev, "
             "events/sec) to this JSONL perf log (e.g. BENCH_history.jsonl)",
    )


def run_bench_cli(args: argparse.Namespace) -> int:
    """Execute the bench subcommand; returns a process exit code."""
    baseline: Optional[dict] = None
    if args.compare is not None:
        # Read the baseline *before* writing --out: they may be the same file.
        baseline = json.loads(Path(args.compare).read_text())
    doc = run_bench(getattr(args, "tier", "default"))
    out = Path(args.out)
    out.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    for label, row in doc["scenarios"].items():
        print(
            f"{label:17s} {row['n_nodes']:4d} nodes "
            f"{row['events']:8d} events {row['wall_s']:8.3f}s wall "
            f"{row['events_per_wall_s']:10.1f} events/sec "
            f"x{row['sim_s_per_wall_s']:.0f} real time"
        )
    print(f"baseline written to {out}")
    history = getattr(args, "append_history", None)
    if history is not None:
        appended = append_history(Path(history), doc, args.tier)
        print(f"{appended} history line(s) appended to {history}")
    if baseline is None:
        return 0
    print(render_comparison(doc, baseline))
    mismatches = scenario_mismatches(doc, baseline)
    for problem in mismatches:
        print(f"MISMATCH: {problem}")
    problems = compare_documents(doc, baseline, args.threshold)
    for problem in problems:
        print(f"REGRESSION: {problem}")
    if not mismatches and not problems:
        return 0
    if args.warn_only:
        print("(warn-only: exit 0 despite regressions)")
        return 0
    return 2 if mismatches else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Run the bench and (re)write the baseline; optionally gate on one."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Re-run the committed perf scenarios and write/compare "
                    "the BENCH_metrics.json baseline.",
    )
    add_bench_arguments(parser)
    return run_bench_cli(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
