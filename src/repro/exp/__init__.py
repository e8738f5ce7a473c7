"""Experimentation framework (paper Appendix A).

The paper drives every experiment from a static YAML description and emits
(i) the description, (ii) a raw event log, and (iii) derived metrics/plots.
This package mirrors that pipeline in-process:

* :mod:`repro.exp.config` -- the experiment description (YAML round-trip),
* :mod:`repro.exp.runner` -- builds the network, runs it, and returns an
  :class:`~repro.exp.runner.ExperimentResult`, the one picklable result
  type every path (in-process, worker, cache) returns,
* :mod:`repro.exp.links` -- the link sampler: per-link series, connection
  losses and the live shading gauges,
* :mod:`repro.exp.metrics` -- CDFs, time-binned PDR series, per-channel
  PDRs, loss censuses,
* :mod:`repro.exp.report` -- fixed-width tables for benchmark output,
* :mod:`repro.exp.asciiplot` -- terminal renderings of the paper's figures,
* :mod:`repro.exp.cache` -- the content-addressed on-disk result cache,
* :mod:`repro.exp.parallel` -- the sharded multiprocess execution engine,
* :mod:`repro.exp.sweep` -- config-grid expansion + aggregation on top.
"""

from repro.exp.config import ExperimentConfig, parse_interval_spec
from repro.exp.runner import ExperimentResult, ExperimentRunner, run_experiment
from repro.exp.artifacts import write_artifacts
from repro.exp.cache import ResultCache
from repro.exp.parallel import ParallelEngine, RunOutcome, run_grid
from repro.exp.repeat import RepeatedResult, derive_seed, run_repetitions
from repro.exp.sweep import SweepResult, expand_grid, run_sweep

__all__ = [
    "ExperimentConfig",
    "parse_interval_spec",
    "ExperimentResult",
    "ExperimentRunner",
    "run_experiment",
    "write_artifacts",
    "ResultCache",
    "ParallelEngine",
    "RunOutcome",
    "run_grid",
    "RepeatedResult",
    "derive_seed",
    "run_repetitions",
    "SweepResult",
    "expand_grid",
    "run_sweep",
]
