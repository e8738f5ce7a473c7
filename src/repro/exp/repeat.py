"""Repetition helper: the paper's "every experiment is repeated 5x" (§5).

Runs an :class:`~repro.exp.config.ExperimentConfig` across derived seeds and
aggregates the headline metrics, like the paper's Appendix B grid does for
its 5x1 h cells.  The repetitions go through
:class:`~repro.exp.parallel.ParallelEngine`: in-process with one worker,
sharded across worker processes with more, and served from the on-disk
result cache when one is given.  The aggregated numbers are identical
either way because the simulator is deterministic per ``(config, seed)``.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, List, Optional

from repro.exp.config import ExperimentConfig
from repro.exp.metrics import percentile
from repro.exp.parallel import ParallelEngine
from repro.exp.runner import ExperimentResult

#: Stride between repetition seed blocks.  Repetition ``k`` of base seed
#: ``s`` uses ``s * SEED_STRIDE + k``, so the 5-seed sets of distinct base
#: seeds can never collide as long as fewer than ``SEED_STRIDE`` repetitions
#: are requested (tests/sim/test_kernel_determinism.py proves this).
SEED_STRIDE = 1000


def derive_seed(base_seed: int, k: int) -> int:
    """The seed of repetition ``k`` for ``base_seed`` (see ``SEED_STRIDE``)."""
    if not 0 <= k < SEED_STRIDE:
        raise ValueError(f"repetition index {k} outside [0, {SEED_STRIDE})")
    return base_seed * SEED_STRIDE + k


def repetition_configs(config: ExperimentConfig, n: int) -> List[ExperimentConfig]:
    """The ``n`` per-repetition configs (only the seed differs)."""
    base = asdict(config)
    return [
        ExperimentConfig(**{**base, "seed": derive_seed(config.seed, k)})
        for k in range(n)
    ]


@dataclass
class RepeatedResult:
    """Aggregate over N repetitions of one configuration (one
    :class:`~repro.exp.runner.ExperimentResult` per repetition)."""

    config: ExperimentConfig
    results: List[ExperimentResult] = field(default_factory=list)

    @property
    def n(self) -> int:
        """Number of repetitions."""
        return len(self.results)

    def coap_pdr_mean(self) -> float:
        """Mean CoAP PDR across repetitions."""
        return sum(r.coap_pdr() for r in self.results) / self.n

    def coap_pdr_min(self) -> float:
        """Worst repetition's CoAP PDR."""
        return min(r.coap_pdr() for r in self.results)

    def link_pdr_mean(self) -> float:
        """Mean link-layer PDR across repetitions."""
        return sum(r.link_pdr_overall() for r in self.results) / self.n

    def total_connection_losses(self) -> int:
        """Connection losses summed over all repetitions (Fig. 14's bars)."""
        return sum(r.num_connection_losses() for r in self.results)

    def rtt_percentile(self, q: float) -> float:
        """A pooled RTT quantile across all repetitions (seconds).

        NaN when no repetition delivered a single packet (e.g. fully
        shaded cells) -- aggregation must not crash a whole sweep.
        """
        pooled = [rtt for r in self.results for rtt in r.rtts_s()]
        if not pooled:
            return math.nan
        return percentile(pooled, q)


def run_repetitions(
    config: ExperimentConfig,
    n: int = 5,
    max_workers: int = 1,
    cache_dir: Optional[str | os.PathLike] = None,
    progress: Optional[Callable] = None,
) -> RepeatedResult:
    """Run ``config`` ``n`` times with derived seeds and aggregate.

    Repetition ``k`` uses seed ``config.seed * 1000 + k`` so repetition sets
    never overlap between base seeds and every run stays reproducible.

    :param max_workers: >1 shards repetitions across worker processes.
    :param cache_dir: enables the on-disk result cache (also with 1 worker).
    :param progress: forwarded to the engine.
    """
    if n < 1:
        raise ValueError("need at least one repetition")
    engine = ParallelEngine(
        max_workers=max_workers, cache=cache_dir, progress=progress
    )
    outcomes = engine.run(repetition_configs(config, n))
    failed = [o for o in outcomes if not o.ok]
    if failed:
        details = "; ".join(f"seed={o.config.seed}: {o.error}" for o in failed)
        raise RuntimeError(f"{len(failed)}/{n} repetitions failed: {details}")
    return RepeatedResult(config=config, results=[o.result for o in outcomes])
