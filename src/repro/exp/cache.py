"""Content-addressed on-disk result cache.

The simulator is strictly deterministic: a run is a pure function of its
:class:`~repro.exp.config.ExperimentConfig` (the seed is a config field).
That makes results safely cacheable -- the cache key is the SHA-256 of the
config's canonical JSON, the config schema version, and this module's
result-format version, so *any* change to a config field, to the config
schema, or to the stored result layout reads as a miss rather than a stale
replay.

Layout: ``<cache_dir>/<key[:2]>/<key>.pkl`` (two-level fan-out keeps
directories small on big sweeps).  Writes are atomic (temp file + rename),
so a killed worker never leaves a truncated entry; unreadable entries are
treated as misses and deleted.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.exp.config import ExperimentConfig
from repro.exp.runner import ExperimentResult

#: Bumped whenever the pickled :class:`ExperimentResult` layout changes.
RESULT_CACHE_VERSION = "result-v3"


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 before any lookup)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        """One-line human-readable accounting."""
        return (
            f"cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate * 100:.1f}% hit rate)"
        )


class ResultCache:
    """A directory of pickled :class:`ExperimentResult`s keyed by config hash.

    :param cache_dir: root directory (created on first store).
    :param version: result-format tag mixed into every key; override to
        segregate results produced by incompatible code.
    """

    def __init__(
        self, cache_dir: str | os.PathLike, version: str = RESULT_CACHE_VERSION
    ) -> None:
        self.root = Path(cache_dir)
        self.version = version
        self.stats = CacheStats()

    def key_for(self, config: ExperimentConfig) -> str:
        """The content hash addressing ``config``'s result."""
        return config.stable_hash(extra=self.version)

    def path_for(self, config: ExperimentConfig) -> Path:
        """Where ``config``'s result lives (whether or not it exists)."""
        key = self.key_for(config)
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, config: ExperimentConfig) -> Optional[ExperimentResult]:
        """The cached result for ``config``, or ``None`` (counted as a miss).

        A corrupt or unreadable entry is deleted and reported as a miss --
        the run is simply recomputed.
        """
        path = self.path_for(config)
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, config: ExperimentConfig, result: ExperimentResult) -> Path:
        """Store ``result`` under ``config``'s key (atomic); returns the path."""
        path = self.path_for(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with tmp.open("wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        self.stats.stores += 1
        return path

    def __contains__(self, config: ExperimentConfig) -> bool:
        """Whether a result for ``config`` is on disk (no stats update)."""
        return self.path_for(config).exists()

    def entry_count(self) -> int:
        """Number of cached results on disk (walks the directory)."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))
