"""The sanctioned wall-clock door.

simlint's SL001 forbids host-clock reads everywhere except this module,
because a wall-clock value that reaches simulated state or cached results
destroys reproducibility.  Orchestration code still has legitimate
wall-clock needs -- worker timeouts, progress lines, engine throughput
stats -- so those call sites import from *here* instead of :mod:`time`.
The module is allowlisted by SL001; importing it is a visible, greppable
declaration that a value is operator-facing timing, not simulation input.

Nothing obtained from this module may feed an event schedule, a config
hash, or a serialized result document.
"""

from __future__ import annotations

from time import monotonic

__all__ = ["monotonic"]
