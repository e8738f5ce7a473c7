"""simlint: determinism & unit-discipline static analysis for the simulator.

Every number this reproduction publishes -- shading onsets, the Fig. 8
sweeps, byte-identical ``metrics.json`` merges -- rests on two properties
that ordinary tests only probe, never guarantee:

* **Determinism.**  Same seed, same config, same bytes.  One stray
  ``time.time()``, one unseeded ``random`` draw, one iteration over a
  ``set`` that reaches the event schedule, and the result cache silently
  serves poisoned entries while the golden traces drift.
* **Integer-time discipline.**  Simulation time is integer nanoseconds
  (:mod:`repro.sim.units`); float arithmetic or float equality on a time
  value reintroduces the rounding the integer base was chosen to exclude.

``simlint`` enforces both *statically*, as an AST pass over the source,
so a regression is caught at lint time instead of three cached sweeps
later.  ``python -m repro lint`` is the gate: it prints every finding and
exits 1 on any.  A finding goes away by fixing the code or by an inline
``# simlint: allow-<rule> -- <reason>`` (the reason is mandatory).

Public surface:

* :func:`lint_source` / :func:`lint_paths` -- the engine
* :class:`Finding` -- one diagnostic
* :func:`default_rules` -- the rule set (SL001..SL008)
"""

from __future__ import annotations

from repro.lint.core import Finding, lint_paths, lint_source, module_name_for
from repro.lint.rules import default_rules

__all__ = [
    "Finding",
    "default_rules",
    "lint_paths",
    "lint_source",
    "module_name_for",
]
