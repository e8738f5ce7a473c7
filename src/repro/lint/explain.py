"""``python -m repro lint --explain SL00X``: per-rule rationale pages.

Each entry answers the three questions a developer hitting a finding
actually has: *why does this rule exist* (what simulator property it
protects), *what does a violation look like*, and *how do I make it go
away* -- the real fix first, the suppression escape hatch last, always
with its mandatory reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.lint.rules import RULES


@dataclass(frozen=True)
class Explanation:
    """One rule's rationale page."""

    rationale: str
    example: str
    fix: str


_E: Dict[str, Explanation] = {
    "SL001": Explanation(
        rationale=(
            "Simulation time is Simulator.now (integer ns); any host-clock\n"
            "read that reaches simulated state makes runs irreproducible\n"
            "across machines and re-runs.  Since simlint 2.0 the rule is\n"
            "flow-aware: a helper that wraps time.time() taints every caller\n"
            "through the project call graph (including functools.partial\n"
            "wrapping), and each tainted call site reports its full chain."
        ),
        example=(
            "    def _now():            # tainted: wraps the host clock\n"
            "        return time.time()\n"
            "    def jitter():\n"
            "        return _now() * 2  # SL001: chain jitter -> _now -> time.time"
        ),
        fix=(
            "Pass sim time in as a parameter, or route the read through\n"
            "repro.obs.wallclock (the sanctioned home; taint never escapes\n"
            "it).  Escape hatch:\n"
            "    # simlint: allow-wallclock -- <why this read is justified>"
        ),
    ),
    "SL002": Explanation(
        rationale=(
            "All randomness must derive from (experiment_seed, stream_name)\n"
            "via repro.sim.rng.RngRegistry; module-level random.*, unseeded\n"
            "Random(), and numpy.random break bit-for-bit repetition.  The\n"
            "flow-aware half flags calls into helpers that launder such\n"
            "draws, with the call chain as evidence."
        ),
        example=(
            "    def _pick():              # tainted: global stream\n"
            "        return random.random()\n"
            "    def backoff():\n"
            "        return _pick() * 7    # SL002: chain backoff -> _pick -> ..."
        ),
        fix=(
            "Take a seeded random.Random from RngRegistry.stream(name) and\n"
            "pass it down.  Escape hatch:\n"
            "    # simlint: allow-rng -- <why this draw is justified>"
        ),
    ),
    "SL003": Explanation(
        rationale=(
            "Set iteration order is hash-randomized (PYTHONHASHSEED) and can\n"
            "leak host state into event scheduling or serialized output.\n"
            "The rule tracks set-valued names, set algebra, generator\n"
            "expressions over sets, and -- via the call graph -- calls to\n"
            "project functions proven to return sets."
        ),
        example=(
            "    def neighbours():\n"
            "        return {2, 3, 5}\n"
            "    for n in neighbours():     # SL003: set-returning call\n"
            "        schedule(n)\n"
            "    for n in sorted(neighbours()):  # clean: sorted() launders"
        ),
        fix=(
            "Wrap the iterable in sorted(...) at the consumer (or sort once\n"
            "at the producer and return a list).  Escape hatch:\n"
            "    # simlint: allow-set-order -- <why order cannot matter here>"
        ),
    ),
    "SL004": Explanation(
        rationale=(
            "Sim time is integer nanoseconds; float arithmetic or equality\n"
            "on *_ns names introduces rounding that varies by platform and\n"
            "breaks exact-replay guarantees."
        ),
        example=(
            "    if t_ns == 1.5:        # SL004: float equality on sim time\n"
            "    t_ns + 0.5 * span_ns   # SL004: float scaling"
        ),
        fix=(
            "Scale in integer ns (repro.sim.units constants); true division\n"
            "is exempt as the explicit float-conversion idiom (t_ns / SEC).\n"
            "Escape hatch: # simlint: allow-float-time -- <reason>"
        ),
    ),
    "SL005": Explanation(
        rationale=(
            "Cached results replay only if the config hash captures every\n"
            "input; os.environ / os.cpu_count reads are inputs the hash\n"
            "cannot see.  repro.exp.cli is the one sanctioned reader.  The\n"
            "flow-aware half catches helpers that launder env reads, at\n"
            "depth, including through functools.partial."
        ),
        example=(
            "    def _debug():                     # tainted\n"
            "        return os.environ.get('DBG')\n"
            "    def run():\n"
            "        if _debug(): ...              # SL005: chain run -> _debug -> os.environ"
        ),
        fix=(
            "Read the environment in repro.exp.cli and pass the value as\n"
            "explicit config.  Escape hatch:\n"
            "    # simlint: allow-env -- <why this read is justified>"
        ),
    ),
    "SL006": Explanation(
        rationale=(
            "BLE/802.15.4 timing literals (150_000 ns T_IFS, 1_250_000 ns\n"
            "connection-interval unit, ...) must be referenced by name so\n"
            "spec changes update one definition, not a scatter of literals."
        ),
        example=(
            "    t += 150_000          # SL006: that's T_IFS_NS\n"
            "    t += 150 * USEC       # SL006: same value, product form"
        ),
        fix=(
            "Reference the named constant (repro.sim.units / protocol\n"
            "config).  ALL_CAPS defining assignments are exempt -- naming\n"
            "the constant *is* the fix.  Escape hatch:\n"
            "    # simlint: allow-magic-time -- <reason>"
        ),
    ),
    "SL007": Explanation(
        rationale=(
            "Time values carry their unit in the name suffix (_ns/_us/_ms/_s).\n"
            "The inference lattice types expressions from suffixes,\n"
            "repro.sim.units constants and converters, and arithmetic\n"
            "propagation; it flags cross-unit mixes and unit-typed values\n"
            "crossing public APIs into suffix-less parameters.  Conversion\n"
            "idioms type correctly: 150 * USEC is ns, x_ms * MSEC is ns,\n"
            "t_ns / SEC is a unitless ratio."
        ),
        example=(
            "    t_ns + delay_ms            # SL007: ns + ms\n"
            "    x_ms = conn_interval_ns()  # SL007: suffix lies\n"
            "    api(x_us)                  # SL007 if api's param is 'delay_ms'"
        ),
        fix=(
            "Convert one side via repro.sim.units (ms_to_ns, x_ms * MSEC, ...)\n"
            "or fix the misleading name.  Escape hatch:\n"
            "    # simlint: allow-unit-mix -- <reason>"
        ),
    ),
    "SL008": Explanation(
        rationale=(
            "The disabled-instrumentation overhead budget (<2%) holds only\n"
            "if every METRICS/TRACE/SPANS touch on the hot dispatch path\n"
            "(repro.sim.kernel, repro.ble, repro.l2cap, repro.net) is behind\n"
            "its .enabled predicate.  The proof accepts direct guards,\n"
            "hoisted locals (on = TRACE.enabled), compound tests, early\n"
            "returns (if not TRACE.enabled: return), and caller-side guards\n"
            "via a greatest fixpoint over the call graph."
        ),
        example=(
            "    def on_rx(pdu):\n"
            "        TRACE.emit(...)        # SL008: unguarded hot-path call\n"
            "    def ok(pdu):\n"
            "        if TRACE.enabled:\n"
            "            TRACE.emit(...)    # clean"
        ),
        fix=(
            "Guard the touch (or hoist one guard around the block); a helper\n"
            "is exempt when every hot call site is provably guarded.\n"
            "Escape hatch: # simlint: allow-instr-guard -- <reason>"
        ),
    ),
}


def explain(code_or_alias: str) -> Optional[str]:
    """The rationale page for a rule, by code or alias; None if unknown."""
    wanted = code_or_alias.strip().upper()
    rule = RULES.get(wanted)
    if rule is None:
        for candidate in RULES.values():
            if candidate.alias == code_or_alias.strip().lower():
                rule = candidate
                break
    if rule is None or rule.code not in _E:
        return None
    entry = _E[rule.code]
    return (
        f"{rule.code} ({rule.alias}) [{rule.severity}]\n"
        f"{rule.summary}\n"
        f"\nWhy\n---\n{entry.rationale}\n"
        f"\nExample\n-------\n{entry.example}\n"
        f"\nFix\n---\n{entry.fix}\n"
    )
