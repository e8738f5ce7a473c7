"""Experiment descriptions (YAML-round-trippable, like the paper's §A.3).

An :class:`ExperimentConfig` pins everything a run needs: topology, link
layer, connection-interval specification, producer timing, loss model, and
the seed.  The connection interval uses the paper's notation: ``"75"`` for a
static 75 ms interval, ``"[65:85]"`` for the randomized window policy of
§6.3 (which also enables the subordinate-side collision rejection).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Optional

import yaml

from repro.trace.record import SCHEMAS

#: Bumped whenever a change to the simulator or the config schema makes
#: previously produced results incomparable; part of every cache key, so
#: stale on-disk results are invalidated wholesale instead of silently
#: replayed (see :mod:`repro.exp.cache`).
#: v4: spatial scale tier -- geometry/radio-range/spatial-index fields.
#: v5: scenario dynamics -- churn/mobility/mac_rotation workload blocks.
#: v6: packet-journey spans -- the ``spans`` collection flag.
#: v7: a ``kernel:`` dispatch-mode block.
#: v8: the ``kernel:`` block removed again (one dispatch mode).
CONFIG_SCHEMA_VERSION = 8

#: Topology kinds that generate node positions and run statconn over the
#: BFS spanning tree of the radio graph (see :mod:`repro.topo`).  ``line``
#: deliberately stays the paper's all-in-mutual-range Figure-6 layout; its
#: spatial sibling is ``corridor``.
SPATIAL_TOPOLOGIES = ("grid", "rgg", "building", "corridor")

#: Geometry kinds a ``dynamic`` (self-forming) run may range-gate with.
GEOMETRY_KINDS = ("none", "line", "grid", "rgg", "building", "corridor")

#: The layers ``trace_layers`` may name: those with record schemas.
TRACE_LAYERS = tuple(dict.fromkeys(key.split(".")[0] for key in SCHEMAS))


def canonical_value(value: Any) -> Any:
    """A JSON-safe, canonical form of one config field value.

    Floats are rendered via :meth:`float.hex` so the canonical form encodes
    the exact IEEE-754 bits and never depends on ``repr`` shortest-float
    behaviour; tuples become lists; dict keys are sorted.  The result feeds
    :meth:`ExperimentConfig.canonical_json`, whose bytes must be identical
    across processes, platforms, and Python versions for cache keys to be
    stable.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): canonical_value(value[k]) for k in sorted(value)}
    return str(value)

from repro.ble.config import SchedulerPolicy
from repro.core.intervals import (
    IntervalPolicy,
    RandomWindowIntervalPolicy,
    StaticIntervalPolicy,
)
from repro.sim.units import MSEC
from repro.testbed.topology import LAYOUTS

_WINDOW_RE = re.compile(r"^\[(\d+):(\d+)\]$")


def parse_interval_spec(
    spec: str, rng: Optional[random.Random] = None
) -> IntervalPolicy:
    """Turn the paper's interval notation into a policy object.

    ``"75"`` -> static 75 ms; ``"[65:85]"`` -> randomized window.
    """
    spec = str(spec).strip()
    match = _WINDOW_RE.match(spec)
    if match:
        lo, hi = int(match.group(1)), int(match.group(2))
        return RandomWindowIntervalPolicy(
            lo * MSEC, hi * MSEC, rng or random.Random(0)
        )
    if spec.isdigit():
        return StaticIntervalPolicy(int(spec) * MSEC)
    raise ValueError(f"unparseable interval spec {spec!r}")


def interval_spec_is_random(spec: str) -> bool:
    """Whether a spec denotes the randomized-window policy."""
    return _WINDOW_RE.match(str(spec).strip()) is not None


@dataclass
class ExperimentConfig:
    """One experiment run, fully described.

    :param topology: ``tree`` / ``line`` / ``star`` (Figure 6 layouts);
        ``dynamic`` -- no configured links at all: the topology self-forms
        via dynconn + RPL during the warmup (the §9 future-work mode; give
        it ``warmup_s`` >= 30 so the DODAG converges before traffic); or a
        spatial kind (``grid`` / ``rgg`` / ``building`` / ``corridor``):
        positions are generated (:mod:`repro.topo`), the medium is
        range-gated, and statconn runs over the BFS tree of the radio
        graph -- the 100/500/1000-node scale tier.
    :param geometry: range-gate a ``dynamic`` run with generated positions
        (``none`` keeps everyone in mutual range; spatial topologies imply
        their own geometry and require ``none`` here).
    :param radio_range_m / node_spacing_m: geometry overrides in meters
        (``0.0`` = the generator's default).
    :param spatial_index: ``grid`` (the uniform-grid neighbor index) or
        ``allpairs`` (the O(N)-per-transmission reference arm the
        differential suite locksteps against -- byte-identical results,
        slower delivery).
    :param max_children: dynconn adoption capacity per router (``dynamic``
        runs only).
    :param link_layer: ``ble`` or ``802154`` (§5.3 comparison).
    :param conn_interval: interval spec string (see module docstring).
    :param producer_interval_s / producer_jitter_s: traffic timing (§4.3).
    :param duration_s: measured time, excluding warmup and drain.
    :param warmup_s: link-establishment lead time before producers start.
    :param drain_s: in-flight settling time after producers stop.
    :param scheduler_policy: radio overlap arbitration (§6.1's two choices).
    :param drift_ppm_span: per-node clock error drawn from ±span ppm.
    :param sample_period_s: link statistics sampling cadence.
    """

    name: str = "experiment"
    topology: str = "tree"
    n_nodes: int = 15
    link_layer: str = "ble"
    conn_interval: str = "75"
    producer_interval_s: float = 1.0
    producer_jitter_s: float = 0.5
    payload_len: int = 39
    confirmable: bool = False
    duration_s: float = 3600.0
    warmup_s: float = 5.0
    drain_s: float = 3.0
    seed: int = 1
    scheduler_policy: str = "earliest-wins"
    drift_ppm_span: float = 3.0
    pktbuf_bytes: int = 6144
    #: Bit error rate of the medium; 2.2e-5 is ~2 % loss per 115-byte packet,
    #: calibrating the link-layer PDR to the paper's ~98 % (Fig. 13b).
    base_ber: float = 2.2e-5
    sample_period_s: float = 10.0
    subordinate_latency: int = 0
    #: Per-connection-event radio reservation cap in ms (0 = unbounded).
    #: NimBLE schedules connection events into bounded slots; 6 ms is the
    #: value that calibrates the §5.2 high-load regime (~75 % PDR at 100 ms
    #: producers) without affecting the moderate-load results.  The ablation
    #: bench `test_abl_event_cap` sweeps it.
    max_event_len_ms: float = 6.0
    #: Explicit per-node clock errors (overrides ``drift_ppm_span``); used by
    #: benches that need deterministic shading timing.
    drift_ppms: Optional[tuple] = None
    #: BT-mandated event abort on CRC error; ablation knob (see
    #: :class:`repro.ble.config.BleConfig`).
    abort_event_on_crc_error: bool = True
    #: Capture a cross-layer trace of the run (see :mod:`repro.trace`).
    #: Off by default: tracing-enabled runs pay per-record overhead and the
    #: records ride along in results, so only diagnostic runs turn it on.
    trace: bool = False
    #: Comma-separated layer filter for the trace (``"ble,ip"``); empty
    #: means all layers.  Ignored unless ``trace`` is set.
    trace_layers: str = ""
    #: Collect runtime metrics (see :mod:`repro.obs`): per-node counters,
    #: gauges, and RTT histograms, snapshotted each ``sample_period_s`` and
    #: attached to the result as a ``metrics`` payload.  Off by default for
    #: the same reason as ``trace``.
    metrics: bool = False
    #: Collect packet-journey spans (see :mod:`repro.spans`): one causal
    #: span tree per CoAP exchange -- every hop, fragment, and
    #: retransmission, with per-hop phases that exactly tile the journey's
    #: end-to-end latency.  Off by default like ``trace``/``metrics``; the
    #: span payload rides along on the result.
    spans: bool = False
    #: Spatial scale tier (see :mod:`repro.topo` / :mod:`repro.phy.spatial`).
    geometry: str = "none"
    radio_range_m: float = 0.0
    node_spacing_m: float = 0.0
    spatial_index: str = "grid"
    max_children: int = 3
    #: Scenario dynamics (see :mod:`repro.workload`): the ``churn:``,
    #: ``mobility:``, and ``mac_rotation:`` blocks, kept as plain dicts so
    #: they YAML-round-trip and canonicalize into the cache key.  Empty
    #: dict = axis disabled.  ``dynamic`` topologies only; mobility
    #: additionally requires a geometry.
    churn: dict = field(default_factory=dict)
    mobility: dict = field(default_factory=dict)
    mac_rotation: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.drift_ppms is not None:
            self.drift_ppms = tuple(self.drift_ppms)
            for ppm in self.drift_ppms:
                if isinstance(ppm, bool) or not isinstance(ppm, (int, float)):
                    raise ValueError(f"drift_ppms entry {ppm!r} is not a number")
            if len(self.drift_ppms) != self.n_nodes:
                raise ValueError("drift_ppms needs one entry per node")
        if not isinstance(self.trace_layers, str):
            raise ValueError("trace_layers must be a comma-separated string")
        unknown = [
            layer
            for layer in (s.strip() for s in self.trace_layers.split(","))
            if layer and layer not in TRACE_LAYERS
        ]
        if unknown:
            raise ValueError(
                f"unknown trace layer(s) {', '.join(unknown)}; "
                f"known: {', '.join(TRACE_LAYERS)}"
            )
        known = tuple(LAYOUTS) + ("dynamic",) + SPATIAL_TOPOLOGIES
        if self.topology not in known:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        if self.topology in LAYOUTS:
            LAYOUTS[self.topology](self.n_nodes)  # raises on a size it refuses
        if self.topology == "dynamic" and self.link_layer != "ble":
            raise ValueError("dynamic topologies require the BLE link layer")
        if self.geometry not in GEOMETRY_KINDS:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.spatial_index not in ("grid", "allpairs"):
            raise ValueError(f"unknown spatial index {self.spatial_index!r}")
        if self.topology in SPATIAL_TOPOLOGIES:
            if self.link_layer != "ble":
                raise ValueError("spatial topologies require the BLE link layer")
            if self.geometry != "none":
                raise ValueError(
                    f"topology {self.topology!r} implies its own geometry; "
                    f"leave geometry='none'"
                )
        elif self.geometry != "none" and self.topology != "dynamic":
            raise ValueError(
                "geometry only applies to 'dynamic' or spatial topologies"
            )
        if self.radio_range_m < 0 or self.node_spacing_m < 0:
            raise ValueError("radio_range_m / node_spacing_m must be >= 0")
        if self.max_children < 1:
            raise ValueError("max_children must be at least 1")
        if self.link_layer not in ("ble", "802154"):
            raise ValueError(f"unknown link layer {self.link_layer!r}")
        SchedulerPolicy(self.scheduler_policy)  # validates
        parse_interval_spec(self.conn_interval)  # validates
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        for block_name in ("churn", "mobility", "mac_rotation"):
            block = getattr(self, block_name)
            if not isinstance(block, dict):
                raise ValueError(f"{block_name} must be a mapping")
            if block and self.topology != "dynamic":
                raise ValueError(
                    f"{block_name} requires topology='dynamic' (the workload "
                    f"layer drives dynconn/RPL healing)"
                )
        if self.mobility and self.geometry == "none":
            raise ValueError("mobility requires a geometry (geometry != 'none')")
        # Eager validation of the block contents (raises on bad keys/values).
        from repro.workload.spec import (
            ChurnSpec,
            MacRotationSpec,
            MobilitySpec,
        )

        ChurnSpec.from_dict(self.churn)
        MobilitySpec.from_dict(self.mobility)
        MacRotationSpec.from_dict(self.mac_rotation)

    @property
    def total_runtime_s(self) -> float:
        """Wall of simulated time including warmup and drain."""
        return self.warmup_s + self.duration_s + self.drain_s

    @property
    def uses_random_intervals(self) -> bool:
        """Whether the §6.3 mitigation is active."""
        return interval_spec_is_random(self.conn_interval)

    # -- canonical serialization (cache keys, §A.3 reproducibility) ---------

    def canonical_dict(self) -> dict:
        """All fields in canonical form (sorted keys, hex floats)."""
        plain = asdict(self)
        return {key: canonical_value(plain[key]) for key in sorted(plain)}

    def canonical_json(self) -> str:
        """A byte-stable JSON rendering of the description.

        Two configs are equal iff their canonical JSON is identical; the
        bytes never depend on field declaration order, dict insertion
        order, or float ``repr`` — the properties a content-addressed
        result cache needs.
        """
        return json.dumps(
            self.canonical_dict(),
            sort_keys=True,
            separators=(",", ":"),
            ensure_ascii=True,
        )

    def stable_hash(self, extra: str = "") -> str:
        """SHA-256 over the canonical JSON, schema version, and ``extra``.

        This is the cache key of the run this config describes (the seed is
        a config field, so it is covered).  ``extra`` lets callers mix in
        an additional tag, e.g. the result-cache format version.
        """
        payload = f"schema={CONFIG_SCHEMA_VERSION};{extra};{self.canonical_json()}"
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    # -- YAML round trip (the paper's static description files, §A.3) -------

    def to_yaml(self) -> str:
        """Serialize the description."""
        return yaml.safe_dump({"experiment": asdict(self)}, sort_keys=False)

    @classmethod
    def from_yaml(cls, text: str) -> "ExperimentConfig":
        """Parse a description produced by :meth:`to_yaml`.

        Keys that are not config fields -- typically from a description an
        older version wrote -- raise :class:`ValueError` naming them.
        """
        data = yaml.safe_load(text)
        if not isinstance(data, dict) or "experiment" not in data:
            raise ValueError("missing top-level 'experiment' key")
        values = data["experiment"]
        if not isinstance(values, dict):
            raise ValueError("'experiment' must be a mapping of config fields")
        names = {f.name for f in fields(cls)}
        unknown = [str(key) for key in values if key not in names]
        if unknown:
            raise ValueError(f"unknown experiment key(s): {', '.join(unknown)}")
        return cls(**values)
