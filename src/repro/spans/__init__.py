"""Causally-linked packet-journey spans (see :mod:`repro.spans.hub`).

One CoAP exchange = one journey: a span tree covering every fragment,
every hop, and every retransmission, with per-hop phases that exactly
tile the end-to-end latency.  ``python -m repro run`` with ``spans`` set
runs the conformance gate and renders waterfalls; :mod:`repro.spans.chrome`
exports Perfetto-loadable flame charts.
"""

from repro.spans.check import SpanViolation, check_journey
from repro.spans.chrome import chrome_trace_document, dumps_chrome_trace
from repro.spans.hub import SPANS, SpanHub
from repro.spans.model import (
    SPANS_SCHEMA,
    Attempt,
    HopSpan,
    Journey,
    Phase,
    TxEvent,
    compute_phases,
)
