"""Unguarded instrumentation-hub touches on the hot path."""


def _hub():
    return None


TRACE = _hub()
SPANS = _hub()


def on_rx(pdu):
    TRACE.emit("rx", pdu)
    return pdu


def on_tx(pdu):
    SPANS.now_hint = 7
    return pdu


def guarded_ok(pdu):
    if TRACE.enabled:
        TRACE.emit("ok", pdu)
    return pdu
