"""No enum member is read off its class on the per-event path.

On CPython 3.11 ``enum.EnumType`` defines ``__getattr__``, so an enum
class's attribute reads go through the metaclass's attribute hook and are
never specialized: one ``Llid.DATA_CONT`` costs about ten module-global
reads.  The functions below run once per connection event, per packet or
per CoAP message, so they compare against members bound once as module
constants.  This test installs a counting ``EnumType.__getattribute__`` for
one short dark ``line`` run and requires that none of them reads a member
off its class.
"""

import collections
import enum
import sys
from types import CodeType

from repro.ble.conn import Connection, Endpoint
from repro.coap.endpoint import CoapEndpoint
from repro.coap.message import CoapMessage
from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_experiment
from repro.l2cap.coc import _CocEnd

PER_EVENT = (
    Connection._run_event,
    Connection._exchange_loop,
    Connection._next_radio_time,
    Endpoint.process_rx,
    _CocEnd.pump,
    _CocEnd._flush_credit_grant,
    CoapEndpoint._on_datagram,
    CoapEndpoint._complete,
    CoapMessage.uri_path,
)


def code_objects(func):
    """``func``'s code and every code nested in it (generator expressions)."""
    found, stack = [], [func.__code__]
    while stack:
        code = stack.pop()
        found.append(code)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return found


def test_no_enum_member_is_read_off_its_class_per_event():
    names = {
        code: func.__qualname__ for func in PER_EVENT for code in code_objects(func)
    }
    reads = collections.Counter()
    ran = set()
    getattribute = type.__getattribute__

    def counting(cls, name):
        value = getattribute(cls, name)
        if type(value) is cls:  # a member, read off its class
            code = sys._getframe(1).f_code
            if code in names:
                reads[names[code]] += 1
        return value

    def note_call(frame, event, arg):
        if event == "call" and frame.f_code in names:
            ran.add(names[frame.f_code])

    config = ExperimentConfig(
        name="line", seed=1, topology="line", n_nodes=4, duration_s=10.0,
        warmup_s=3.0, drain_s=2.0,
    )
    profile = sys.getprofile()
    enum.EnumType.__getattribute__ = counting
    sys.setprofile(note_call)
    try:
        result = run_experiment(config)
    finally:
        sys.setprofile(profile)
        del enum.EnumType.__getattribute__
    assert result.coap_acked() > 0
    assert ran == {func.__qualname__ for func in PER_EVENT}
    assert reads == {}
