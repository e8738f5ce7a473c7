"""6LoWPAN fragmentation (RFC 4944 §5.3) for the IEEE 802.15.4 path.

The paper keeps IP packets below 128 bytes precisely so that *no*
fragmentation happens on either link layer (§4.3 footnote), because the two
technologies degrade very differently once datagrams outgrow a frame:

* over BLE, L2CAP segments SDUs into K-frames and the link layer
  retransmits each lost segment -- a lost packet costs one retransmission;
* over 802.15.4, 6LoWPAN fragments the datagram and **one lost fragment
  kills the whole datagram** (there is no per-fragment recovery).

This module implements the RFC 4944 wire format -- FRAG1
(``11000`` dispatch, 11-bit datagram size, 16-bit tag) and FRAGN (adding an
8-byte-unit offset) -- plus a reassembler with the RFC's per-(sender, tag)
buffers and a reassembly timeout.  The extension bench
``benchmarks/test_ext_fragmentation.py`` measures the divergence the paper
sidestepped.

Fragmented datagrams are carried uncompressed (the RFC 4944 uncompressed
IPv6 dispatch inside FRAG1): offsets count octets of the full IPv6 form,
which keeps the arithmetic exact without modelling RFC 6282's
compressed-first-fragment offset rules.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.sim.kernel import Simulator
from repro.sim.units import SEC
from repro.trace.tracer import TRACE


def _digest(datagram: bytes) -> str:
    """CRC32 content digest used to pair frag_tx / reassembled records."""
    return f"{zlib.crc32(datagram) & 0xFFFFFFFF:08x}"

#: Dispatch prefixes (first byte, upper bits).
FRAG1_DISPATCH = 0b11000_000
FRAGN_DISPATCH = 0b11100_000

_FRAG1 = struct.Struct(">HH")  # dispatch+size (11 bits), tag
_FRAGN = struct.Struct(">HHB")  # dispatch+size, tag, offset/8

#: Fragment offsets are expressed in 8-octet units.
OFFSET_UNIT = 8
#: RFC 4944 reassembly timeout is 60 s; constrained stacks use far less.
DEFAULT_REASSEMBLY_TIMEOUT_NS = 5 * SEC


class FragmentError(ValueError):
    """Raised on malformed fragment headers."""


def fragment(datagram: bytes, tag: int, max_fragment_payload: int) -> List[bytes]:
    """Split ``datagram`` into FRAG1/FRAGN fragments.

    :param datagram: the full (uncompressed) IPv6 datagram.
    :param tag: the 16-bit datagram tag.
    :param max_fragment_payload: link budget per fragment *including* the
        fragment header.
    :returns: the on-link fragment list (one element if it fits unfragmented
        semantics are not this function's business -- callers decide).
    """
    if len(datagram) > 0x7FF:
        raise FragmentError("datagram exceeds the 11-bit size field (2047)")
    if max_fragment_payload <= _FRAGN.size + OFFSET_UNIT:
        raise FragmentError("fragment budget too small to make progress")
    tag &= 0xFFFF
    size_field = len(datagram) & 0x7FF

    fragments: List[bytes] = []
    # FRAG1: no offset field; payload must be a multiple of 8 so FRAGN
    # offsets stay aligned
    first_budget = (max_fragment_payload - _FRAG1.size) // OFFSET_UNIT * OFFSET_UNIT
    head = datagram[:first_budget]
    fragments.append(
        _FRAG1.pack((FRAG1_DISPATCH << 8) | size_field, tag) + head
    )
    offset = len(head)
    while offset < len(datagram):
        budget = (max_fragment_payload - _FRAGN.size) // OFFSET_UNIT * OFFSET_UNIT
        chunk = datagram[offset : offset + budget]
        is_last = offset + len(chunk) >= len(datagram)
        if not is_last:
            chunk = chunk[: len(chunk) // OFFSET_UNIT * OFFSET_UNIT]
        fragments.append(
            _FRAGN.pack(
                (FRAGN_DISPATCH << 8) | size_field, tag, offset // OFFSET_UNIT
            )
            + chunk
        )
        offset += len(chunk)
    if TRACE.enabled:
        TRACE.emit(
            None, "sixlo", "frag_tx",
            tag=tag, size=len(datagram), n_frags=len(fragments),
            digest=_digest(datagram),
        )
    return fragments


def is_fragment(data: bytes) -> bool:
    """Whether ``data`` starts with a FRAG1/FRAGN dispatch."""
    return bool(data) and (data[0] & 0b11000_000) == FRAG1_DISPATCH and (
        (data[0] & 0b11111_000) in (FRAG1_DISPATCH, FRAGN_DISPATCH)
    )


def parse_fragment(data: bytes) -> Tuple[int, int, int, bytes]:
    """(datagram_size, tag, offset_bytes, payload) of one fragment."""
    if len(data) < _FRAG1.size:
        raise FragmentError("truncated fragment header")
    first, tag = _FRAG1.unpack_from(data)
    dispatch = (first >> 8) & 0b11111_000
    size = first & 0x7FF
    if dispatch == FRAG1_DISPATCH:
        return size, tag, 0, data[_FRAG1.size :]
    if dispatch == FRAGN_DISPATCH:
        if len(data) < _FRAGN.size:
            raise FragmentError("truncated FRAGN header")
        _, _, offset_units = _FRAGN.unpack_from(data)
        return size, tag, offset_units * OFFSET_UNIT, data[_FRAGN.size :]
    raise FragmentError(f"not a fragment dispatch: {data[0]:#04x}")


@dataclass
class _Buffer:
    """One in-progress reassembly."""

    size: int
    received: Dict[int, bytes] = field(default_factory=dict)
    deadline_ns: int = 0

    def complete(self) -> bool:
        total = sum(len(chunk) for chunk in self.received.values())
        return total >= self.size

    def assemble(self) -> bytes:
        out = bytearray(self.size)
        for offset, chunk in self.received.items():
            out[offset : offset + len(chunk)] = chunk
        return bytes(out)


class Reassembler:
    """Per-(sender, tag) fragment reassembly with timeout.

    :param sim: simulation kernel (drives the timeout sweep).
    :param timeout_ns: discard incomplete buffers after this long.
    :param on_datagram: ``on_datagram(datagram, sender)`` for completions.
    """

    def __init__(
        self,
        sim: Simulator,
        on_datagram: Callable[[bytes, int], None],
        timeout_ns: int = DEFAULT_REASSEMBLY_TIMEOUT_NS,
    ) -> None:
        self.sim = sim
        self.on_datagram = on_datagram
        self.timeout_ns = timeout_ns
        self._buffers: Dict[Tuple[int, int], _Buffer] = {}
        # Statistics.
        self.datagrams_reassembled = 0
        self.fragments_received = 0
        self.timeouts = 0
        self.parse_errors = 0

    def accept(self, data: bytes, sender: int) -> None:
        """Feed one received fragment from ``sender``."""
        try:
            size, tag, offset, payload = parse_fragment(data)
        except FragmentError:
            self.parse_errors += 1
            return
        self.fragments_received += 1
        if TRACE.enabled:
            TRACE.emit(
                self.sim.now, "sixlo", "frag_rx",
                sender=sender, tag=tag, offset=offset, len=len(payload),
            )
        key = (sender, tag)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size != size:
            buffer = _Buffer(size=size, deadline_ns=self.sim.now + self.timeout_ns)
            self._buffers[key] = buffer
            self.sim.after(self.timeout_ns + 1, self._sweep, key)
        buffer.received[offset] = payload
        if buffer.complete():
            del self._buffers[key]
            self.datagrams_reassembled += 1
            datagram = buffer.assemble()
            if TRACE.enabled:
                TRACE.emit(
                    self.sim.now, "sixlo", "reassembled",
                    sender=sender, tag=tag, size=len(datagram),
                    digest=_digest(datagram),
                )
            self.on_datagram(datagram, sender)

    def pending(self) -> int:
        """Number of in-progress reassemblies."""
        return len(self._buffers)

    def _sweep(self, key: Tuple[int, int]) -> None:
        buffer = self._buffers.get(key)
        if buffer is not None and self.sim.now >= buffer.deadline_ns:
            del self._buffers[key]
            self.timeouts += 1
            if TRACE.enabled:
                TRACE.emit(
                    self.sim.now, "sixlo", "reasm_timeout",
                    sender=key[0], tag=key[1],
                )
