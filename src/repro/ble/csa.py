"""BLE channel selection algorithms (BT 5.2 Vol 6 Part B §4.5.8).

Connections hop to a new data channel for every connection event (§2.2 of
the paper).  Two algorithms exist:

* **CSA#1** -- a simple modular hop: the unmapped channel advances by a
  per-connection *hop increment* (5..16) modulo 37 each event; unused
  channels are remapped onto the used-channel table.
* **CSA#2** -- a 16-bit permutation/multiply-add PRNG seeded by the access
  address, giving a pseudo-random sequence that decorrelates neighbouring
  events.

Both remap channels excluded by the channel map, which is how the paper's
nodes avoid the permanently jammed channel 22 (§4.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.ble.chanmap import ChannelMap

#: log2 of the memoized CSA#2 table block: channels are precomputed in
#: blocks of 1,024 consecutive event counters, built lazily on first
#: access, so a short run never pays for the full 65536-counter period.
CSA2_BLOCK_SHIFT = 10
CSA2_BLOCK_SIZE = 1 << CSA2_BLOCK_SHIFT
CSA2_BLOCK_MASK = CSA2_BLOCK_SIZE - 1
#: Number of blocks covering the 16-bit event-counter period.
CSA2_NUM_BLOCKS = 0x10000 >> CSA2_BLOCK_SHIFT


class ChannelSelection(Protocol):
    """Common interface of the two channel selection algorithms."""

    def channel_for_event(self, event_counter: int, chan_map: ChannelMap) -> int:
        """Data channel index for connection event ``event_counter``.

        CSA#1 is stateful: callers must ask for consecutive event counters.
        CSA#2 is a pure function of the counter.
        """
        ...


class Csa1:
    """Channel Selection Algorithm #1.

    :param hop_increment: per-connection hop (5..16), set in CONNECT_IND.
    """

    def __init__(self, hop_increment: int) -> None:
        if not 5 <= hop_increment <= 16:
            raise ValueError(f"hop increment must be in 5..16, got {hop_increment}")
        self.hop_increment = hop_increment
        self._last_unmapped = 0
        self._last_counter: int | None = None

    def channel_for_event(self, event_counter: int, chan_map: ChannelMap) -> int:
        """Advance the hops by the counter's advance since the last event
        (mod 0x10000: the 16-bit counter wraps); return the data channel."""
        steps = 1
        if self._last_counter is not None:
            steps = (event_counter - self._last_counter) & 0xFFFF
            if steps == 0:
                raise ValueError("CSA#1 event counter repeated")
        # Closed form of `steps` modular hops -- O(1) after long gaps.
        unmapped = (self._last_unmapped + self.hop_increment * steps) % 37
        self._last_unmapped = unmapped
        self._last_counter = event_counter
        if chan_map.is_used(unmapped):
            return unmapped
        return chan_map.remap(unmapped % chan_map.num_used)


# Table-driven byte reversal for PERM: a tuple for the scalar reference
# path, an array for the vectorized block builder.
_REVERSED_BYTE = tuple(int(f"{b:08b}"[::-1], 2) for b in range(256))
_REVERSED_BYTE_ARRAY = np.array(_REVERSED_BYTE, dtype=np.int64)


def _perm(value: int) -> int:
    """CSA#2 PERM operation: reverse the bit order within each byte."""
    return _REVERSED_BYTE[value & 0xFF] | (_REVERSED_BYTE[(value >> 8) & 0xFF] << 8)


def _mam(a: int, b: int) -> int:
    """CSA#2 MAM operation: multiply (by 17), add, mod 2^16."""
    return (a * 17 + b) & 0xFFFF


class Csa2:
    """Channel Selection Algorithm #2.

    :param access_address: the 32-bit connection access address; the channel
        identifier is ``(AA >> 16) XOR (AA & 0xFFFF)``.
    """

    def __init__(self, access_address: int) -> None:
        if not 0 <= access_address <= 0xFFFFFFFF:
            raise ValueError("access address must be a 32-bit value")
        self.access_address = access_address
        self.channel_identifier = ((access_address >> 16) ^ access_address) & 0xFFFF
        # chan_map -> CSA2_NUM_BLOCKS lazily-built blocks of precomputed
        # channels.  The sequence is a pure function of (channel identifier,
        # chan_map, counter), so the table is exact memoization, not an
        # approximation; a chan_map update simply starts a new table.
        self._tables: Dict[ChannelMap, List[Optional[Tuple[int, ...]]]] = {}

    def _prn_e(self, event_counter: int) -> int:
        """Pseudo-random number for one event (spec Figure 4.44)."""
        cid = self.channel_identifier
        u = (event_counter ^ cid) & 0xFFFF
        for _ in range(3):
            u = _mam(_perm(u), cid)
        return (u ^ cid) & 0xFFFF

    def _build_block(self, block: int, chan_map: ChannelMap) -> Tuple[int, ...]:
        """Compute the channels of one block of consecutive event counters.

        The PRN pipeline (``_prn_e`` = 3x PERM+MAM), the unmapped channel
        and the remapping run as numpy array operations over the whole
        block: blocks are rebuilt on every reconnect (fresh access
        address), so the build itself sits on the hot path of churny
        scenarios.  Every intermediate stays below 2^21, so int64 is exact.
        """
        cid = self.channel_identifier
        rev = _REVERSED_BYTE_ARRAY
        base = block << CSA2_BLOCK_SHIFT
        u = np.arange(base, base + CSA2_BLOCK_SIZE, dtype=np.int64) ^ cid
        for _ in range(3):
            u = ((rev[u & 0xFF] | (rev[u >> 8] << 8)) * 17 + cid) & 0xFFFF
        prn = u ^ cid
        unmapped = prn % 37
        used = np.zeros(37, dtype=bool)
        table = np.array(chan_map.used, dtype=np.int64)
        used[table] = True
        # (num_used * prn) >> 16 < num_used, so ChannelMap.remap's
        # defensive modulo is a no-op here.
        remapped = table[(chan_map.num_used * prn) >> 16]
        return tuple(np.where(used[unmapped], unmapped, remapped).tolist())

    def block(self, event_counter: int, chan_map: ChannelMap) -> Tuple[int, ...]:
        """The memoized block of channels holding ``event_counter``.

        Entry ``event_counter & CSA2_BLOCK_MASK`` of the result is that
        event's channel.  A connection keeps the block and reads the
        following events from it, so this runs once per block or channel
        map change, not per event.
        """
        blocks = self._tables.get(chan_map)
        if blocks is None:
            blocks = self._tables[chan_map] = [None] * CSA2_NUM_BLOCKS
        block_idx = (event_counter & 0xFFFF) >> CSA2_BLOCK_SHIFT
        channels = blocks[block_idx]
        if channels is None:
            channels = blocks[block_idx] = self._build_block(block_idx, chan_map)
        return channels

    def channel_for_event(self, event_counter: int, chan_map: ChannelMap) -> int:
        """Data channel index for ``event_counter`` (pure function)."""
        return self.block(event_counter, chan_map)[event_counter & CSA2_BLOCK_MASK]
