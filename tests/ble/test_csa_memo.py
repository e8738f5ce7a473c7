"""CSA#2 block-table memoization must be invisible to callers.

The memoized ``channel_for_event`` precomputes event-counter -> channel
tables in blocks (numpy-built); these tests pin it against a direct
spec-shaped reference implementation (the scalar ``_prn_e`` path) across
channel maps, map switches, the full counter period, and a live connection
that reads its channels block by block.
"""

import random

import pytest

from repro.ble.chanmap import ChannelMap
from repro.ble.config import ConnParams
from repro.ble.csa import CSA2_BLOCK_SIZE, CSA2_NUM_BLOCKS, Csa2
from repro.sim.units import MSEC, SEC
from repro.trace.sinks import RingBufferSink
from repro.trace.tracer import TRACE

from .conftest import BlePlane


def _reference_channel(csa: Csa2, event_counter: int, chan_map: ChannelMap) -> int:
    """Direct CSA#2 computation: prn -> unmapped -> remap (no tables)."""
    prn = csa._prn_e(event_counter & 0xFFFF)
    unmapped = prn % 37
    if chan_map.is_used(unmapped):
        return unmapped
    remapping_index = (chan_map.num_used * prn) // 0x10000
    return chan_map.remap(remapping_index)


SPARSE_MAP = ChannelMap((0, 5, 9, 17, 22, 30, 36))
MID_MAP = ChannelMap(tuple(range(0, 37, 2)))
FULL_MAP = ChannelMap.all_channels()
#: The paper's testbed map: every data channel but the jammed 22 (§4.2).
PAPER_MAP = ChannelMap.excluding([22])


@pytest.mark.parametrize("access_address", [0x8E89BED6, 0x5A3C9617], ids=hex)
@pytest.mark.parametrize("chan_map", [FULL_MAP, PAPER_MAP, SPARSE_MAP],
                         ids=["full", "paper", "sparse"])
def test_every_counter_matches_the_reference(access_address, chan_map):
    """The whole 16-bit period, block by block, against the spec path."""
    csa = Csa2(access_address)
    blocks = [csa.block(b * CSA2_BLOCK_SIZE, chan_map) for b in range(CSA2_NUM_BLOCKS)]
    assert all(len(block) == CSA2_BLOCK_SIZE for block in blocks)
    got = [channel for block in blocks for channel in block]
    assert got == [_reference_channel(csa, c, chan_map) for c in range(0x10000)]
    assert all(type(channel) is int for channel in blocks[0])


def test_table_matches_reference_across_blocks():
    csa = Csa2(0x8E89BED6)
    for counter in list(range(0, 3 * CSA2_BLOCK_SIZE)) + [0xFFFE, 0xFFFF]:
        assert csa.channel_for_event(counter, FULL_MAP) == _reference_channel(
            csa, counter, FULL_MAP
        )


def test_table_matches_reference_on_sparse_maps():
    csa = Csa2(0xA0B1C2D3)
    rng = random.Random(42)
    for chan_map in (SPARSE_MAP, MID_MAP):
        for _ in range(500):
            counter = rng.randrange(0x10000)
            assert csa.channel_for_event(counter, chan_map) == \
                _reference_channel(csa, counter, chan_map)


def test_map_switches_use_per_map_tables():
    """Alternating maps (channel-map update procedures) never cross-pollute."""
    csa = Csa2(0x12345678)
    rng = random.Random(7)
    maps = [FULL_MAP, SPARSE_MAP, MID_MAP]
    for _ in range(300):
        chan_map = rng.choice(maps)
        counter = rng.randrange(0x10000)
        assert csa.channel_for_event(counter, chan_map) == _reference_channel(
            csa, counter, chan_map
        )


def test_equal_but_distinct_map_objects_share_semantics():
    """A rebuilt (equal) ChannelMap must select identical channels."""
    csa = Csa2(0xDEADBEEF)
    map_a = ChannelMap((1, 2, 3, 10, 20, 30))
    map_b = ChannelMap((1, 2, 3, 10, 20, 30))
    for counter in range(200):
        assert csa.channel_for_event(counter, map_a) == csa.channel_for_event(
            counter, map_b
        )


def test_connection_reads_channels_under_the_map_in_force():
    """A traced link whose map changes mid-block, then crosses a block
    boundary: every event's channel is the reference one for its counter
    under the map in force at that event."""
    plane = BlePlane(seed=3)
    conn = plane.connect(0, 1, params=ConnParams(interval_ns=10 * MSEC),
                         anchor0=MSEC, aa=0x5A3C9617)
    ring = RingBufferSink()
    TRACE.configure(sinks=[ring])
    try:
        plane.sim.run(until=3 * SEC)
        conn.request_chan_map_update(SPARSE_MAP)
        plane.sim.run(until=12 * SEC)
    finally:
        TRACE.reset()
    # The subordinate takes CHANNEL_MAP_IND (8 bytes) in some event k; the
    # new map applies from event k + 1 on.
    event = switch = None
    channels = {}
    for record in ring.records():
        fields = dict(record.fields)
        if record.key == "ble.conn_event":
            event = fields["event"]
            channels[event] = fields["channel"]
        elif (record.key == "ble.ll_rx" and fields["role"] == "subordinate"
              and fields["len"] == 8 and switch is None):
            switch = event + 1
    assert conn.chan_map is SPARSE_MAP
    assert switch is not None and 1 < switch < CSA2_BLOCK_SIZE
    assert max(channels) > CSA2_BLOCK_SIZE
    csa = Csa2(0x5A3C9617)
    for event, channel in channels.items():
        chan_map = FULL_MAP if event < switch else SPARSE_MAP
        assert channel == _reference_channel(csa, event, chan_map), event
