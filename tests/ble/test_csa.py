"""Tests for the channel selection algorithms."""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.ble.chanmap import ChannelMap
from repro.ble.csa import Csa1, Csa2, _mam, _perm


FULL_MAP = ChannelMap.all_channels()


class TestCsa1:
    def test_hop_increment_range_enforced(self):
        with pytest.raises(ValueError):
            Csa1(4)
        with pytest.raises(ValueError):
            Csa1(17)

    def test_first_channel_is_hop_increment(self):
        # lastUnmapped starts at 0, so event 0 lands on the hop increment
        assert Csa1(7).channel_for_event(0, FULL_MAP) == 7

    def test_advances_by_hop_mod_37(self):
        csa = Csa1(13)
        seq = [csa.channel_for_event(i, FULL_MAP) for i in range(40)]
        for a, b in zip(seq, seq[1:]):
            assert b == (a + 13) % 37

    def test_covers_all_channels_with_coprime_hop(self):
        csa = Csa1(5)
        seq = {csa.channel_for_event(i, FULL_MAP) for i in range(37)}
        assert seq == set(range(37))

    def test_counters_must_increase(self):
        csa = Csa1(5)
        csa.channel_for_event(3, FULL_MAP)
        with pytest.raises(ValueError):
            csa.channel_for_event(3, FULL_MAP)

    def test_wrapping_counter_continues_the_hop_sequence(self):
        csa = Csa1(13)
        seq = [csa.channel_for_event(i, FULL_MAP) for i in (65534, 65535, 0, 1)]
        for a, b in zip(seq, seq[1:]):
            assert b == (a + 13) % 37

    def test_remapping_avoids_unused_channels(self):
        cmap = ChannelMap.excluding([22])
        csa = Csa1(11)
        for i in range(200):
            assert csa.channel_for_event(i, cmap) != 22

    def test_skipped_counters_advance_state(self):
        a, b = Csa1(7), Csa1(7)
        a.channel_for_event(0, FULL_MAP)
        a.channel_for_event(1, FULL_MAP)
        ch_a = a.channel_for_event(5, FULL_MAP)
        for i in range(6):
            ch_b = b.channel_for_event(i, FULL_MAP)
        assert ch_a == ch_b


class TestCsa2Primitives:
    def test_perm_reverses_bits_within_bytes(self):
        # 0b00000001 per byte reverses to 0b10000000
        assert _perm(0x0101) == 0x8080
        assert _perm(0x8080) == 0x0101
        assert _perm(0x0000) == 0x0000
        assert _perm(0xFFFF) == 0xFFFF

    def test_perm_is_involution(self):
        for v in (0x1234, 0xABCD, 0x0F0F, 0x5555):
            assert _perm(_perm(v)) == v

    def test_mam(self):
        assert _mam(0, 5) == 5
        assert _mam(1, 0) == 17
        assert _mam(0xFFFF, 0xFFFF) == (0xFFFF * 17 + 0xFFFF) & 0xFFFF


class TestCsa2:
    def test_channel_identifier(self):
        # the spec's example access address for sample data
        csa = Csa2(0x8E89BED6)
        assert csa.channel_identifier == (0x8E89 ^ 0xBED6)

    def test_deterministic(self):
        a = Csa2(0x12345678)
        b = Csa2(0x12345678)
        for i in range(100):
            assert a.channel_for_event(i, FULL_MAP) == b.channel_for_event(i, FULL_MAP)

    def test_stateless_random_access(self):
        csa = Csa2(0xDEADBEEF)
        ch50 = csa.channel_for_event(50, FULL_MAP)
        for i in range(10):
            csa.channel_for_event(i, FULL_MAP)
        assert csa.channel_for_event(50, FULL_MAP) == ch50

    def test_respects_channel_map(self):
        cmap = ChannelMap.excluding([22, 0, 1])
        csa = Csa2(0xCAFEBABE)
        for i in range(1000):
            assert cmap.is_used(csa.channel_for_event(i, cmap))

    def test_distribution_roughly_uniform(self):
        csa = Csa2(0x55AA55AA)
        counts = collections.Counter(
            csa.channel_for_event(i, FULL_MAP) for i in range(37 * 200)
        )
        assert set(counts) == set(range(37))
        for channel, n in counts.items():
            assert 100 <= n <= 320, f"channel {channel} count {n} not near 200"

    def test_different_access_addresses_decorrelate(self):
        # note: the identifier is (AA>>16) ^ (AA&0xFFFF), so the two halves
        # must differ between the addresses for the sequences to diverge
        a = Csa2(0x12345678)  # identifier 0x444C
        b = Csa2(0x12340000)  # identifier 0x1234
        assert a.channel_identifier != b.channel_identifier
        seq_a = [a.channel_for_event(i, FULL_MAP) for i in range(100)]
        seq_b = [b.channel_for_event(i, FULL_MAP) for i in range(100)]
        assert seq_a != seq_b

    @given(aa=st.integers(min_value=0, max_value=0xFFFFFFFF),
           counter=st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=200)
    def test_output_always_in_map(self, aa, counter):
        cmap = ChannelMap.excluding([3, 7, 22, 30])
        channel = Csa2(aa).channel_for_event(counter, cmap)
        assert cmap.is_used(channel)

    def test_access_address_validation(self):
        with pytest.raises(ValueError):
            Csa2(1 << 32)
