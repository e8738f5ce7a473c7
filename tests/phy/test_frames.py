"""Tests for on-air duration arithmetic."""

import pytest

from repro.phy import BlePhyMode, ble_air_time_ns, ieee802154_air_time_ns
from repro.phy.frames import (
    BLE_MAX_DATA_PAYLOAD,
    T_IFS_NS,
    ble_adv_air_time_ns,
)
from repro.sim.units import USEC


def test_ifs_is_exactly_150us():
    """§2.2: IFS is exactly 150 us for the 1 Mbps PHY mode."""
    assert T_IFS_NS == 150 * USEC


def test_empty_data_pdu_is_80us_at_1m():
    """preamble 1 + AA 4 + header 2 + CRC 3 = 10 bytes = 80 us at 1 Mbit/s."""
    assert ble_air_time_ns(0) == 80 * USEC


def test_full_dle_pdu_is_2120us_at_1m():
    assert ble_air_time_ns(BLE_MAX_DATA_PAYLOAD) == (10 + 251) * 8 * USEC


def test_2m_phy_is_faster():
    assert ble_air_time_ns(100, BlePhyMode.LE_2M) < ble_air_time_ns(100)


def test_air_time_monotone_in_length():
    times = [ble_air_time_ns(n) for n in range(0, 252, 10)]
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_adv_pdu_includes_adva():
    # empty AdvData still carries the 6-byte advertiser address
    assert ble_adv_air_time_ns(0) == (10 + 6) * 8 * USEC
    assert ble_adv_air_time_ns(31) == (10 + 6 + 31) * 8 * USEC


def test_payload_range_checks():
    with pytest.raises(ValueError):
        ble_air_time_ns(-1)
    with pytest.raises(ValueError):
        ble_air_time_ns(252)
    with pytest.raises(ValueError):
        ble_adv_air_time_ns(32)


def test_802154_air_time():
    # 127-byte max PSDU + 6 bytes SHR/PHR at 32 us/byte = 4256 us
    assert ieee802154_air_time_ns(127) == (127 + 6) * 32 * USEC
    with pytest.raises(ValueError):
        ieee802154_air_time_ns(128)


def test_ble_vs_802154_rate_ratio():
    """BLE's 1 Mbit/s is 4x faster per byte than 802.15.4's 250 kbit/s."""
    assert ieee802154_air_time_ns(100) / ble_air_time_ns(100) == pytest.approx(
        (100 + 6) * 32 / ((100 + 10) * 8)
    )
