"""On-air frame duration arithmetic.

BLE 1 Mbit/s (LE 1M, the paper's PHY -- the nrf52dk does not support 2M,
§4.2): every byte takes 8 us.  An LE 1M packet is::

    preamble (1) | access address (4) | PDU header (2) | payload (0..251) | CRC (3)

so an empty data PDU lasts 80 us and a full 251-byte PDU lasts 2120 us.
LE 2M halves these numbers and uses a 2-byte preamble; LE Coded is not
modelled (not used in the paper).

IEEE 802.15.4 O-QPSK 2.4 GHz: 250 kbit/s, 32 us per byte, with a 6-byte
synchronisation header (4 preamble + 1 SFD + 1 PHR length byte).
"""

from __future__ import annotations

import enum

from repro.sim.units import USEC


class BlePhyMode(enum.Enum):
    """BLE PHY modes relevant to connection timing."""

    LE_1M = "1M"
    LE_2M = "2M"


#: Bound once: an enum member read off its class is slow on CPython 3.11.
_LE_1M = BlePhyMode.LE_1M

#: Fixed inter frame spacing between packets of a connection event (BT 5.2
#: Vol 6 Part B §4.1.1): exactly 150 us regardless of PHY.
T_IFS_NS: int = 150 * USEC

#: LE 1M per-byte air time.
_BYTE_NS_1M: int = 8 * USEC
#: LE 2M per-byte air time.
_BYTE_NS_2M: int = 4 * USEC

#: Non-payload bytes of an LE 1M data packet: preamble 1 + AA 4 + header 2 + CRC 3.
BLE_1M_OVERHEAD_BYTES: int = 10
#: LE 2M uses a 2-byte preamble.
BLE_2M_OVERHEAD_BYTES: int = 11

#: Maximum LL data payload with the data length extension (BT 4.2+).
BLE_MAX_DATA_PAYLOAD: int = 251
#: Maximum LL data payload without the data length extension.
BLE_LEGACY_DATA_PAYLOAD: int = 27
#: Maximum legacy advertising payload (AdvData; the paper's beacons use 31).
BLE_MAX_ADV_PAYLOAD: int = 31


# Air time is asked for on every TX of the connection event loop; the full
# 0..251 domain is tiny, so both PHYs get a precomputed lookup tuple.
_AIR_TIME_1M: tuple = tuple(
    (BLE_1M_OVERHEAD_BYTES + n) * _BYTE_NS_1M for n in range(BLE_MAX_DATA_PAYLOAD + 1)
)
_AIR_TIME_2M: tuple = tuple(
    (BLE_2M_OVERHEAD_BYTES + n) * _BYTE_NS_2M for n in range(BLE_MAX_DATA_PAYLOAD + 1)
)


def ble_air_time_ns(payload_len: int, phy: BlePhyMode = BlePhyMode.LE_1M) -> int:
    """On-air duration of one BLE data packet with ``payload_len`` LL payload bytes."""
    if payload_len < 0:
        raise ValueError(f"BLE LL payload out of range: {payload_len}")
    try:
        if phy is _LE_1M:
            return _AIR_TIME_1M[payload_len]
        return _AIR_TIME_2M[payload_len]
    except IndexError:
        raise ValueError(f"BLE LL payload out of range: {payload_len}") from None


def ble_air_time_table(phy: BlePhyMode = BlePhyMode.LE_1M) -> tuple:
    """The payload-length -> air-time lookup tuple for ``phy``.

    The connection event loop hoists this table once per event and indexes
    it per packet, skipping a function call on the simulator's hottest path.
    Indexing past 251 raises IndexError, same domain as
    :func:`ble_air_time_ns`.
    """
    return _AIR_TIME_1M if phy is _LE_1M else _AIR_TIME_2M


def ble_adv_air_time_ns(payload_len: int) -> int:
    """On-air duration of a legacy advertising PDU (always LE 1M).

    ADV PDUs carry a 6-byte AdvA address plus up to 31 bytes of AdvData.
    """
    if not 0 <= payload_len <= BLE_MAX_ADV_PAYLOAD:
        raise ValueError(f"adv payload out of range: {payload_len}")
    return (BLE_1M_OVERHEAD_BYTES + 6 + payload_len) * _BYTE_NS_1M


#: 802.15.4 per-byte air time at 250 kbit/s.
_BYTE_NS_154: int = 32 * USEC
#: 802.15.4 synchronisation header + PHR length in bytes.
IEEE802154_SHR_PHR_BYTES: int = 6
#: Maximum 802.15.4 PSDU (MAC frame incl. 2-byte FCS).
IEEE802154_MAX_PSDU: int = 127


def ieee802154_air_time_ns(psdu_len: int) -> int:
    """On-air duration of one 802.15.4 frame with ``psdu_len`` MAC bytes."""
    if not 0 <= psdu_len <= IEEE802154_MAX_PSDU:
        raise ValueError(f"802.15.4 PSDU out of range: {psdu_len}")
    return (IEEE802154_SHR_PHR_BYTES + psdu_len) * _BYTE_NS_154
