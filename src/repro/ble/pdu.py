"""BLE PDU structures.

Only the fields that influence timing and reliability are modelled:
payload length (air time), the LLID (start / continuation of an L2CAP PDU),
the SN/NESN acknowledgement bits, and the More Data flag.  Payloads are real
``bytes`` so upper layers run genuine codecs over the link.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class Llid(enum.IntEnum):
    """LLID field of the data channel PDU header (BT 5.2 Vol 6 Part B §4.5.1)."""

    #: Continuation fragment of an L2CAP message, or an empty PDU.
    DATA_CONT = 0b01
    #: Start of an L2CAP message (or a complete one).
    DATA_START = 0b10
    #: LL control PDU (connection parameter update, channel map update, ...).
    CTRL = 0b11


#: Bound once: an enum member read off its class is slow on CPython 3.11.
_DATA_CONT = Llid.DATA_CONT


@dataclass(slots=True)
class DataPdu:
    """One data channel PDU queued for transfer on a connection.

    :param payload: LL payload bytes (0..251 with the data length extension).
    :param llid: start / continuation / control marker.
    :param sn: sequence number bit, stamped by the connection at TX time.
    :param nesn: next-expected-sequence-number bit, stamped at TX time.
    :param md: More Data flag, stamped at TX time.
    :param tag: opaque upper-layer cookie (used for delivery callbacks).
    """

    payload: bytes = b""
    llid: Llid = Llid.DATA_CONT
    sn: int = 0
    nesn: int = 0
    md: bool = False
    tag: Optional[object] = None

    @property
    def is_empty(self) -> bool:
        """True for the empty PDUs exchanged by idle connections (§2.2)."""
        return len(self.payload) == 0 and self.llid is _DATA_CONT

    def __len__(self) -> int:
        return len(self.payload)


class AdvPduType(enum.IntEnum):
    """Advertising channel PDU types used by connection establishment."""

    ADV_IND = 0x0
    SCAN_REQ = 0x3
    SCAN_RSP = 0x4
    CONNECT_IND = 0x5


@dataclass
class AdvPdu:
    """An advertising channel PDU.

    :param pdu_type: one of :class:`AdvPduType`.
    :param advertiser_addr: link-layer address of the advertising node.
    :param initiator_addr: set on CONNECT_IND, else ``None``.
    :param payload: AdvData bytes (0..31 for legacy advertising).
    """

    pdu_type: AdvPduType
    advertiser_addr: int
    initiator_addr: Optional[int] = None
    payload: bytes = field(default=b"", repr=False)
