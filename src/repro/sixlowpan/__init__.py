"""IPv6 over BLE adaptation (RFC 7668 + RFC 6282).

IP packets traverse BLE links as 6LoWPAN-compressed datagrams inside L2CAP
SDUs.  Unlike IEEE 802.15.4-based 6LoWPAN there is **no fragmentation
header** -- L2CAP segmentation handles large datagrams (RFC 7668 §3.2) --
so the adaptation is exactly IPHC header compression on the way down and
decompression on the way up, which the IP stack does for every link
(``Ipv6Stack._route`` and ``Ipv6Stack.from_link``, DESIGN §12).

* :mod:`repro.sixlowpan.ipv6` -- addresses, IPv6/UDP headers, checksums,
* :mod:`repro.sixlowpan.iphc` -- the RFC 6282 IPHC + NHC-UDP codec,
* :mod:`repro.sixlowpan.frag` -- RFC 4944 fragmentation, for 802.15.4.
"""

from repro.sixlowpan.ipv6 import Ipv6Address, Ipv6Packet, UdpDatagram
from repro.sixlowpan.iphc import compress, decompress

__all__ = [
    "Ipv6Address",
    "Ipv6Packet",
    "UdpDatagram",
    "compress",
    "decompress",
]
