"""Neighbor information base.

Maps on-link IPv6 addresses to (link-layer address, interface).  The paper
raises GNRC's default entry limit to 32 so every node can reach all peers
(§4.2); we enforce the same limit.  Entries are installed when BLE
connections open (RFC 7668 derives the neighbour's IID from its device
address, so no neighbour solicitation is needed) and removed when they
close.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.sixlowpan.ipv6 import Ipv6Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.ip import Netif


class NeighborCache:
    """Address-to-link-layer resolution table, keyed on the 16 packed
    address bytes.

    :param max_entries: table capacity (paper configuration: 32).
    """

    def __init__(self, max_entries: int = 32) -> None:
        self.max_entries = max_entries
        self._entries: Dict[bytes, Tuple[int, "Netif"]] = {}
        #: Insertions rejected because the table was full.
        self.full_rejections = 0

    def add(self, addr: Ipv6Address, ll_addr: int, netif: "Netif") -> bool:
        """Install or refresh a neighbour entry.

        :returns: False when the table is full and ``addr`` is new.
        """
        key = addr.packed
        if key not in self._entries and len(self._entries) >= self.max_entries:
            self.full_rejections += 1
            return False
        self._entries[key] = (ll_addr, netif)
        return True

    def remove(self, addr: Ipv6Address) -> None:
        """Drop a neighbour entry (idempotent)."""
        self._entries.pop(addr.packed, None)

    def remove_ll(self, ll_addr: int) -> None:
        """Drop every entry resolving to ``ll_addr`` (link went down)."""
        stale = [a for a, (ll, _) in self._entries.items() if ll == ll_addr]
        for addr in stale:
            del self._entries[addr]

    def resolve(self, addr: Ipv6Address) -> Optional[Tuple[int, "Netif"]]:
        """(link-layer address, interface) for ``addr``, or ``None``."""
        return self._entries.get(addr.packed)

    def resolve_packed(self, addr: bytes) -> Optional[Tuple[int, "Netif"]]:
        """:meth:`resolve` for the address's 16 packed bytes."""
        return self._entries.get(addr)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, addr: Ipv6Address) -> bool:
        return addr.packed in self._entries
