"""Shared test scaffolding (not a test package; no test_* modules here)."""

from pathlib import Path

from repro.sixlowpan.iphc import compress
from repro.sixlowpan.ipv6 import Ipv6Address

#: The committed 4-node line description (CI's observed-run scenario).
LINE4 = str(Path(__file__).resolve().parents[2] / "examples" / "line4.yml")


def send_packet(netif, packet, next_hop_ll):
    """Queue ``packet`` on ``netif`` towards ``next_hop_ll``, compressed for
    that link as ``Ipv6Stack._route`` compresses it."""
    wire = compress(packet, netif.iid, Ipv6Address.iid_from_node_id(next_hop_ll))
    return netif.send(wire, packet.total_len, next_hop_ll)
