"""Static forwarding information base.

The paper configures IP routes manually so all traffic funnels towards the
tree root or the line end (§4.3); dynamic routing (RPL) is explicitly out of
scope there and here.  The table supports host routes, one default route,
and 64-bit-prefix routes, resolved in that order.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.sixlowpan.ipv6 import Ipv6Address


class ForwardingTable:
    """Destination -> next-hop lookup with host / prefix / default routes.

    Host routes are keyed on the destination's 16 packed bytes, so the
    forwarding path looks them up without building an address object.
    """

    def __init__(self) -> None:
        self._host_routes: Dict[bytes, Ipv6Address] = {}
        self._prefix_routes: Dict[bytes, Ipv6Address] = {}
        self._default: Optional[Ipv6Address] = None

    def add_host_route(self, dst: Ipv6Address, next_hop: Ipv6Address) -> None:
        """Route a single destination address via ``next_hop``."""
        self._host_routes[dst.packed] = next_hop

    def add_prefix_route(self, prefix: bytes, next_hop: Ipv6Address) -> None:
        """Route a /64 prefix (8 bytes) via ``next_hop``."""
        if len(prefix) != 8:
            raise ValueError("prefix routes are /64: pass 8 bytes")
        self._prefix_routes[bytes(prefix)] = next_hop

    def set_default_route(self, next_hop: Ipv6Address) -> None:
        """Install the default route (used when nothing else matches)."""
        self._default = next_hop

    def clear_default_route(self) -> None:
        """Withdraw the default route (e.g. the RPL parent was lost)."""
        self._default = None

    def remove_host_route(self, dst: Ipv6Address) -> None:
        """Remove a host route (idempotent)."""
        self._host_routes.pop(dst.packed, None)

    def lookup(self, dst: Ipv6Address) -> Optional[Ipv6Address]:
        """Next hop for ``dst``: host route, then /64, then default."""
        return self.lookup_packed(dst.packed)

    def lookup_packed(self, dst: bytes) -> Optional[Ipv6Address]:
        """:meth:`lookup` for the destination's 16 packed bytes."""
        hop = self._host_routes.get(dst)
        if hop is not None:
            return hop
        hop = self._prefix_routes.get(dst[:8])
        if hop is not None:
            return hop
        return self._default

    def __len__(self) -> int:
        return len(self._host_routes) + len(self._prefix_routes) + (
            1 if self._default else 0
        )


def install_tree_routes(
    fibs: Sequence[ForwardingTable],
    parent_of: Mapping[int, int],
    edges: Sequence[Tuple[int, int]],
) -> None:
    """Static routes for a tree (§4.3), ``fibs`` indexed by node id.

    Every node with a parent in ``parent_of`` routes by default to it, and
    every parent of ``edges`` holds a host route to each descendant via
    the child heading its branch, so responses travel back down.
    """
    children: Dict[int, List[int]] = {}
    for parent, child in edges:
        children.setdefault(parent, []).append(child)

    def subtree(node_id: int) -> List[int]:
        collected: List[int] = []
        stack = list(children.get(node_id, []))
        while stack:
            n = stack.pop()
            collected.append(n)
            stack.extend(children.get(n, []))
        return collected

    for node_id, fib in enumerate(fibs):
        parent = parent_of.get(node_id)
        if parent is not None:
            fib.set_default_route(Ipv6Address.mesh_local(parent))
        for child in children.get(node_id, []):
            child_addr = Ipv6Address.mesh_local(child)
            for descendant in subtree(child):
                fib.add_host_route(Ipv6Address.mesh_local(descendant), child_addr)
