"""Resolvable-private-address rotation: identities vs. on-air addresses.

Real BLE privacy (BT 5.2 Vol 3 Part C §10.7) rotates the advertised MAC
every few minutes; bonded peers resolve the new resolvable private address
(RPA) back to the peer's *identity address* with the stored IRK and carry
on as if nothing happened.  The simulation models the observable split
without the crypto:

* :attr:`~repro.ble.controller.BleController.identity` is the immutable
  identity address (the node id; it derives the IPv6 IID per RFC 7668 and
  keys every table above the air interface),
* :attr:`~repro.ble.controller.BleController.addr` is the *current on-air*
  address -- the only thing the medium, the geometry, and the advertising
  delivery path see,
* an :class:`IdentityResolver` per controller plays the role of the
  resolving list: it remembers the last on-air address observed per peer
  identity and emits one ``ble.rpa_resolve`` trace record whenever a peer
  shows up under a fresh address (exactly once per rotation per observer).

Upper layers (netif, statconn, dynconn, RPL, the experiment sampler) key
peers by identity exclusively, so peering, routing state, and link series
survive a MAC change -- the reconnection edge case this module exists to
exercise.  Before the first rotation ``identity == addr``, which keeps
every pre-rotation trace byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.trace.tracer import TRACE

if TYPE_CHECKING:  # pragma: no cover
    from repro.ble.controller import BleController


class IdentityResolver:
    """One node's resolving list: peer identity -> last seen on-air address."""

    def __init__(self, owner: "BleController") -> None:
        self.owner = owner
        self._known: Dict[int, int] = {}
        #: Successful re-resolutions (address changed for a known identity).
        self.resolutions = 0

    def observe(self, peer: "BleController") -> None:
        """Note the peer's current on-air address; trace a change.

        Called from the scan path (the only place a node *sees* another
        node's advertised address).  The first sighting just records the
        mapping; a sighting under a *different* address is a resolution
        event -- emitted exactly once per rotation per observer, which the
        ``reattach`` invariant checker counts.
        """
        ident = peer.identity
        current = peer.addr
        previous = self._known.get(ident)
        if previous == current:
            return
        self._known[ident] = current
        if previous is None:
            return
        self.resolutions += 1
        if TRACE.enabled:
            TRACE.emit(
                self.owner.sim.now, "ble", "rpa_resolve",
                node=self.owner.name, identity=ident,
                old=previous, new=current,
            )
