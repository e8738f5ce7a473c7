"""The reference kernel that reported times are rescaled by.

The host is shared, and its speed drifts by tens of percent over minutes
as neighbours load the cores and caches.  A simulator run slows with it,
but not by the same factor as just any code: a tight arithmetic loop or
a pointer chase through a large table tracks it worse than no rescaling
at all on some periods.  What tracks it best is work of the same kind,
so the reference is a miniature discrete-event network: a heap-ordered
event queue, 1500 slotted node objects with bound-method callbacks,
small packet objects, dict counters and bytes slicing.  Measured on a
2-core host over seven minutes of drift, 12-second medians of simulator
time divided by this kernel's time spread by 0.04-0.06 (first to third
quartile over median), against 0.12-0.15 raw.

It must never change: rescaled times are only comparable between
commits measured with the same kernel.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import Callable, List, Tuple

NODES = 1500
NEIGHBORS = 6
EVENTS = 6000


class _Packet:
    __slots__ = ("src", "seq", "payload", "hops")

    def __init__(self, src: int, seq: int, payload: bytes) -> None:
        self.src = src
        self.seq = seq
        self.payload = payload
        self.hops = 0


class _Loop:
    def __init__(self) -> None:
        self.queue: List[Tuple[int, int, Callable, tuple]] = []
        self.seq = 0

    def at(self, when: int, fn: Callable, *args) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (when, self.seq, fn, args))

    def run(self, limit: int) -> int:
        done = 0
        while self.queue and done < limit:
            when, _, fn, args = heapq.heappop(self.queue)
            fn(when, *args)
            done += 1
        return done


class _Node:
    __slots__ = ("nid", "queue", "stats", "neighbors", "loop")

    def __init__(self, nid: int, loop: _Loop) -> None:
        self.nid = nid
        self.queue: List[_Packet] = []
        self.stats = {"rx": 0, "tx": 0, "drop": 0}
        self.neighbors: List["_Node"] = []
        self.loop = loop

    def send(self, pkt: _Packet) -> None:
        if len(self.queue) > 16:
            self.stats["drop"] += 1
            return
        self.queue.append(pkt)
        self.stats["tx"] += 1

    def forward(self, now: int) -> None:
        if not self.queue:
            return
        pkt = self.queue.pop(0)
        nxt = self.neighbors[(pkt.seq + pkt.hops) % len(self.neighbors)]
        pkt.hops += 1
        if pkt.hops < 6:
            delay = 1 + (pkt.seq * 31 + self.nid) % 997
            self.loop.at(now + delay, nxt.receive, pkt)

    def receive(self, now: int, pkt: _Packet) -> None:
        self.stats["rx"] += 1
        pkt.payload = pkt.payload[:8] + bytes((pkt.hops,)) + pkt.payload[9:]
        self.send(pkt)


def reference_kernel() -> int:
    """Build the network and dispatch ``EVENTS`` events; returns the
    number dispatched."""
    rng = random.Random(4242)
    loop = _Loop()
    nodes = [_Node(i, loop) for i in range(NODES)]
    for node in nodes:
        node.neighbors = [nodes[rng.randrange(NODES)] for _ in range(NEIGHBORS)]

    def tick(now: int, node: _Node) -> None:
        node.send(_Packet(node.nid, now, bytes(rng.randrange(20, 80))))
        node.forward(now)
        loop.at(now + 100 + rng.randrange(400), tick, node)

    for node in nodes:
        loop.at(rng.randrange(1000), tick, node)
    return loop.run(EVENTS)


def reference_seconds() -> float:
    """Wall time of one reference-kernel pass, started with no garbage
    pending, so no collection of someone else's cycles is timed."""
    gc.collect()
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
