"""Per-layer wall-clock split by statistical sampling.

A real-time interval timer interrupts the process every ``interval_s``
of wall-clock.  The handler walks the interrupted Python stack from the
innermost frame outwards and charges the sample to the first frame whose
code lives in the simulator package: the layer is the ``repro.<pkg>`` the
code belongs to.  Standard-library and builtin work (``heapq``,
``random``, ``bytes``...) is therefore charged to the layer that called
it, and a layer's figure is its *self* time -- the code that ran, not the
timer that fired.  Samples times the interval, summed over the named
layers and divided by the measured wall time, is the coverage: how much
of the wall-clock the layer table explains.  Samples the kernel merged
while the process waited for a CPU are missing from it.

Sampling instead of ``cProfile`` keeps the proportions honest: a
deterministic profiler adds a fixed cost to every Python call, which
inflates call-heavy layers (the profiled run is ~3x slower), while one
sample per millisecond costs well under 1 %.
"""

from __future__ import annotations

import os
import signal
from collections import Counter
from typing import Dict, Optional

#: Layers the table reports, keyed by ``repro.<pkg>``.  Packages not
#: listed here (instrumentation hubs, GATT, workload...) count as
#: unattributed, so the coverage figure says how much of the run the
#: named layers explain.
PACKAGE_LAYERS: Dict[str, str] = {
    "sim": "kernel",
    "phy": "medium",
    # the link layer and the connection managers (statconn/dynconn) that
    # open its connections
    "ble": "ble",
    "core": "ble",
    "l2cap": "l2cap",
    "sixlowpan": "sixlowpan",
    # IPv6 forwarding, ICMPv6 and RPL routing
    "net": "ip",
    "rpl": "ip",
    "coap": "coap",
    # the experiment runner and the producer/consumer traffic
    "exp": "harness",
    "testbed": "harness",
}

#: Report order of the layers.
LAYERS = (
    "kernel", "medium", "ble", "l2cap", "sixlowpan", "ip", "coap", "harness",
)

UNATTRIBUTED = "unattributed"


class LayerSampler:
    """Counts ``SIGALRM`` samples per layer while started.

    :param package_dir: directory of the ``repro`` package; frames whose
        code file lies below it are simulator frames.
    :param interval_s: wall-clock time between samples.
    """

    def __init__(self, package_dir: str, interval_s: float = 0.001) -> None:
        self.prefix = os.path.join(os.path.realpath(package_dir), "")
        self.interval_s = interval_s
        self.counts: Counter = Counter()
        self._layer_of_file: Dict[str, Optional[str]] = {}
        self._previous = None

    def _layer(self, filename: str) -> Optional[str]:
        """Layer of a code file, or ``None`` outside the simulator."""
        try:
            return self._layer_of_file[filename]
        except KeyError:
            pass
        layer = None
        path = os.path.realpath(filename)
        if path.startswith(self.prefix):
            package = path[len(self.prefix):].split(os.sep, 1)[0]
            package = package[:-3] if package.endswith(".py") else package
            layer = PACKAGE_LAYERS.get(package, UNATTRIBUTED)
        self._layer_of_file[filename] = layer
        return layer

    def _on_sample(self, signum, frame) -> None:
        while frame is not None:
            layer = self._layer(frame.f_code.co_filename)
            if layer is not None:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts[UNATTRIBUTED] += 1

    def start(self) -> None:
        """Arm the timer (the handler runs on the main thread)."""
        self._previous = signal.signal(signal.SIGALRM, self._on_sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        """Disarm the timer and restore the previous handler."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def seconds(self) -> Dict[str, float]:
        """Sampled wall time per layer (plus ``unattributed``)."""
        return {
            layer: self.counts[layer] * self.interval_s
            for layer in LAYERS + (UNATTRIBUTED,)
        }
