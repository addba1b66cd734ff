"""Injectable clocks for the cluster: real time or simulated time.

The router measures every shard drain with ``clock()`` and feeds the
measured latency into that shard's rolling health window -- which
means wall-clock jitter would leak into health classifications and,
through them, into work stealing and ejection decisions.  Chaos
campaigns need those decisions byte-identical run to run, so they
swap in a :class:`SimClock`: time only advances when the router
explicitly accounts work onto it (``per-job cost x jobs drained``,
plus injected hang delays), making every latency the campaign observes
a pure function of the seed.

The same clock doubles as the cluster's **virtual-time axis**: one
drain round runs its shards one after another on the host but models
them as parallel machines, so the round's virtual elapsed time is the
*max* of the per-shard drain times, not the sum
(``ClusterReport.virtual_seconds``).  That is a placement model of
Python shards, not a measurement: wall-clock cluster throughput is
``cluster_durable`` in ``bench/``, and Table 12's replicated-array
scaling is ``benchmarks/test_table12_scalability.py``.
"""

from __future__ import annotations

import time
from typing import Callable


class SimClock:
    """A monotonically advancing simulated clock.

    ``now()`` never moves on its own; consumers call ``advance()`` to
    account simulated work.  Starting at a non-zero epoch keeps
    "never beaten" sentinels (0.0) distinguishable from real instants.
    """

    def __init__(self, start: float = 1.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("cannot advance a clock backwards")
        self._now += seconds
        return self._now

    def __call__(self) -> float:
        return self.now()


def is_simulated(clock: Callable[[], float]) -> bool:
    """True when *clock* is an advanceable simulated clock."""
    return hasattr(clock, "advance")


#: The default real clock (monotonic: drain durations must never go
#: negative across NTP steps).
real_clock: Callable[[], float] = time.monotonic
