"""Per-shard health: heartbeats, rolling windows, ejection breaker.

Every drain round the router *beats* each reachable shard and records
how its drain went -- ``(ok, latency)`` into a bounded rolling window.
From those two deterministic inputs the tracker derives the shard's
health classification:

- ``healthy``  -- recent drains succeeded at normal latency;
- ``degraded`` -- the rolling error rate or slow-round fraction
  crossed its threshold (the work-stealer avoids piling more work on
  a degraded shard, but its hash range stays put -- degradation is a
  load hint, not an ejection);
- ``ejected``  -- the shard's circuit breaker opened: consecutive
  failed rounds or missed heartbeats (a partition) exhausted the
  failure threshold.  An ejected shard loses its hash range (bounded
  remap onto the survivors) until the breaker's cooldown lets a probe
  round through and it rejoins.

The breaker is :class:`repro.engine.breaker.CircuitBreaker` reused at
cluster granularity -- deliberately time-free, advancing on drain
rounds only, so a seeded campaign ejects and rejoins the same shards
at the same rounds in every run.  Latency enters decisions only
through the injectable clock, which chaos campaigns replace with a
:class:`~repro.cluster.clock.SimClock`; wall-clock jitter therefore
never reaches a routing decision in simulation mode.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from repro.engine.breaker import (
    BREAKER_CODES,
    STATE_HALF_OPEN,
    STATE_OPEN,
    CircuitBreaker,
)

#: Health classifications, mapped to gauge codes for the exporters.
HEALTH_STATES = ("healthy", "degraded", "ejected")
HEALTH_CODES: Dict[str, int] = {
    "healthy": 0,
    "degraded": 1,
    "ejected": 2,
}

#: Drain outcomes kept in the rolling window.
HEALTH_WINDOW = 16
#: Error fraction in the window at/above which a shard is degraded.
DEGRADE_ERROR_RATE = 0.5
#: Latency (seconds) above which a drain round counts as slow.
SLOW_ROUND_S = 1.0
#: Slow fraction in the window at/above which a shard is degraded.
DEGRADE_SLOW_RATE = 0.5
#: Consecutive failed/missed rounds before the breaker ejects.
EJECT_THRESHOLD = 2
#: Rounds an ejected shard sits out before a rejoin probe.
REJOIN_COOLDOWN = 2


class ShardHealth:
    """Rolling health state of one shard."""

    def __init__(self) -> None:
        self._outcomes: Deque[Tuple[bool, float]] = deque(
            maxlen=HEALTH_WINDOW
        )
        self._breaker = CircuitBreaker(
            failure_threshold=EJECT_THRESHOLD,
            cooldown_batches=REJOIN_COOLDOWN,
        )
        self._missed_beats = 0

    # ------------------------------------------------------------------
    # inputs (one call set per drain round)

    def beat(self) -> None:
        """The shard answered this round's heartbeat."""
        self._missed_beats = 0

    def miss(self, round_number: int) -> bool:
        """The shard missed this round's heartbeat (partition/hang).

        Counts as a breaker failure; returns True when this miss
        opened the breaker (the shard should be ejected).
        """
        self._missed_beats += 1
        self._outcomes.append((False, 0.0))
        return self._breaker.record_failure()

    def record_drain(self, ok: bool, latency_s: float) -> bool:
        """Record one drain round; True when it opened the breaker."""
        self._outcomes.append((ok, latency_s))
        if ok:
            self._breaker.record_success()
            return False
        return self._breaker.record_failure()

    def allow(self) -> bool:
        """May the shard take traffic this round?  While ejected this
        counts down the rejoin cooldown; the exhausting call is the
        half-open rejoin probe."""
        return self._breaker.allow()

    # ------------------------------------------------------------------
    # derived state

    @property
    def breaker_state(self) -> str:
        return self._breaker.state

    @property
    def ejected(self) -> bool:
        return self._breaker.state == STATE_OPEN

    @property
    def probing(self) -> bool:
        return self._breaker.state == STATE_HALF_OPEN

    @property
    def missed_beats(self) -> int:
        return self._missed_beats

    @property
    def error_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        failed = sum(1 for ok, _ in self._outcomes if not ok)
        return failed / len(self._outcomes)

    @property
    def slow_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        slow = sum(
            1 for _, latency in self._outcomes if latency > SLOW_ROUND_S
        )
        return slow / len(self._outcomes)

    @property
    def mean_latency_s(self) -> float:
        if not self._outcomes:
            return 0.0
        return sum(latency for _, latency in self._outcomes) / len(
            self._outcomes
        )

    @property
    def classification(self) -> str:
        if self.ejected:
            return "ejected"
        if (
            self.error_rate >= DEGRADE_ERROR_RATE
            or self.slow_rate >= DEGRADE_SLOW_RATE
        ):
            return "degraded"
        return "healthy"

    def snapshot(self) -> Dict[str, float]:
        """Numeric gauges for the exporters (fixed schema)."""
        return {
            "health": float(HEALTH_CODES[self.classification]),
            "breaker_state": float(BREAKER_CODES[self.breaker_state]),
            "error_rate": round(self.error_rate, 6),
            "slow_rate": round(self.slow_rate, 6),
            "mean_latency_s": round(self.mean_latency_s, 6),
            "missed_beats": float(self._missed_beats),
        }
