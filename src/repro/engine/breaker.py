"""Per-kernel circuit breaker for the worker execution path.

A kernel whose batches keep killing workers (crashes, hangs past
timeout) makes every drain pay the full retry-and-respawn cost
before landing on the inline floor anyway.  The breaker shortcuts
that: after ``failure_threshold`` consecutive worker failures it *opens*
and the engine routes that kernel's batches straight to inline
execution for ``cooldown_batches`` batches, then lets one probe batch
through (*half-open*); a probe success closes the breaker, a probe
failure re-opens it for a full cooldown.

The breaker is deliberately time-free -- state advances on batch
events only -- so chaos campaigns with a fixed seed see identical
breaker behavior run to run.
"""

from __future__ import annotations

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

#: Breaker state -> numeric gauge code (Prometheus can only scrape
#: numbers; exporters render these with the state name as a label).
BREAKER_CODES = {
    STATE_CLOSED: 0,
    STATE_HALF_OPEN: 1,
    STATE_OPEN: 2,
}


class CircuitBreaker:
    """Consecutive-failure breaker with a batch-counted cooldown.

    The defaults (3 failures, 8 batches) are the engine's per-kernel
    breaker; cluster shards pass their own ejection thresholds.
    """

    def __init__(self, failure_threshold: int = 3, cooldown_batches: int = 8):
        if failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if cooldown_batches <= 0:
            raise ValueError("cooldown_batches must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown_batches = cooldown_batches
        self.state = STATE_CLOSED
        self._consecutive_failures = 0
        self._cooldown_remaining = 0

    def allow(self) -> bool:
        """May the next batch use the workers?  Open-state calls count
        down the cooldown; the call that exhausts it becomes the
        half-open probe and is allowed through."""
        if self.state == STATE_OPEN:
            self._cooldown_remaining -= 1
            if self._cooldown_remaining > 0:
                return False
            self.state = STATE_HALF_OPEN
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        self.state = STATE_CLOSED

    def record_failure(self) -> bool:
        """Note a worker failure; True when this call opened the breaker."""
        self._consecutive_failures += 1
        if (
            self.state == STATE_HALF_OPEN
            or self._consecutive_failures >= self.failure_threshold
        ):
            self.state = STATE_OPEN
            self._cooldown_remaining = self.cooldown_batches
            self._consecutive_failures = 0
            return True
        return False
