"""One engine shard: lifecycle, health, fault flags.

An :class:`EngineShard` pairs one :class:`repro.engine.Engine` (its
own transport, workers, breaker set, DLQ) with the cluster-side state
the router needs:

- a **lifecycle state machine** -- ``active`` -> ``draining`` (graceful
  leave: no new work, queued work finishes) -> ``left``, or ``active``
  -> ``dead`` (kill: engine closed);
- its **health** (:class:`~repro.cluster.health.ShardHealth`);
- **fault flags** -- the deterministic chaos layer marks a shard
  partitioned (unreachable for N rounds) or hung (next drain is slow)
  without reaching into the engine.

The shard neither routes nor remembers jobs: the router enqueues on
``shard.engine`` directly, and its one in-flight ledger records which
shard owns each job -- so "what was in flight on this shard?" has one
answer, however the shard is lost (killed, ejected, or a drain that
raised).
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.health import ShardHealth
from repro.engine import Engine

#: Lifecycle states, mapped to gauge codes for the exporters.
SHARD_STATES = ("active", "draining", "left", "dead")
SHARD_STATE_CODES: Dict[str, int] = {
    "active": 0,
    "draining": 1,
    "left": 2,
    "dead": 3,
}


class EngineShard:
    """One engine plus its cluster-side bookkeeping."""

    def __init__(
        self,
        shard_id: str,
        engine: Engine,
        ordinal: int = 0,
    ):
        self.shard_id = shard_id
        self.engine = engine
        self.health = ShardHealth()
        #: Stable creation index; the fault plan draws on this, not the
        #: id string, so renamed shards keep their fault schedule.
        self.ordinal = ordinal
        self.state = "active"
        self._partitioned_until_round = 0
        self._hang_delay_s = 0.0

    # ------------------------------------------------------------------
    # availability

    def partitioned(self, round_number: int) -> bool:
        return round_number < self._partitioned_until_round

    def accepting(self, round_number: int) -> bool:
        """May the router place *new* work here this round?"""
        return (
            self.state == "active"
            and not self.partitioned(round_number)
            and not self.health.ejected
        )

    def drainable(self, round_number: int) -> bool:
        """May the router drain this shard's queued work this round?
        Draining shards still finish their backlog; partitioned and
        dead ones cannot be reached."""
        return self.state in ("active", "draining") and not self.partitioned(
            round_number
        )

    @property
    def queued(self) -> int:
        return self.engine.queued if self.state not in ("dead", "left") else 0

    # ------------------------------------------------------------------
    # faults

    def mark_partitioned(self, until_round: int) -> None:
        self._partitioned_until_round = max(
            self._partitioned_until_round, until_round
        )

    def mark_hung(self, delay_s: float) -> None:
        self._hang_delay_s = max(self._hang_delay_s, delay_s)

    def take_hang_delay(self) -> float:
        """Consume the pending hang delay (one slow round)."""
        delay, self._hang_delay_s = self._hang_delay_s, 0.0
        return delay

    def kill(self) -> None:
        """Simulated/operator crash: close the engine.  The router
        fails over what this shard owned from its in-flight ledger."""
        self.state = "dead"
        try:
            self.engine.close()
        except Exception:
            pass  # a dead shard's executor may already be gone

    # ------------------------------------------------------------------
    # lifecycle

    def begin_leave(self) -> None:
        """Graceful leave: stop accepting, keep draining the backlog."""
        if self.state == "active":
            self.state = "draining"

    def finish_leave(self) -> bool:
        """Complete the leave once the backlog is empty; True if left."""
        if self.state == "draining" and self.engine.queued == 0:
            self.state = "left"
            self.engine.close()
            return True
        return False

    def close(self) -> None:
        if self.state not in ("dead", "left"):
            self.state = "left"
            self.engine.close()

    # ------------------------------------------------------------------
    # introspection

    def snapshot(
        self, round_number: int = 0, pending: int = 0
    ) -> Dict[str, float]:
        """Per-shard numeric gauges (health + load), exporter-ready;
        *pending* is the router ledger's count of jobs this shard owns."""
        gauges = dict(self.health.snapshot())
        gauges.update(
            {
                "state": float(SHARD_STATE_CODES[self.state]),
                "queued": float(self.queued),
                "pending": float(pending),
                "partitioned": float(
                    1.0 if self.partitioned(round_number) else 0.0
                ),
                "dlq_depth": float(
                    len(self.engine.dead_letters)
                    if self.state not in ("dead", "left")
                    else 0.0
                ),
            }
        )
        return gauges
