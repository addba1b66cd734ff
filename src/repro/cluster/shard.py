"""One engine shard: lifecycle, pending-job ledger, fault flags.

An :class:`EngineShard` pairs one :class:`repro.engine.Engine` (its
own transport, workers, program cache, DLQ) with the cluster-side state
the router needs:

- a **lifecycle state machine** -- ``active`` -> ``draining`` (graceful
  leave: no new work, queued work finishes) -> ``left``, or ``active``
  -> ``dead`` (kill: engine closed, pending jobs orphaned for
  failover);
- a **pending ledger** -- every job routed here is remembered until
  its result envelope comes back, so a kill mid-stream hands the
  router the exact set of in-flight jobs to resubmit (exactly once)
  instead of silently dropping them;
- **fault flags** -- the deterministic chaos layer marks a shard
  partitioned (unreachable for N rounds) or hung (next drain is slow)
  without reaching into the engine.

The shard never routes; the router owns placement.  The shard's job is
to make "what was in flight here?" answerable at any instant, which is
what turns a shard death into a bounded failover instead of data loss.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.health import ShardHealth
from repro.engine import Engine
from repro.engine.jobs import Job, JobResult

#: Lifecycle states, mapped to gauge codes for the exporters.
SHARD_STATES = ("active", "draining", "left", "dead")
SHARD_STATE_CODES: Dict[str, int] = {
    "active": 0,
    "draining": 1,
    "left": 2,
    "dead": 3,
}


class ShardUnavailableError(RuntimeError):
    """The shard cannot accept work (dead, left, draining, ejected or
    partitioned); the router should pick another shard."""


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
        self._pending: Dict[int, Job] = {}
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

    @property
    def pending(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # work

    def submit(self, job: Job) -> Job:
        """Enqueue on this shard's engine and ledger the job.

        Raises whatever the engine raises (``BackpressureError`` when
        the shard's bounded queue is full) -- the router turns that
        into a fallback hop along the ring.
        """
        if self.state != "active":
            raise ShardUnavailableError(
                f"shard {self.shard_id} is {self.state}"
            )
        accepted = self.engine.submit(job)
        self._pending[accepted.job_id] = accepted
        return accepted

    def adopt(self, job: Job) -> Job:
        """Take over a job stolen or failed over from another shard."""
        return self.submit(job)

    def drain(self) -> List[JobResult]:
        """Drain the shard's engine; settle the pending ledger."""
        results = self.engine.drain()
        for result in results:
            self._pending.pop(result.job_id, None)
        return results

    def replay_dead_letters(self) -> List[Job]:
        """Replay the engine's DLQ, keeping the pending ledger honest
        (replayed jobs are in flight again and must survive a kill)."""
        replayed = self.engine.replay_dead_letters()
        for job in replayed:
            self._pending[job.job_id] = job
        return replayed

    def withdraw(self, max_jobs: Optional[int] = None) -> List[Job]:
        """Pull queued-but-unstarted jobs back out (work stealing)."""
        taken = self.engine.withdraw(max_jobs)
        for job in taken:
            self._pending.pop(job.job_id, None)
        return taken

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

    def kill(self) -> List[Job]:
        """Simulated/operator crash: close the engine, orphan pending.

        Returns the in-flight jobs that never produced an envelope --
        the exact set the router must resubmit for exactly-once
        delivery.
        """
        orphans = list(self._pending.values())
        self._pending.clear()
        self.state = "dead"
        try:
            self.engine.close()
        except Exception:
            pass  # a dead shard's executor may already be gone
        return orphans

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

    def snapshot(self, round_number: int = 0) -> Dict[str, float]:
        """Per-shard numeric gauges (health + load), exporter-ready."""
        gauges = dict(self.health.snapshot())
        gauges.update(
            {
                "state": float(SHARD_STATE_CODES[self.state]),
                "queued": float(self.queued),
                "pending": float(len(self._pending)),
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
