"""Dead-letter queue: failed jobs parked for replay.

Jobs that come back from a drain with an error envelope (executor
exhausted its retries, compile failed, validation mismatched) are not
silently dropped: the engine parks ``(job, error, attempts)`` here, and
a caller -- the CLI, a chaos campaign, an operator -- can replay them
once the cause has passed (a transient compile fault, a quarantined
kernel now routed to the reference path).

The queue is bounded: a full queue refuses the incoming letter, and
:meth:`push` bumps ``dead_letters_dropped`` on the attached metrics
registry itself, so callers that ignore the return value still count
drops.  Deadline expiries never dead-letter: the deadline was the
caller's, and replaying past it is meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.engine.jobs import Job


@dataclass(frozen=True)
class DeadLetter:
    """One failed job plus why it failed."""

    job: Job
    error: str
    attempts: int = 1


class DeadLetterQueue:
    """A bounded FIFO of :class:`DeadLetter` records."""

    def __init__(
        self,
        capacity: int = 64,
        metrics: Optional[object] = None,
    ):
        if capacity < 0:
            raise ValueError("dead-letter capacity must be non-negative")
        self.capacity = capacity
        self.metrics = metrics
        self._letters: List[DeadLetter] = []

    def __len__(self) -> int:
        return len(self._letters)

    def _dropped(self) -> None:
        if self.metrics is not None:
            self.metrics.incr("dead_letters_dropped")

    def push(self, job: Job, error: str, attempts: int = 1) -> bool:
        """Park a failed job; False when the queue is full and the
        letter was dropped (one ``dead_letters_dropped`` bump each)."""
        if len(self._letters) >= self.capacity:
            self._dropped()
            return False
        self._letters.append(DeadLetter(job=job, error=error, attempts=attempts))
        return True

    def letters(self) -> List[DeadLetter]:
        """A copy of the parked letters, oldest first."""
        return list(self._letters)

    def drain(self) -> List[DeadLetter]:
        """Pop everything for replay."""
        letters, self._letters = self._letters, []
        return letters

    def extend(self, letters: Iterable[DeadLetter]) -> None:
        """Put letters back (replay hit backpressure mid-way)."""
        self._letters.extend(letters)

    def clear(self) -> None:
        self._letters.clear()
