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
caller's, and replaying past it is meaningless.  :meth:`replay` is the
one replay loop the engine and the cluster router share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional

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
        """Put letters back (a replay was refused mid-way)."""
        self._letters.extend(letters)

    def replay(self, submit: Callable[[Job], Job]) -> List[Job]:
        """Resubmit every letter through *submit*, oldest first.

        Jobs keep their ids, so a later drain's envelope supersedes the
        failed one.  Returns the resubmitted jobs (one
        ``dead_letters_replayed`` bump each); when *submit* refuses one
        (backpressure, a failed journal write, both counted by the
        submitter) it and every later letter stay parked.
        """
        letters = self.drain()
        replayed: List[Job] = []
        for index, letter in enumerate(letters):
            try:
                replayed.append(submit(letter.job))
            except Exception:
                self.extend(letters[index:])
                break
        if replayed and self.metrics is not None:
            self.metrics.incr("dead_letters_replayed", len(replayed))
        return replayed

    def clear(self) -> None:
        self._letters.clear()
