"""Storage components of the DPAx memory hierarchy.

Each component counts its accesses: the paper's energy/area arguments
(Table 7's RF-dominated PE area, Section 7.2's POA memory-boundedness)
are all stated in terms of who gets touched how often, and the
benchmarks report those counters.

The methods below are the host-side interface and the definition of
each access.  Decoded control handlers and bundles
(:mod:`repro.dpax.decode`) do the same accesses in their own generated
code -- ``_words``, ``_queue`` and the counters directly, with the same
bounds checks and ``StorageError`` messages -- so a simulated cycle
calls no storage method.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional


class StorageError(RuntimeError):
    """Raised on out-of-range or ill-formed storage accesses."""


class RegisterFile:
    """A PE's register file: word-addressed, bounded, counted.

    The words are a preallocated list: decoded VLIW bundles
    (:mod:`repro.dpax.decode`) index it directly, with register bounds
    checked once at decode time and the bundle's static access counts
    added in one step.
    """

    def __init__(self, size: int = 64):
        if size <= 0:
            raise StorageError("register file size must be positive")
        self.size = size
        self._words: List[int] = [0] * size
        self.reads = 0
        self.writes = 0

    def read(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise StorageError(f"RF read out of range: {index}")
        self.reads += 1
        return self._words[index]

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < self.size:
            raise StorageError(f"RF write out of range: {index}")
        self.writes += 1
        self._words[index] = value

    @property
    def accesses(self) -> int:
        return self.reads + self.writes


class Scratchpad:
    """A PE's scratchpad memory for long-range dependencies.

    Capacity defaults to 2K words (the 136KB total SPM of Table 7 split
    across 68 PEs); POA's 128-cell dependency window and Bellman-Ford's
    distance array live here.
    """

    def __init__(self, size: int = 2048):
        if size <= 0:
            raise StorageError("scratchpad size must be positive")
        self.size = size
        self._words: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0

    def read(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise StorageError(f"SPM read out of range: {index}")
        self.reads += 1
        return self._words.get(index, 0)

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < self.size:
            raise StorageError(f"SPM write out of range: {index}")
        self.writes += 1
        self._words[index] = value

    @property
    def accesses(self) -> int:
        return self.reads + self.writes


class PortQueue:
    """A bounded FIFO port between neighboring PEs (or PE and array).

    ``push``/``pop`` return False/None when full/empty so the caller
    can stall its thread instead of losing data.  A ``mv`` between two
    ports pops its source before it learns that the destination is
    full; the decoded handler then puts the word back at the head (the
    popping thread is the queue's only consumer) and stalls.
    """

    def __init__(self, capacity: int = 8):
        if capacity <= 0:
            raise StorageError("port capacity must be positive")
        self.capacity = capacity
        self._queue: Deque[int] = deque()
        self.pushes = 0
        self.pops = 0

    def push(self, value: int) -> bool:
        if len(self._queue) >= self.capacity:
            return False
        self._queue.append(value)
        self.pushes += 1
        return True

    def pop(self) -> Optional[int]:
        if not self._queue:
            return None
        self.pops += 1
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class Fifo(PortQueue):
    """The PE-array FIFO connecting the last PE back to the first.

    Deeper than a port queue (it buffers a whole row of the DP table
    between passes; Table 7 budgets 276KB of FIFO across the tile).
    """

    def __init__(self, capacity: int = 4096):
        super().__init__(capacity=capacity)


class DataBuffer:
    """An input or output data buffer at PE-array scope.

    Input buffers are preloaded by the host before the kernel starts;
    output buffers are drained afterwards.  Both are word-indexed.
    """

    def __init__(self, size: int = 65536):
        if size <= 0:
            raise StorageError("data buffer size must be positive")
        self.size = size
        self._words: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0

    def preload(self, values: List[int], base: int = 0) -> None:
        """Host-side bulk load (not counted as kernel accesses)."""
        if base < 0 or base + len(values) > self.size:
            raise StorageError("preload outside buffer bounds")
        for offset, value in enumerate(values):
            self._words[base + offset] = value

    def read(self, index: int) -> int:
        if not 0 <= index < self.size:
            raise StorageError(f"buffer read out of range: {index}")
        self.reads += 1
        return self._words.get(index, 0)

    def write(self, index: int, value: int) -> None:
        if not 0 <= index < self.size:
            raise StorageError(f"buffer write out of range: {index}")
        self.writes += 1
        self._words[index] = value

    def dump(self, base: int, count: int) -> List[int]:
        """Host-side bulk read of results (not counted)."""
        if base < 0 or base + count > self.size:
            raise StorageError("dump outside buffer bounds")
        return [self._words.get(base + offset, 0) for offset in range(count)]
