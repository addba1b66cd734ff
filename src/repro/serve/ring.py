"""Shared-memory slot rings and the broadcast program table.

One :class:`ServeSegments` owns four ``multiprocessing.shared_memory``
segments -- job headers, job bytes, result headers, result bytes --
plus a program table (row header + pickle blob region).  Parent and
workers map the same segments as numpy arrays, so publishing a job is
a handful of int64 stores and one byte-region copy; nothing is pickled
per batch on the fast path.

Slot lifecycle (header ``STATE`` word, see :mod:`repro.serve.layout`):

- the parent **claims** a FREE job slot (it is the only producer, so
  claiming is lock-free), **fills** the payload bytes, then
  **publishes** by storing READY and releasing the job semaphore;
- a worker wakes on the semaphore, takes the claim lock, picks any
  READY slot, stamps its worker id and RUNNING -- the lock covers only
  this transition;
- the worker writes its result into a result slot it claims the same
  way (result lock), marks the job slot DONE, stores READY on the
  result slot and releases the result semaphore;
- the parent drains READY result slots, matches them to pending jobs
  by ``(job_id, generation)``, and **reclaims** both slots: state back
  to FREE with the generation word bumped, so a stale write from a
  worker that was timed out mid-job can never be mistaken for a live
  result.

The generation word is the wraparound guard: slots are reused in
arbitrary order under load, and every reuse changes the generation the
parent expects, which is what the ring edge-case tests pin down.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serve.layout import (
    FREE,
    JOB_FIELDS,
    READY,
    RESULT_FIELDS,
)

#: Program-table row words.
P_ID, P_OFFSET, P_LENGTH = range(3)
PROGRAM_FIELDS = 3


class RingCapacityError(RuntimeError):
    """The program table (or a ring) cannot hold what was offered."""


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without resource-tracker ownership.

    A child that attaches by name must not let the resource tracker
    adopt the segment -- the parent owns the lifetime, and forked
    children share the parent's tracker process, so a child-side
    register/unregister pair would clobber the parent's registration
    (bpo-39959).  Python 3.13 has ``track=False`` for exactly this; on
    older versions registration is suppressed around the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class RingGeometry:
    """Shape of one transport instance's shared segments."""

    #: Job/result ring capacity in slots (shared by both rings).
    slots: int = 32
    #: Byte capacity of one job payload slot.
    slot_bytes: int = 1 << 16
    #: Byte capacity of one result slot.
    result_slot_bytes: int = 1 << 16
    #: Program-table limits (programs are broadcast once, not per job).
    max_programs: int = 64
    program_bytes: int = 1 << 22

    def __post_init__(self) -> None:
        if self.slots <= 0:
            raise ValueError("ring needs at least one slot")
        if min(self.slot_bytes, self.result_slot_bytes) < 64:
            raise ValueError("slot byte regions must hold at least 64 bytes")
        if self.max_programs <= 0 or self.program_bytes <= 0:
            raise ValueError("program table must have positive capacity")


class SlotRing:
    """numpy views over one header plane + one data plane."""

    def __init__(
        self,
        header_shm: shared_memory.SharedMemory,
        data_shm: shared_memory.SharedMemory,
        slots: int,
        fields: int,
        slot_bytes: int,
    ):
        self._header_shm = header_shm
        self._data_shm = data_shm
        self.slots = slots
        self.header = np.ndarray(
            (slots, fields), dtype=np.int64, buffer=header_shm.buf
        )
        self.data = np.ndarray(
            (slots, slot_bytes), dtype=np.uint8, buffer=data_shm.buf
        )

    def find_state(self, state: int) -> List[int]:
        """Slot indices currently in *state* (a snapshot)."""
        return np.flatnonzero(self.header[:, 0] == state).tolist()

    def first_free(self) -> Optional[int]:
        free = np.flatnonzero(self.header[:, 0] == FREE)
        return int(free[0]) if free.size else None

    def publish(self, index: int, header_words: Dict[int, int]) -> None:
        """Store header words then flip the slot READY (state last)."""
        for field, value in header_words.items():
            self.header[index, field] = value
        self.header[index, 0] = READY


class ProgramTable:
    """Append-only broadcast area for pickled compiled programs.

    The parent is the only writer: blob first, row second, count last,
    so a reader that observes ``count > id`` is guaranteed to see that
    program's complete row and bytes.  Workers unpickle each program
    once and memoize it -- that is the warm-worker program cache; its
    fused sweep they inherit from the parent, which built it before
    forking them.
    """

    def __init__(
        self,
        header_shm: shared_memory.SharedMemory,
        blob_shm: shared_memory.SharedMemory,
        max_programs: int,
    ):
        self._header_shm = header_shm
        self._blob_shm = blob_shm
        self.max_programs = max_programs
        # Row 0 of the header plane is [count, blob_used, 0]; program
        # rows start at 1 so program id N lives in row N + 1.
        self._table = np.ndarray(
            (max_programs + 1, PROGRAM_FIELDS),
            dtype=np.int64,
            buffer=header_shm.buf,
        )
        self._blob = np.ndarray(
            (blob_shm.size,), dtype=np.uint8, buffer=blob_shm.buf
        )

    @property
    def count(self) -> int:
        return int(self._table[0, 0])

    @property
    def blob_used(self) -> int:
        return int(self._table[0, 1])

    def append(self, program: object) -> Tuple[int, int]:
        """Publish one program; returns ``(program_id, blob_bytes)``."""
        raw = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
        count, offset = self.count, self.blob_used
        if count >= self.max_programs:
            raise RingCapacityError(
                f"program table full ({self.max_programs} programs)"
            )
        if offset + len(raw) > self._blob.shape[0]:
            raise RingCapacityError(
                f"program blob region full ({self._blob.shape[0]} bytes)"
            )
        self._blob[offset : offset + len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        self._table[count + 1] = (count, offset, len(raw))
        self._table[0, 1] = offset + len(raw)
        self._table[0, 0] = count + 1  # readers key off this store
        return count, len(raw)

    def load(self, program_id: int) -> Optional[object]:
        """Unpickle program *program_id*, or None if not yet visible."""
        if program_id < 0 or program_id >= self.count:
            return None
        _, offset, length = (int(word) for word in self._table[program_id + 1])
        return pickle.loads(self._blob[offset : offset + length].tobytes())


@dataclass(frozen=True)
class SegmentNames:
    """The shared-memory names a worker needs to attach everything."""

    job_header: str
    job_data: str
    result_header: str
    result_data: str
    program_header: str
    program_blob: str


class ServeSegments:
    """Owner (parent) or borrower (worker) of all transport segments."""

    def __init__(
        self,
        geometry: RingGeometry,
        segments: Dict[str, shared_memory.SharedMemory],
        owner: bool,
    ):
        self.geometry = geometry
        self._segments = segments
        self._owner = owner
        self.jobs = SlotRing(
            segments["job_header"],
            segments["job_data"],
            geometry.slots,
            JOB_FIELDS,
            geometry.slot_bytes,
        )
        self.results = SlotRing(
            segments["result_header"],
            segments["result_data"],
            geometry.slots,
            RESULT_FIELDS,
            geometry.result_slot_bytes,
        )
        self.programs = ProgramTable(
            segments["program_header"],
            segments["program_blob"],
            geometry.max_programs,
        )

    @classmethod
    def create(cls, geometry: RingGeometry) -> "ServeSegments":
        """Create every segment, owned by the caller.

        Nothing is written: a new POSIX segment is sized by
        ``ftruncate`` and reads as zeros, which is every slot FREE at
        generation 0 and an empty program table.  Only the pages the
        parent later fills become resident.
        """
        sizes = {
            "job_header": geometry.slots * JOB_FIELDS * 8,
            "job_data": geometry.slots * geometry.slot_bytes,
            "result_header": geometry.slots * RESULT_FIELDS * 8,
            "result_data": geometry.slots * geometry.result_slot_bytes,
            "program_header": (geometry.max_programs + 1) * PROGRAM_FIELDS * 8,
            "program_blob": geometry.program_bytes,
        }
        segments: Dict[str, shared_memory.SharedMemory] = {}
        try:
            for key, size in sizes.items():
                segments[key] = shared_memory.SharedMemory(create=True, size=size)
        except Exception:
            for segment in segments.values():
                try:
                    segment.close()
                    segment.unlink()
                except Exception:
                    pass
            raise
        return cls(geometry, segments, owner=True)

    @classmethod
    def attach(
        cls, geometry: RingGeometry, names: SegmentNames
    ) -> "ServeSegments":
        segments = {
            key: _attach(getattr(names, key))
            for key in (
                "job_header",
                "job_data",
                "result_header",
                "result_data",
                "program_header",
                "program_blob",
            )
        }
        return cls(geometry, segments, owner=False)

    @property
    def names(self) -> SegmentNames:
        return SegmentNames(
            **{key: segment.name for key, segment in self._segments.items()}
        )

    def close(self) -> None:
        """Drop the numpy views, unmap, and (as owner) unlink."""
        # The ndarray views hold exported pointers into the mapped
        # buffers; they must be released before SharedMemory.close().
        self.jobs.header = self.jobs.data = None  # type: ignore[assignment]
        self.results.header = self.results.data = None  # type: ignore[assignment]
        self.programs._table = self.programs._blob = None  # type: ignore[assignment]
        for segment in self._segments.values():
            try:
                segment.close()
            except Exception:
                pass
            if self._owner:
                try:
                    segment.unlink()
                except Exception:
                    pass
        self._segments = {}
