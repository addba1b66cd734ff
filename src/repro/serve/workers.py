"""Persistent warm workers for the shared-memory transport.

Each worker is a long-lived forked process that attaches the parent's
shared segments by name and loops: wait on the job semaphore, claim a
READY job slot (RUNNING + its worker id, under the claim lock), decode
the payload straight out of shared memory, execute, and write the
result into a claimed result slot.  Nothing crosses a pipe per job --
the only per-job IPC is the two semaphore posts.

Warm means two things here:

- the worker keeps a program cache: each compiled program broadcast
  through the :class:`repro.serve.ring.ProgramTable` is unpickled
  **once** and reused for every subsequent job that names its program
  id.  Cell functions are not this module's business: a worker runs
  :func:`repro.engine.runners.run_job` like the inline executor, and
  that resolves the program's specialized cell through the engine's
  per-process memo (:mod:`repro.engine.specialize`);
- the parent pre-seeds that table with the engine's warm kernels
  before the first job is published, and a worker resolves each
  program's cell as it absorbs it, so the first request pays no
  compile, no unpickle and no specialization.

Fault-injection markers decoded from the job header act here and not
in the parent (:mod:`repro.engine.runners` applies delay/exit only
inside worker processes, which a forked serve worker is).  A worker
that dies mid-job -- crashed, or killed by the parent for holding the
job past its timeout -- leaves its slot RUNNING with its worker id
stamped; the parent notices the dead process, requeues the slot with
a bumped generation, and respawns the worker.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional

from repro.engine.executor import isolated_job
from repro.serve.layout import (
    DONE,
    J_GEN,
    J_JOB_ID,
    J_KERNEL,
    J_PROGRAM,
    J_STATE,
    J_WORKER,
    KERNEL_NAMES,
    R_GEN,
    R_JOB_ID,
    R_STATE,
    R_WORKER,
    READY,
    RUNNING,
    decode_payload,
    encode_result,
)
from repro.serve.ring import RingGeometry, SegmentNames, ServeSegments


class _ProgramCache:
    """Worker-side memo of unpickled programs."""

    def __init__(self, segments: ServeSegments):
        self._segments = segments
        self._entries: Dict[int, Any] = {}

    def get(self, program_id: int) -> Optional[Any]:
        """The compiled program, or None when not broadcast yet."""
        compiled = self._entries.get(program_id)
        if compiled is None:
            compiled = self._segments.programs.load(program_id)
            if compiled is None:
                return None
            from repro.engine.runners import fused_sweep

            fused_sweep(compiled)  # warm the memo ahead of traffic
            self._entries[program_id] = compiled
        return compiled

    def sync(self) -> int:
        """Eagerly absorb newly broadcast programs (idle-tick warmup)."""
        count = self._segments.programs.count
        for program_id in range(count):
            self.get(program_id)
        return count


def _claim_job(segments: ServeSegments, lock, worker_id: int) -> Optional[int]:
    """Move one READY job slot to RUNNING; None when none are READY."""
    with lock:
        for index in segments.jobs.find_state(READY):
            header = segments.jobs.header[index]
            if int(header[J_STATE]) != READY:
                continue
            header[J_WORKER] = worker_id
            header[J_STATE] = RUNNING
            return index
    return None


def _claim_result_slot(segments: ServeSegments, lock) -> Optional[int]:
    from repro.serve.layout import FREE

    with lock:
        for index in segments.results.find_state(FREE):
            header = segments.results.header[index]
            if int(header[R_STATE]) != FREE:
                continue
            header[R_STATE] = RUNNING  # reserved while the body is written
            return index
    return None


def _run_slot(
    segments: ServeSegments, index: int, cache: _ProgramCache
) -> Dict[str, Any]:
    """Decode and run the job in slot *index* (may raise)."""
    from repro.engine.runners import run_job

    header = segments.jobs.header[index]
    payload = decode_payload(header, segments.jobs.data[index])
    compiled = cache.get(int(header[J_PROGRAM]))
    if compiled is None:
        raise LookupError(f"program {int(header[J_PROGRAM])} not broadcast")
    kernel = KERNEL_NAMES.get(int(header[J_KERNEL]), compiled.kernel)
    return run_job(kernel, compiled, payload)


def worker_main(
    worker_id: int,
    geometry: RingGeometry,
    names: SegmentNames,
    job_sem,
    job_lock,
    result_sem,
    result_lock,
    shutdown,
    poll_interval_s: float = 0.05,
) -> None:
    """Entry point of one warm worker process."""
    segments = ServeSegments.attach(geometry, names)
    cache = _ProgramCache(segments)
    cache.sync()  # pre-seed: programs broadcast before spawn are warm
    try:
        while not shutdown.is_set():
            if not job_sem.acquire(timeout=poll_interval_s):
                cache.sync()  # idle tick: absorb new broadcasts
                continue
            index = _claim_job(segments, job_lock, worker_id)
            if index is None:
                continue  # another worker raced us to the slot
            job_header = segments.jobs.header[index]
            job_id = int(job_header[J_JOB_ID])
            generation = int(job_header[J_GEN])
            kernel_id = int(job_header[J_KERNEL])
            result = isolated_job(_run_slot, segments, index, cache)

            # Stamp DONE under the lock: the parent kills a worker for
            # a timed-out job only while holding it and seeing RUNNING,
            # so a worker past this point always gets to report.
            with job_lock:
                job_header[J_STATE] = DONE

            result_index = None
            while result_index is None and not shutdown.is_set():
                result_index = _claim_result_slot(segments, result_lock)
                if result_index is None:
                    time.sleep(poll_interval_s / 10)
            if result_index is None:
                break  # shutting down with no slot to report into
            kernel = KERNEL_NAMES.get(kernel_id, "")
            result_header = segments.results.header[result_index]
            try:
                words = encode_result(
                    kernel,
                    result["ok"],
                    result.get("value"),
                    result.get("error"),
                    segments.results.data[result_index],
                )
            except Exception as encode_error:  # oversized result, etc.
                words = encode_result(
                    kernel,
                    False,
                    None,
                    f"{type(encode_error).__name__}: {encode_error}",
                    segments.results.data[result_index],
                )
            for field, word in words.items():
                result_header[field] = word
            result_header[R_JOB_ID] = job_id
            result_header[R_GEN] = generation
            result_header[R_WORKER] = worker_id
            result_header[R_STATE] = READY  # publish: state word last
            result_sem.release()
    finally:
        segments.close()
        # A worker must never fall back into the parent's atexit hooks.
        os._exit(0)
