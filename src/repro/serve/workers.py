"""Persistent warm workers for the shared-memory transport.

Each worker is a long-lived forked process that attaches the parent's
shared segments by name and loops: take a job-semaphore post, claim
the lowest READY job slot (RUNNING + its worker id, under the claim
lock), decode the payload straight out of shared memory, execute, and
write the result into the result slot paired with that job slot.
Nothing crosses a pipe per job: the claim lock is taken twice (claim,
DONE stamp), and the result semaphore is posted once per busy spell,
when no post is left to take.  Shutdown is read on idle ticks only.

Warm means two things here:

- the worker keeps a program cache: each compiled program broadcast
  through the :class:`repro.serve.ring.ProgramTable` is unpickled
  **once** and reused for every subsequent job that names its program
  id.  A worker runs :func:`repro.engine.runners.run_job` like the
  inline executor, and that runs the program's fused sweep;
- the parent broadcasts the engine's warm kernels into that table
  and fuses their sweeps (the process-wide memo,
  :data:`repro.engine.sweep.SWEEPS`) *before* it forks any worker, and
  fuses every later broadcast too.  A worker -- first or respawned --
  inherits those sweeps, so absorbing a program is an unpickle and a
  memo hit, and the first request pays no compile and builds no sweep.

Fault-injection markers decoded from the job header act here and not
in the parent (:mod:`repro.engine.runners` applies delay/exit only
inside worker processes, which a forked serve worker is).  A worker
that dies mid-job -- crashed, or killed by the parent for holding the
job past its timeout -- leaves its slot RUNNING (or DONE, if it died
reporting) with its worker id stamped; the parent notices the dead
process, requeues the slot with a bumped generation, and respawns the
worker.
"""

from __future__ import annotations

import os
import stat
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
from repro.serve.ring import RingGeometry, SegmentNames, ServeSegments, SlotRing


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


def _claim_job(jobs: SlotRing, lock, worker_id: int) -> Optional[int]:
    """Move the lowest READY job slot to RUNNING; None when none is."""
    with lock:
        index = jobs.first(READY)
        if index is not None:
            header = jobs.rows[index]
            header[J_WORKER] = worker_id
            header[J_STATE] = RUNNING
        return index


def _run_slot(jobs: SlotRing, index: int, cache: _ProgramCache) -> Dict[str, Any]:
    """Decode and run the job in slot *index* (may raise)."""
    from repro.engine.runners import run_job

    header = jobs.rows[index]
    payload = decode_payload(header, jobs.regions[index])
    compiled = cache.get(header[J_PROGRAM])
    if compiled is None:
        raise LookupError(f"program {header[J_PROGRAM]} not broadcast")
    kernel = KERNEL_NAMES.get(header[J_KERNEL], compiled.kernel)
    return run_job(kernel, compiled, payload)


def _post_result(
    jobs: SlotRing, results: SlotRing, index: int, result: Dict, worker_id: int
) -> None:
    """Write *result* into result slot *index*, the partner of job slot
    *index* (held DONE until the parent collects it): body and words
    first, the job's generation word and READY last."""
    job = jobs.rows[index]
    kernel = KERNEL_NAMES.get(job[J_KERNEL], "")
    region = results.regions[index]
    try:
        words = encode_result(
            kernel, result["ok"], result.get("value"), result.get("error"), region
        )
    except Exception as error:  # oversized result, etc.
        words = encode_result(
            kernel, False, None, f"{type(error).__name__}: {error}", region
        )
    header = results.rows[index]
    for field, word in words.items():
        header[field] = word
    header[R_JOB_ID] = job[J_JOB_ID]
    header[R_WORKER] = worker_id
    header[R_GEN] = job[J_GEN]  # the parent takes the result once this matches
    header[R_STATE] = READY


def _release_inherited_sockets() -> None:
    """Point every socket this worker inherited at ``/dev/null``.

    A worker forked after its parent started serving (the first large
    batch, or a respawn) inherits the listening socket and every client
    connection; holding them would keep a connection the parent closes
    open for its peer.  ``dup2`` over them rather than ``close``, so an
    inherited socket object finalized here later closes ``/dev/null``,
    never a descriptor this worker opened since.
    """
    try:
        descriptors = [int(fd) for fd in os.listdir("/proc/self/fd")]
    except OSError:
        return  # no /proc to list them by
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in descriptors:
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:
                pass  # the listing's own descriptor, gone already
    finally:
        os.close(devnull)


def worker_main(
    worker_id: int,
    geometry: RingGeometry,
    names: SegmentNames,
    job_sem,
    job_lock,
    result_sem,
    shutdown,
    poll_interval_s: float = 0.05,
) -> None:
    """Entry point of one warm worker process."""
    _release_inherited_sockets()
    segments = ServeSegments.attach(geometry, names)
    jobs, results = segments.jobs, segments.results
    cache = _ProgramCache(segments)
    cache.sync()  # pre-seed: programs broadcast before spawn are warm
    unposted = False
    try:
        while True:
            if not job_sem.acquire(False):
                if unposted:
                    # About to sleep: one post covers every result
                    # written since the parent last heard from us.
                    result_sem.release()
                    unposted = False
                if not job_sem.acquire(timeout=poll_interval_s):
                    if shutdown.is_set():
                        break
                    cache.sync()  # idle tick: absorb new broadcasts
                    continue
            index = _claim_job(jobs, job_lock, worker_id)
            if index is None:
                continue  # another worker raced us to the slot
            result = isolated_job(_run_slot, jobs, index, cache)
            # Stamp DONE under the lock: the parent kills a worker for
            # a timed-out job only while holding it and seeing RUNNING,
            # so a worker past this point always gets to report.
            with job_lock:
                jobs.rows[index][J_STATE] = DONE
            _post_result(jobs, results, index, result, worker_id)
            unposted = True
    finally:
        segments.close()
        # A worker must never fall back into the parent's atexit hooks.
        os._exit(0)
