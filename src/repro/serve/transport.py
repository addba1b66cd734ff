"""The transport seam: in-process, or shared-memory rings to warm workers.

:class:`TransportConfig` is the engine-facing knob.  ``backend``
picks how batches cross the process boundary:

- ``"inline"`` -- no boundary, the serial floor;
- ``"shm"`` -- :class:`ShmExecutor` below: persistent warm workers
  attached to shared-memory job/result rings, zero pickling on the
  hot path, compiled programs broadcast once through the program
  table.  (A payload or result the SoA slot layout cannot carry --
  POA graphs, trace spans, sentinel counts -- rides its slot pickled,
  ``FMT_PICKLE``, so every job the inline executor runs crosses.)

Both produce byte-identical results (pinned by
``tests/serve/test_backends.py``); they differ only in throughput and
in how much they move, which :attr:`BatchOutcome.transport_bytes`
quantifies per batch.

Failure semantics are the one contract of
:mod:`repro.engine.executor`.  A job's ``job_timeout_s`` window opens
when a worker claims its slot (the parent sees the slot RUNNING on a
collect tick); a worker that holds a job past its window is killed.
A dead worker -- crashed or killed -- has the slot it held revoked
with a bumped generation and requeued while retry budget remains
(charging that job one attempt, the resubmission contract the
repro.faults chaos drills assert), then is respawned; a job out of
budget runs inline, the always-correct floor.  Jobs still READY in
the ring were nobody's failure and are never charged.  A transport
that cannot even set up its segments or workers degrades whole-hog to
inline rather than failing the drain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import multiprocessing as mp

from repro.engine.batcher import Batch
from repro.engine.cache import CompiledProgram
from repro.engine.executor import BatchOutcome, InlineExecutor, isolated_job
from repro.engine.runners import fused_sweep, run_job
from repro.obs.logs import get_logger
from repro.serve.layout import (
    DONE,
    FREE,
    J_GEN,
    J_JOB_ID,
    J_PROGRAM,
    J_STATE,
    J_WORKER,
    JOB_FIELDS,
    R_GEN,
    R_JOB_ID,
    R_STATE,
    READY,
    RESULT_FIELDS,
    RUNNING,
    SlotOverflowError,
    decode_result,
    encode_payload,
    job_body_bytes,
    result_body_bytes,
)
from repro.serve.ring import RingCapacityError, RingGeometry, ServeSegments

_LOG = get_logger("repro.serve.transport")

#: Transport backends the engine seam accepts.
BACKENDS = ("inline", "shm")

#: Shape of every transport's shared segments, read when an executor
#: starts (tests shrink the ring by replacing it).
RING_GEOMETRY = RingGeometry()


@dataclass(frozen=True)
class TransportConfig:
    """How engine batches reach their execution processes."""

    backend: str = "shm"
    #: Worker processes for the shm backend (>= 1).
    workers: int = 2
    #: Kernels whose programs the engine compiles and broadcasts at
    #: startup so the first request hits warm workers.
    warm_kernels: Tuple[str, ...] = ()
    #: Worker idle-poll cadence (also the parent's collect tick).
    poll_interval_s: float = 0.02

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown transport backend {self.backend!r}; pick from {BACKENDS}"
            )
        if self.backend != "inline" and self.workers < 1:
            raise ValueError(f"{self.backend} transport needs at least one worker")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")

    # The ring's slot sizes, for code that sizes buffers like a slot's.
    @property
    def slot_bytes(self) -> int:
        """Byte capacity of one job payload slot."""
        return RING_GEOMETRY.slot_bytes

    @property
    def result_slot_bytes(self) -> int:
        """Byte capacity of one result slot."""
        return RING_GEOMETRY.result_slot_bytes


@dataclass
class _PendingJob:
    """One job's transit state across publish/retry/collect."""

    batch_index: int
    job_index: int
    kernel: str
    payload: Dict[str, Any]
    program_id: Optional[int]
    attempts: int = 0
    slot: int = -1
    generation: int = -1
    job_id: int = -1
    #: ``perf_counter()`` of the collect tick that first saw a worker
    #: holding this job; its timeout window runs from here, so time
    #: spent READY behind a busy or hung worker costs it nothing.
    claimed_at: Optional[float] = None


@dataclass
class _BatchState:
    """Per-batch accounting while its jobs ride the ring."""

    batch: Batch
    compiled: CompiledProgram
    results: List[Optional[Dict[str, Any]]]
    remaining: int
    started: float
    finished: float = 0.0
    transport_bytes: int = 0
    max_attempts: int = 1
    degraded: bool = False


class ShmExecutor:
    """Warm-worker execution over shared-memory job/result rings.

    Start-up runs in the order that lets every worker fork warm: the
    segments are created, *programs* (the engine's warm kernels,
    compiled already) are broadcast into the program table and their
    fused sweeps built in this process, and only then are the workers
    forked -- each inherits the sweeps and builds none.  A program
    broadcast later is fused here at broadcast too, so a worker
    respawned after a crash or a kill also starts warm.
    """

    backend = "shm"

    def __init__(
        self,
        config: TransportConfig,
        job_timeout_s: float = 30.0,
        max_retries: int = 1,
        programs: Sequence[CompiledProgram] = (),
    ):
        if job_timeout_s <= 0:
            raise ValueError("job timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.config = config
        self.job_timeout_s = job_timeout_s
        self.max_retries = max_retries
        self._inline = InlineExecutor()
        self._segments: Optional[ServeSegments] = None
        self._workers: List[Any] = []
        self._broken = False
        self._job_counter = 0
        self._program_ids: Dict[str, int] = {}
        self._unaccounted_program_bytes = 0
        try:
            self._ctx = mp.get_context("fork")
            self._segments = ServeSegments.create(RING_GEOMETRY)
            self._job_sem = self._ctx.Semaphore(0)
            self._job_lock = self._ctx.Lock()
            self._result_sem = self._ctx.Semaphore(0)
            self._result_lock = self._ctx.Lock()
            self._shutdown = self._ctx.Event()
            for compiled in programs:
                self._program_id(compiled)
            self._workers = [None] * config.workers
            for worker_id in range(config.workers):
                self._spawn(worker_id)
        except Exception:
            self._broken = True
            if self._segments is not None:
                self._segments.close()
                self._segments = None
            _LOG.warning(
                "shared-memory transport unavailable; degrading to inline"
            )

    # ------------------------------------------------------------------
    # workers and programs

    def _spawn(self, worker_id: int) -> None:
        from repro.serve.workers import worker_main

        process = self._ctx.Process(
            target=worker_main,
            args=(
                worker_id,
                self._segments.geometry,
                self._segments.names,
                self._job_sem,
                self._job_lock,
                self._result_sem,
                self._result_lock,
                self._shutdown,
                self.config.poll_interval_s,
            ),
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = process

    def _program_id(self, compiled: CompiledProgram) -> Optional[int]:
        """The broadcast id for *compiled* (appending on first sight,
        and fusing its sweep here so later forks inherit it)."""
        if self._segments is None:
            return None
        key = compiled.program_hash
        program_id = self._program_ids.get(key)
        if program_id is not None:
            return program_id
        try:
            program_id, nbytes = self._segments.programs.append(compiled)
        except RingCapacityError:
            _LOG.warning(
                "program table full; batches with new programs run inline"
            )
            return None
        self._program_ids[key] = program_id
        self._unaccounted_program_bytes += nbytes
        fused_sweep(compiled)
        return program_id

    # ------------------------------------------------------------------
    # the drain loop

    def run_batches(
        self, items: Sequence[Tuple[Batch, CompiledProgram]]
    ) -> List[BatchOutcome]:
        if self._broken or self._segments is None:
            outcomes = self._inline.run_batches(items)
            for outcome in outcomes:
                outcome.degraded = True
            return outcomes

        now = time.perf_counter()
        states: List[_BatchState] = []
        queue: List[_PendingJob] = []
        for batch_index, (batch, compiled) in enumerate(items):
            program_id = self._program_id(compiled)
            states.append(
                _BatchState(
                    batch=batch,
                    compiled=compiled,
                    results=[None] * len(batch.jobs),
                    remaining=len(batch.jobs),
                    started=now,
                )
            )
            for job_index, job in enumerate(batch.jobs):
                queue.append(
                    _PendingJob(
                        batch_index=batch_index,
                        job_index=job_index,
                        kernel=batch.kernel,
                        payload=job.payload,
                        program_id=program_id,
                    )
                )
        if states:
            # Program broadcasts are transport traffic too; charge them
            # to the drain that triggered them (first batch).
            states[0].transport_bytes += self._unaccounted_program_bytes
            self._unaccounted_program_bytes = 0

        outstanding: Dict[int, _PendingJob] = {}
        queue.reverse()  # pop() from the tail publishes in order
        while queue or outstanding:
            self._publish(queue, outstanding, states)
            self._result_sem.acquire(timeout=self.config.poll_interval_s)
            self._collect(outstanding, states)
            self._kill_overdue_workers(outstanding)
            self._reap_dead_workers(queue, outstanding, states)

        return [self._outcome(state) for state in states]

    def _publish(
        self,
        queue: List[_PendingJob],
        outstanding: Dict[int, _PendingJob],
        states: List[_BatchState],
    ) -> None:
        """Fill FREE job slots until the ring pushes back."""
        jobs = self._segments.jobs
        while queue:
            record = queue[-1]
            state = states[record.batch_index]
            if record.program_id is None:
                queue.pop()
                state.degraded = True
                self._run_inline(record, state)
                continue
            slot = jobs.first_free()
            if slot is None:
                return  # ring full: natural backpressure, collect first
            try:
                words = encode_payload(
                    record.kernel, record.payload, jobs.data[slot]
                )
            except SlotOverflowError:
                queue.pop()
                state.degraded = True
                self._run_inline(record, state)
                continue
            queue.pop()
            if record.attempts == 0:
                state.transport_bytes += job_body_bytes(words) + JOB_FIELDS * 8
            record.attempts += 1
            state.max_attempts = max(state.max_attempts, record.attempts)
            self._job_counter += 1
            record.job_id = self._job_counter
            record.slot = slot
            record.claimed_at = None
            record.generation = int(jobs.header[slot, J_GEN])
            words[J_GEN] = record.generation
            words[J_JOB_ID] = record.job_id
            words[J_PROGRAM] = record.program_id
            words[J_WORKER] = -1
            jobs.publish(slot, words)
            outstanding[record.job_id] = record
            self._job_sem.release()

    def _collect(
        self, outstanding: Dict[int, _PendingJob], states: List[_BatchState]
    ) -> None:
        """Drain READY result slots; reclaim both sides of each match."""
        results = self._segments.results
        jobs = self._segments.jobs
        for slot in results.find_state(READY):
            header = results.header[slot]
            record = outstanding.get(int(header[R_JOB_ID]))
            fresh = (
                record is not None
                and record.generation == int(header[R_GEN])
            )
            if fresh:
                state = states[record.batch_index]
                try:
                    ok, value, error = decode_result(
                        header, results.data[slot]
                    )
                    result = (
                        {"ok": True, "value": value}
                        if ok
                        else {"ok": False, "error": error}
                    )
                except Exception as decode_error:
                    result = {
                        "ok": False,
                        "error": (
                            f"{type(decode_error).__name__}: {decode_error}"
                        ),
                    }
                state.transport_bytes += (
                    result_body_bytes(header) + RESULT_FIELDS * 8
                )
                self._finish(record, state, result)
                del outstanding[record.job_id]
                # Reclaim the job slot (DONE by now): bump generation.
                jobs.header[record.slot, J_GEN] = record.generation + 1
                jobs.header[record.slot, J_STATE] = FREE
            # Stale generations are dropped: their job was revoked and
            # rehomed already.  Either way the result slot frees up.
            header[R_STATE] = FREE

    def _kill_overdue_workers(self, outstanding: Dict[int, _PendingJob]) -> None:
        """Kill each worker that has held one job past ``job_timeout_s``.

        Only stamps claim times when nothing is overdue: one header
        read per still-unclaimed job, no locks, no syscalls.  The dead
        worker's slot is revoked by :meth:`_reap_dead_workers`, the
        same path a crash takes.
        """
        now = time.perf_counter()
        header = self._segments.jobs.header
        overdue = []
        for record in outstanding.values():
            if record.claimed_at is None:
                if int(header[record.slot, J_STATE]) == RUNNING:
                    record.claimed_at = now
            elif now - record.claimed_at > self.job_timeout_s:
                overdue.append(record)
        for record in overdue:
            row = header[record.slot]
            # Under the claim lock the worker cannot be stamping DONE,
            # and joining before release means it cannot die holding
            # the lock either.
            with self._job_lock:
                if (
                    int(row[J_GEN]) != record.generation
                    or int(row[J_STATE]) != RUNNING
                ):
                    continue  # finished at the last moment: let it report
                worker_id = int(row[J_WORKER])
                process = self._workers[worker_id]
                process.kill()
                process.join()
            _LOG.warning(
                "job timed out on shm transport; killed its worker",
                extra={
                    "worker": worker_id,
                    "kernel": record.kernel,
                    "attempts": record.attempts,
                },
            )

    def _reap_dead_workers(
        self,
        queue: List[_PendingJob],
        outstanding: Dict[int, _PendingJob],
        states: List[_BatchState],
    ) -> None:
        """Revoke what each dead worker was holding, then respawn it."""
        for worker_id, process in enumerate(self._workers):
            if process is None or process.is_alive():
                continue
            process.join(timeout=0)
            _LOG.warning(
                "serve worker died; requeueing its slots",
                extra={"worker": worker_id, "exitcode": process.exitcode},
            )
            # Results it published before dying are good: take them
            # first, so only the job it never reported is charged.
            self._collect(outstanding, states)
            header = self._segments.jobs.header
            victims = [
                record
                for record in outstanding.values()
                if int(header[record.slot, J_WORKER]) == worker_id
                and int(header[record.slot, J_STATE]) in (RUNNING, DONE)
                and int(header[record.slot, J_GEN]) == record.generation
            ]
            for record in victims:
                self._revoke(record, outstanding, queue, states)
            self._spawn(worker_id)
            # The dead worker may have consumed semaphore posts it never
            # acted on; overposting is harmless, missing posts hang.
            for _ in self._segments.jobs.find_state(READY):
                self._job_sem.release()

    def _revoke(
        self,
        record: _PendingJob,
        outstanding: Dict[int, _PendingJob],
        queue: List[_PendingJob],
        states: List[_BatchState],
    ) -> None:
        """Take a dead worker's job off the ring; requeue it or degrade
        it to inline.

        The generation bump makes any result the worker half-published
        for this slot stale, so it can never be accepted afterwards.
        """
        state = states[record.batch_index]
        header = self._segments.jobs.header[record.slot]
        header[J_GEN] = record.generation + 1
        header[J_STATE] = FREE
        outstanding.pop(record.job_id, None)
        record.slot = -1
        record.generation = -1
        if record.attempts <= self.max_retries:
            queue.append(record)  # republish: the resubmission path
        else:
            state.degraded = True
            self._run_inline(record, state)

    def _run_inline(self, record: _PendingJob, state: _BatchState) -> None:
        """The degradation floor for one job (always correct, serial)."""
        record.attempts += 1
        state.max_attempts = max(state.max_attempts, record.attempts)
        self._finish(
            record,
            state,
            isolated_job(run_job, record.kernel, state.compiled, record.payload),
        )

    def _finish(
        self,
        record: _PendingJob,
        state: _BatchState,
        result: Dict[str, Any],
    ) -> None:
        if state.results[record.job_index] is None:
            state.remaining -= 1
        state.results[record.job_index] = result
        if state.remaining == 0:
            state.finished = time.perf_counter()

    def _outcome(self, state: _BatchState) -> BatchOutcome:
        finished = state.finished or time.perf_counter()
        return BatchOutcome(
            batch_id=state.batch.batch_id,
            results=[
                result if result is not None else {"ok": False, "error": "lost"}
                for result in state.results
            ],
            backend="inline" if state.degraded else "shm",
            attempts=state.max_attempts,
            execute_seconds=finished - state.started,
            degraded=state.degraded,
            transport_bytes=state.transport_bytes,
        )

    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._segments is None:
            return
        self._shutdown.set()
        for process in self._workers:
            if process is None:
                continue
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        self._workers = []
        self._segments.close()
        self._segments = None
