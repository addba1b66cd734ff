"""Batch execution backends: process pool with inline fallback.

The pool backend mirrors the tile's task parallelism on host cores:
each batch is one pool task, all batches of a drain are submitted
before any is collected, and ``concurrent.futures`` overlaps them
across workers.  Failure handling is layered:

- a job that raises stays *inside* its batch as a per-job error;
- a batch whose worker dies or times out is retried up to
  ``max_retries`` times -- with exponential backoff and deterministic
  jitter when ``retry_backoff_s`` is set -- then degrades to
  in-process execution;
- a dead worker poisons the whole pool, so every failure replaces the
  pool **and resubmits every still-pending batch of the drain** on the
  fresh one; innocent batches are not charged an attempt and do not
  fail serially behind the one that died;
- a pool that cannot be created at all (restricted sandboxes without
  semaphores, ``workers=0``) degrades the whole executor to inline.

Inline execution is the always-available floor: same results, no
parallelism, which is also what CI's most restricted runners get.
``BatchOutcome.attempts`` counts actual executions of the batch
payloads (pool attempts plus the final inline run when degradation
happened) -- never phantom attempts that a dead pool prevented.
"""

from __future__ import annotations

import pickle
import random
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.batcher import Batch
from repro.engine.cache import CompiledProgram
from repro.obs.logs import get_logger

_LOG = get_logger("repro.engine.executor")


@dataclass
class BatchOutcome:
    """How one batch execution went, job results included."""

    batch_id: int
    #: Per-job dicts: {"ok": bool, "value": ..., "error": ...}.
    results: List[Dict[str, Any]]
    backend: str  # "pool", "shm" or "inline"
    attempts: int = 1
    execute_seconds: float = 0.0
    #: Set when the pool path failed and inline execution saved the batch.
    degraded: bool = False
    #: Bytes serialized across the process boundary for this batch
    #: (pickle: payloads + compiled program; shm: slot headers + SoA
    #: bodies + amortized program broadcasts; inline: 0).
    transport_bytes: int = 0


def execute_batch_payloads(
    kernel: str,
    compiled: CompiledProgram,
    payloads: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Run every payload of one batch; never raises for per-job errors.

    Module-level so the process pool can pickle it by reference.
    """
    from repro.engine.runners import run_job

    results: List[Dict[str, Any]] = []
    for payload in payloads:
        try:
            results.append({"ok": True, "value": run_job(kernel, compiled, payload)})
        except Exception as error:  # job-level isolation
            results.append(
                {"ok": False, "error": f"{type(error).__name__}: {error}"}
            )
    return results


class InlineExecutor:
    """Serial in-process execution -- the degradation floor."""

    backend = "inline"

    def run_batches(
        self, items: Sequence[Tuple[Batch, CompiledProgram]]
    ) -> List[BatchOutcome]:
        outcomes = []
        for batch, compiled in items:
            started = time.perf_counter()
            results = execute_batch_payloads(
                batch.kernel, compiled, [job.payload for job in batch.jobs]
            )
            outcomes.append(
                BatchOutcome(
                    batch_id=batch.batch_id,
                    results=results,
                    backend="inline",
                    execute_seconds=time.perf_counter() - started,
                )
            )
        return outcomes

    def close(self) -> None:  # symmetry with PoolExecutor
        pass


@dataclass
class _Flight:
    """One batch in flight on the pool (mutated across retries)."""

    batch: Batch
    compiled: CompiledProgram
    future: object
    started: float
    attempts: int = 1
    #: Pickled bytes shipped to the pool across all attempts.
    transport_bytes: int = 0


class PoolExecutor:
    """Process-pool execution with bounded retry and inline fallback."""

    backend = "pool"

    def __init__(
        self,
        workers: int,
        job_timeout_s: float = 30.0,
        max_retries: int = 1,
        retry_backoff_s: float = 0.0,
        jitter_seed: int = 0,
    ):
        if workers <= 0:
            raise ValueError("PoolExecutor needs at least one worker")
        if job_timeout_s <= 0:
            raise ValueError("job timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        self.workers = workers
        self.job_timeout_s = job_timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self._jitter = random.Random(jitter_seed)
        self._pool = None
        self._pool_broken = False
        self._inline = InlineExecutor()
        #: Pickled size of each compiled program (keyed by program
        #: hash): the pool re-pickles the program with *every* task, so
        #: this is per-submit transport cost, measured once.
        self._program_pickle_bytes: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def _ensure_pool(self):
        """Create the pool lazily; flag permanent failure once."""
        if self._pool is None and not self._pool_broken:
            try:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            except Exception:
                # No semaphores / fork support: stay inline forever.
                self._pool_broken = True
                _LOG.warning(
                    "process pool unavailable; degrading to inline execution"
                )
        return self._pool

    def _recreate_pool(self) -> None:
        """Replace a broken pool (dead worker poisons the whole pool)."""
        if self._pool is not None:
            try:
                self._pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._pool = None

    def _backoff_delay(self, failed_attempts: int) -> float:
        """Exponential backoff with jitter in [0.5x, 1.0x) of the step."""
        if self.retry_backoff_s <= 0:
            return 0.0
        step = self.retry_backoff_s * (2 ** (failed_attempts - 1))
        return step * (0.5 + 0.5 * self._jitter.random())

    def _measure_submit(self, flight: _Flight) -> None:
        """Charge one submit's pickled bytes to the flight.

        ``concurrent.futures`` pickles ``(kernel, program, payloads)``
        for every task, so each attempt pays the program again; the
        program's size is measured once per distinct program and the
        (small) payload list per submit.
        """
        key = flight.compiled.program_hash
        program_bytes = self._program_pickle_bytes.get(key)
        if program_bytes is None:
            program_bytes = len(
                pickle.dumps(flight.compiled, protocol=pickle.HIGHEST_PROTOCOL)
            )
            self._program_pickle_bytes[key] = program_bytes
        payloads = [job.payload for job in flight.batch.jobs]
        flight.transport_bytes += program_bytes + len(
            pickle.dumps(payloads, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def _submit(self, pool, flight: _Flight) -> None:
        self._measure_submit(flight)
        flight.started = time.perf_counter()
        try:
            flight.future = pool.submit(
                execute_batch_payloads,
                flight.batch.kernel,
                flight.compiled,
                [job.payload for job in flight.batch.jobs],
            )
        except RuntimeError as error:
            # A worker died under an earlier flight of this drain and
            # broke the pool before this one got in (a crash in the
            # first microseconds of a batch wins that race).  That is
            # this batch failing on the pool like the ones already in
            # it: _collect fails it over with the rest.
            flight.future = Future()
            flight.future.set_exception(error)

    def _failover(
        self, flights: List[_Flight], index: int, retry_self: bool
    ) -> Optional[object]:
        """Replace the pool after a failure at *index*.

        Resubmits the failed flight (when it still has retry budget,
        charging it one attempt after the backoff delay) and every
        later flight that has no successful result yet -- those ride
        along for free, because the failure was not theirs.
        """
        self._recreate_pool()
        pool = self._ensure_pool()
        if pool is None:
            return None
        flight = flights[index]
        if retry_self:
            delay = self._backoff_delay(flight.attempts)
            if delay > 0:
                time.sleep(delay)
            flight.attempts += 1
            self._submit(pool, flight)
        for other in flights[index + 1 :]:
            future = other.future
            settled = future.done()
            if settled:
                try:
                    settled = future.exception(timeout=0) is None
                except Exception:  # cancelled or raced
                    settled = False
            if settled:
                continue  # its result survived the pool; keep it
            future.cancel()
            self._submit(pool, other)
        return pool

    def run_batches(
        self, items: Sequence[Tuple[Batch, CompiledProgram]]
    ) -> List[BatchOutcome]:
        pool = self._ensure_pool()
        if pool is None:
            outcomes = self._inline.run_batches(items)
            for outcome in outcomes:
                outcome.degraded = True
            return outcomes

        flights = []
        for batch, compiled in items:
            flight = _Flight(
                batch=batch, compiled=compiled, future=None, started=0.0
            )
            self._submit(pool, flight)
            flights.append(flight)
        return [self._collect(flights, i) for i in range(len(flights))]

    def _collect(self, flights: List[_Flight], index: int) -> BatchOutcome:
        """Wait for one batch, retrying and degrading as needed."""
        flight = flights[index]
        timeout = self.job_timeout_s * max(1, len(flight.batch.jobs))
        while True:
            try:
                results = flight.future.result(timeout=timeout)
                return BatchOutcome(
                    batch_id=flight.batch.batch_id,
                    results=results,
                    backend="pool",
                    attempts=flight.attempts,
                    execute_seconds=time.perf_counter() - flight.started,
                    transport_bytes=flight.transport_bytes,
                )
            except Exception:
                flight.future.cancel()
                retry_self = flight.attempts <= self.max_retries
                _LOG.warning(
                    "batch failed on pool",
                    extra={
                        "batch_id": flight.batch.batch_id,
                        "kernel": flight.batch.kernel,
                        "attempts": flight.attempts,
                        "retrying": retry_self,
                    },
                )
                pool = self._failover(flights, index, retry_self)
                if not retry_self or pool is None:
                    break
        # Retries exhausted (or the pool died for good): run inline.
        _LOG.warning(
            "batch degraded to inline",
            extra={
                "batch_id": flight.batch.batch_id,
                "kernel": flight.batch.kernel,
                "attempts": flight.attempts,
            },
        )
        inline_started = time.perf_counter()
        results = execute_batch_payloads(
            flight.batch.kernel,
            flight.compiled,
            [job.payload for job in flight.batch.jobs],
        )
        return BatchOutcome(
            batch_id=flight.batch.batch_id,
            results=results,
            backend="inline",
            attempts=flight.attempts + 1,
            execute_seconds=time.perf_counter() - inline_started,
            degraded=True,
            transport_bytes=flight.transport_bytes,
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


def make_executor(
    workers: int,
    job_timeout_s: float = 30.0,
    max_retries: int = 1,
    retry_backoff_s: float = 0.0,
    jitter_seed: int = 0,
    transport: Optional[object] = None,
):
    """Build the engine's execution backend.

    *transport* (a :class:`repro.serve.transport.TransportConfig`)
    takes precedence when set: it selects inline, the pickling pool, or
    the shared-memory ring executor, all byte-identical in results.
    Without it, ``workers <= 0`` selects inline and anything else the
    pool -- the original seam, untouched for existing callers.
    """
    if transport is not None:
        if transport.backend == "inline":
            return InlineExecutor()
        if transport.backend == "shm":
            # Imported lazily: the serve package depends on this module.
            from repro.serve.transport import ShmExecutor

            return ShmExecutor(
                transport,
                job_timeout_s=job_timeout_s,
                max_retries=max_retries,
            )
        workers = transport.workers  # "pickle": the classic pool below
    if workers <= 0:
        return InlineExecutor()
    return PoolExecutor(
        workers=workers,
        job_timeout_s=job_timeout_s,
        max_retries=max_retries,
        retry_backoff_s=retry_backoff_s,
        jitter_seed=jitter_seed,
    )
