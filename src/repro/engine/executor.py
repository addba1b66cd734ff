"""Batch execution backends: in-process, or warm shared-memory workers.

Two executors run a drain's batches, and both run every job through
:func:`isolated_job`, so results are byte-identical between them:

- :class:`InlineExecutor` -- serial, in this process: the
  always-available floor, and what ``workers=0`` selects;
- :class:`repro.serve.transport.ShmExecutor` -- persistent forked
  workers fed over shared-memory rings, programs broadcast once: what
  ``workers=N`` or a ``TransportConfig(backend="shm")`` selects.  It
  runs at most N workers, forked at the first batch that needs one;
  a batch of small jobs (``INLINE_MAX_BIN``) runs inline, in the
  drain thread.

They share one failure contract:

- a job that raises stays *inside* its batch as a per-job error;
- a job whose worker dies, or holds it longer than ``job_timeout_s``
  (the worker is then killed), is retried up to ``max_retries`` times
  on a fresh worker and after that runs in-process, marking its batch
  ``degraded``;
- only the job a worker was holding is charged the attempt: jobs
  queued behind a dead or hung worker ride along for free;
- a transport that cannot be set up at all (restricted sandboxes
  without semaphores or shared memory) degrades the whole executor to
  inline;
- a batch the shm executor runs inline by size gets no timeout kill
  and no retry: its cell count is its only bound.

``BatchOutcome.attempts`` counts actual executions of the batch's most
retried job (worker attempts plus the final inline run when it
degraded) -- never phantom attempts that a dead worker prevented.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.batcher import Batch
from repro.engine.cache import CompiledProgram


@dataclass
class BatchOutcome:
    """How one batch execution went, job results included."""

    batch_id: int
    #: Per-job dicts: {"ok": bool, "value": ..., "error": ...}.
    results: List[Dict[str, Any]]
    backend: str  # "shm" or "inline"
    attempts: int = 1
    execute_seconds: float = 0.0
    #: Set when workers failed and in-process execution saved the batch.
    degraded: bool = False
    #: Bytes moved across the process boundary for this batch (shm:
    #: slot headers + SoA bodies + amortized program broadcasts;
    #: inline: 0).
    transport_bytes: int = 0


def isolated_job(run: Callable[..., Any], *args: Any) -> Dict[str, Any]:
    """``run(*args)`` as a per-job result envelope; never raises.

    The one job-isolation seam: the inline executor, the shm workers
    and the shm degradation floor all report a job through it.
    """
    try:
        return {"ok": True, "value": run(*args)}
    except Exception as error:
        return {"ok": False, "error": f"{type(error).__name__}: {error}"}


def execute_batch_payloads(
    kernel: str,
    compiled: CompiledProgram,
    payloads: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Run every payload of one batch; never raises for per-job errors."""
    from repro.engine.runners import run_job

    return [isolated_job(run_job, kernel, compiled, payload) for payload in payloads]


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

    def close(self) -> None:  # symmetry with ShmExecutor
        pass


def make_executor(
    workers: int,
    job_timeout_s: float = 30.0,
    max_retries: int = 1,
    transport: Optional[object] = None,
    programs: Sequence[CompiledProgram] = (),
):
    """Build the engine's execution backend.

    *transport* (a :class:`repro.serve.transport.TransportConfig`)
    rules when set; without it ``workers > 0`` means at most that
    many warm shm workers on the default ring geometry, and
    ``workers <= 0`` means inline.  *programs* are broadcast before
    any worker starts.
    """
    if transport is None and workers <= 0:
        return InlineExecutor()
    # Imported lazily: the serve package depends on this module, and an
    # inline engine never pays for numpy or multiprocessing.
    from repro.serve.transport import ShmExecutor, TransportConfig

    if transport is None:
        transport = TransportConfig(workers=workers)
    if transport.backend == "inline":
        return InlineExecutor()
    return ShmExecutor(
        transport,
        job_timeout_s=job_timeout_s,
        max_retries=max_retries,
        programs=programs,
    )
