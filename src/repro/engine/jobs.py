"""Typed job records and result envelopes for the execution engine.

A :class:`Job` is one independent DP task: a kernel name plus the
kernel-specific payload (sequences, signals or anchors), with optional
priority and deadline.  A :class:`JobResult` carries the kernel output
back along with the execution provenance the metrics and tests care
about: which batch ran it, whether the compiled program came from the
cache, how many attempts the executor needed, and the per-stage
timings.

Payloads are plain JSON-able dicts so job streams can be read from spec
files (``gendp-batch --spec jobs.json``) and shipped to worker
processes without custom pickling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.engine.kernels import KERNELS

#: Kernels the engine can execute: the rows of
#: :data:`repro.engine.kernels.KERNELS`, in table order.
ENGINE_KERNELS = tuple(KERNELS)

#: Table dimensionality per kernel (see ``EngineKernel.dimensions``).
KERNEL_DIMENSIONS: Dict[str, int] = {
    name: row.dimensions for name, row in KERNELS.items()
}

_job_ids = itertools.count()


def advance_job_ids(minimum: int) -> int:
    """Ensure freshly minted job ids start at or above *minimum*.

    Recovery (:mod:`repro.durable.recovery`) calls this with one past
    the highest journaled id before resubmitting orphans, so a
    recovered job and a brand-new submission can never share an id.
    Returns the next id that will be issued.
    """
    global _job_ids
    current = next(_job_ids)  # peek by consuming; re-issued below
    nxt = max(current, minimum)
    _job_ids = itertools.count(nxt)
    return nxt


class JobValidationError(ValueError):
    """Raised for unknown kernels or malformed payloads."""


@dataclass(frozen=True)
class Job:
    """One DP task submitted to the engine."""

    job_id: int
    kernel: str
    payload: Dict[str, Any]
    #: Higher priorities dispatch first within a drain.
    priority: int = 0
    #: Seconds after submission by which the job must *start*; jobs
    #: still queued past the deadline fail with ``deadline-expired``.
    #: ``0`` means expire-immediately (admitted but never executed --
    #: the probe a load-shedding caller uses); negatives are rejected
    #: at construction.
    deadline_s: Optional[float] = None
    #: Engine-stamped submission time (time.monotonic()).
    submitted_at: float = 0.0


@dataclass
class JobResult:
    """The engine's answer for one job."""

    job_id: int
    kernel: str
    ok: bool
    #: Kernel outputs (see runners) when ok, else None.
    value: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    batch_id: Optional[int] = None
    #: True when the compiled program was a cache hit for this job.
    cache_hit: bool = False
    #: Executor attempts (1 = first try; >1 means retries happened).
    attempts: int = 1
    #: "shm" (worker processes), "inline" or "reference" -- which
    #: backend finally ran the batch.
    backend: str = "inline"
    #: Per-stage seconds: queue_wait, compile, execute.
    timings: Dict[str, float] = field(default_factory=dict)
    #: Cluster shard that produced this envelope (None outside a
    #: :mod:`repro.cluster` deployment).
    shard: Optional[str] = None


def validate_payload(kernel: str, payload: Dict[str, Any]) -> None:
    """Check *payload* has the keys and shapes *kernel*'s row asks for."""
    row = KERNELS.get(kernel)
    if row is None:
        raise JobValidationError(
            f"unknown kernel {kernel!r}; engine kernels: {ENGINE_KERNELS}"
        )
    if not isinstance(payload, dict):
        raise JobValidationError("payload must be a dict")
    for key in row.keys:
        value = payload.get(key)
        if value is None or (hasattr(value, "__len__") and len(value) == 0):
            raise JobValidationError(
                f"{kernel} payload needs non-empty {key!r}"
            )
        if not row.codec.is_valid(value):
            raise JobValidationError(
                f"{kernel} payload {key!r} must be {row.codec.expects}"
            )
    for key, (expects, is_valid) in row.optional.items():
        if key in payload and not is_valid(payload[key]):
            raise JobValidationError(f"{kernel} payload {key!r} must be {expects}")


def validate_deadline(deadline_s: Optional[float]) -> Optional[float]:
    """Normalize a deadline: None passes, finite >= 0 floats pass,
    everything else (negatives, NaN, non-numbers) is rejected."""
    if deadline_s is None:
        return None
    try:
        value = float(deadline_s)
    except (TypeError, ValueError):
        raise JobValidationError(
            f"deadline_s must be a number of seconds, got {deadline_s!r}"
        )
    if value != value or value < 0:  # NaN or negative
        raise JobValidationError(
            f"deadline_s must be >= 0 (0 = expire immediately), got {deadline_s!r}"
        )
    return value


def make_job(
    kernel: str,
    payload: Dict[str, Any],
    priority: int = 0,
    deadline_s: Optional[float] = None,
) -> Job:
    """Validate and wrap a payload as a :class:`Job` with a fresh id."""
    validate_payload(kernel, payload)
    deadline_s = validate_deadline(deadline_s)
    return Job(
        job_id=next(_job_ids),
        kernel=kernel,
        payload=payload,
        priority=priority,
        deadline_s=deadline_s,
    )
