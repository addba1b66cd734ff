"""Crash-consistent recovery: replay a journal into a fresh engine.

:func:`recover_engine` is the startup path after a crash or restart.
It folds the engine's journal (snapshot + segments, truncating the
torn tail), then restores the three pieces of in-memory state the
crash destroyed:

1. **Completed jobs are deduplicated.**  Any job with a terminal
   record (``complete`` or ``dead_letter``) is *not* re-executed --
   this is what makes recovery exactly-once at the accounting layer:
   after every crash/restart cycle the journal holds exactly one
   terminal record per accepted job, audited by the
   ``durable_duplicate_completions`` counter (which must stay zero).
2. **Orphans are resubmitted.**  Accepted jobs with no terminal
   record go back into the engine's queue with their original ids,
   so the envelope the caller eventually sees is indistinguishable
   from a crash-free run.  The global job-id counter is advanced past
   every journaled id first, so new work can never collide.
3. **The DLQ is rehydrated**: ``dead_letter`` records park again,
   making the dead-letter queue itself survive restarts.

The replay is traced as one ``recover:replay`` span and folded into
the ``durable_*`` counters, so a recovering process is observable
with the same tools as a healthy one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.dlq import DeadLetter
from repro.engine.jobs import Job, JobResult, advance_job_ids
from repro.obs.logs import get_logger

_LOG = get_logger("repro.durable.recovery")


@dataclass
class RecoveryReport:
    """What one journal replay found and did."""

    #: Distinct jobs with an ``accept`` record.
    accepted: int = 0
    #: Jobs with a ``complete`` record (not re-executed).
    completed: int = 0
    #: Jobs with a ``dead_letter`` record (rehydrated, not re-run).
    dead_lettered: int = 0
    #: Accepted jobs with no terminal record.
    orphans: int = 0
    #: Orphans successfully resubmitted to the engine.
    orphans_resubmitted: int = 0
    #: Accepted jobs skipped because the journal already had their
    #: terminal record (the exactly-once dedupe at work).
    completions_deduped: int = 0
    #: Second ``complete`` records seen for one id -- the audit
    #: counter; must be zero.
    duplicate_completions: int = 0
    #: Segment records folded (snapshot records excluded).
    replayed_records: int = 0
    #: Corrupt frame runs found (torn tail, bit flips).
    corrupt_frames: int = 0
    #: Bytes discarded to truncation/resync.
    skipped_bytes: int = 0
    #: Segment files scanned.
    segments: int = 0
    #: Dead letters re-parked into the DLQ.
    dlq_rehydrated: int = 0
    #: Envelopes produced by drains recovery had to run to make room
    #: while resubmitting (queue smaller than the orphan backlog).
    drained: List[JobResult] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "accepted": self.accepted,
            "completed": self.completed,
            "dead_lettered": self.dead_lettered,
            "orphans": self.orphans,
            "orphans_resubmitted": self.orphans_resubmitted,
            "completions_deduped": self.completions_deduped,
            "duplicate_completions": self.duplicate_completions,
            "replayed_records": self.replayed_records,
            "corrupt_frames": self.corrupt_frames,
            "skipped_bytes": self.skipped_bytes,
            "segments": self.segments,
            "dlq_rehydrated": self.dlq_rehydrated,
            "drained": len(self.drained),
        }


def job_from_record(record: Dict[str, Any]) -> Job:
    """Rebuild a :class:`Job` from its ``accept``/``dead_letter`` record.

    The original id is preserved (that is what makes the recovered
    envelope the *same* job); the deadline is not -- it was relative
    to the original submission, and replaying an already-expired
    deadline would expire every orphan on arrival.
    """
    return Job(
        job_id=int(record["job_id"]),
        kernel=str(record["kernel"]),
        payload=dict(record.get("payload") or {}),
        priority=int(record.get("priority", 0)),
    )


def recover_engine(engine: Any, resubmit: bool = True) -> RecoveryReport:
    """Replay *engine*'s journal; see the module docstring.

    With *resubmit* off only the state is folded and reported
    (``gendp-recover inspect/verify`` reuse this path read-only).
    """
    journal = getattr(engine, "journal", None)
    if journal is None:
        raise ValueError("engine has no journal to recover from")
    tracer = engine.tracer
    start = tracer.now() if tracer is not None else 0.0
    state, issues = journal.load_state()

    report = RecoveryReport(
        accepted=len(state.accepted),
        completed=len(state.completed),
        dead_lettered=len(state.dead),
        duplicate_completions=state.duplicate_completions,
        replayed_records=state.replayed_records,
        corrupt_frames=issues["corrupt_frames"],
        skipped_bytes=issues["skipped_bytes"],
        segments=issues["segments"],
    )
    orphan_records = state.orphans()
    report.orphans = len(orphan_records)
    report.completions_deduped = sum(
        1 for key in state.accepted if state.terminal(key)
    )

    # New ids must clear every journaled id or a recovered orphan and
    # a fresh submission could collide in the results fold.
    max_id = -1
    for key in state.accepted:
        try:
            max_id = max(max_id, int(key))
        except ValueError:
            continue  # serve-tier string keys never collide with ints
    if max_id >= 0:
        advance_job_ids(max_id + 1)

    metrics = engine.metrics
    metrics.incr("durable_recoveries")
    metrics.incr("durable_replayed_records", state.replayed_records)
    metrics.incr("durable_corrupt_frames", issues["corrupt_frames"])
    metrics.incr("durable_duplicate_completions", state.duplicate_completions)
    metrics.incr("durable_completions_deduped", report.completions_deduped)
    if issues["skipped_bytes"]:
        metrics.incr("durable_truncated_bytes", issues["skipped_bytes"])

    if resubmit:
        report.dlq_rehydrated = _rehydrate_dlq(engine, state)
        report.orphans_resubmitted = _resubmit_orphans(
            engine, orphan_records, report
        )
        metrics.incr(
            "durable_orphans_resubmitted", report.orphans_resubmitted
        )

    if tracer is not None:
        tracer.add_span(
            "recover:replay",
            start,
            tracer.now(),
            cat="durable",
            accepted=report.accepted,
            completed=report.completed,
            orphans=report.orphans,
            resubmitted=report.orphans_resubmitted,
            corrupt_frames=report.corrupt_frames,
            shard=getattr(engine, "shard", None),
        )
    _flight_dump(engine, journal, report)
    _LOG.info(
        "journal replayed",
        extra={
            "accepted": report.accepted,
            "completed": report.completed,
            "orphans": report.orphans,
            "resubmitted": report.orphans_resubmitted,
        },
    )
    return report


def _flight_dump(engine: Any, journal: Any, report: RecoveryReport) -> None:
    """Black-box the replay beside the journal it recovered from.

    A recovery means the previous process died; the flight ring holds
    that process's successor context plus the replay spans, and the
    report pins what the journal said.  The dump lands in
    ``<journal_dir>/blackbox/`` so the forensics travel with the data
    they explain.  Best-effort: a dump failure never fails recovery.
    """
    flight = getattr(engine, "flight", None)
    dir_path = getattr(journal, "dir_path", None)
    if flight is None or not dir_path:
        return
    import os

    try:
        # Fold the post-replay counter state into the ring first, so
        # even a fresh process's box carries what the engine knew.
        counters = getattr(getattr(engine, "metrics", None), "counters", None)
        if counters:
            flight.note_counters(counters)
        flight.dump(
            "recovery",
            dir_path=os.path.join(dir_path, "blackbox"),
            **report.to_dict(),
        )
    except Exception:
        pass


def _rehydrate_dlq(engine: Any, state: Any) -> int:
    """Re-park journaled dead letters into the engine's DLQ."""
    dlq = getattr(engine, "_dlq", None)
    if dlq is None or not state.dead:
        return 0
    rehydrated = 0
    for key in sorted(
        state.dead, key=lambda k: state.dead[k].get("seq", 0)
    ):
        record = state.dead[key]
        accept = state.accepted.get(key)
        if accept is None or "payload" not in accept:
            continue  # compaction shed the payload; nothing to replay
        job = job_from_record(accept)
        if dlq.push(
            job,
            str(record.get("error") or "unknown"),
            int(record.get("attempts", 1)),
        ):
            rehydrated += 1
            engine.metrics.incr("dead_letters")
    return rehydrated


def _resubmit_orphans(
    engine: Any, orphan_records: List[Dict[str, Any]], report: RecoveryReport
) -> int:
    """Resubmit orphans, draining when the queue fills mid-replay."""
    from repro.engine.service import BackpressureError

    resubmitted = 0
    for record in orphan_records:
        try:
            job = job_from_record(record)
        except (KeyError, TypeError, ValueError):
            _LOG.warning(
                "orphan record unusable", extra={"record": str(record)[:200]}
            )
            continue
        for _attempt in range(2):
            try:
                engine.submit(job)
                resubmitted += 1
                break
            except BackpressureError:
                # The backlog outgrew the queue: deliver what is
                # queued, then retry this orphan once.
                report.drained.extend(engine.drain())
            except (OSError, RuntimeError):
                # The accept re-write faulted (an injected disk
                # fault).  The orphan's original record is still
                # journaled, so the next recovery picks it up.
                break
    return resubmitted
