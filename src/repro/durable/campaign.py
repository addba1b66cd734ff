"""Seeded crash/recovery chaos campaigns for the durable journal.

The campaign is :mod:`repro.faults.chaos` pointed at the durability
layer: a deterministic job stream runs through a journaled
:class:`~repro.engine.Engine` in chunks, and between chunks a seeded
coin decides whether the process "dies" (``journal.crash()`` -- the
``kill -9`` model: the file handle drops without syncing, the
in-memory queue evaporates, everything ``append`` returned for is
still on disk).  A fresh engine over the same journal directory then
runs :meth:`~repro.engine.Engine.recover`, and the stream continues.
Injected disk faults (:class:`repro.faults.disk.DiskFaultPlan`) tear
and bit-flip journal writes the whole way through.

The report folds result envelopes across *all* engine generations by
job id, so the crash-restart property is checked end to end:

- **zero lost jobs** -- every job any generation accepted produced an
  envelope (pre-crash, or post-recovery via orphan resubmission);
- **zero duplicate envelopes** -- a job journaled as complete is never
  re-executed (recovery's dedupe);
- **zero duplicate completions** -- the journal itself never holds two
  ``complete`` records for one id (``durable_duplicate_completions``);
- **zero final orphans** -- the journal agrees everything accepted
  reached a terminal record.

Like :class:`~repro.faults.chaos.CampaignReport`, the report contains
only counts and names -- no timings, paths or ids -- so two campaigns
with the same config are byte-identical (the CI recovery smoke
asserts exactly this).  Time-dependent state (``durable_syncs`` under
the ``interval`` policy) is deliberately excluded.  Power-loss
semantics (losing *synced-but-lied-about* bytes) are exercised by the
unit tests via :meth:`~repro.durable.journal.Journal.simulate_power_loss`;
the campaign models process death, where the page cache survives.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.chaos import DEFAULT_KERNELS, synthesize_stream
from repro.faults.disk import DiskFaultPlan
from repro.faults.plan import FaultPlan, unit_draw
from repro.obs.logs import get_logger, log_context

_LOG = get_logger("repro.durable.campaign")

#: Engine-generation counters the report accumulates (each engine has
#: its own registry; the campaign sums them across crashes).
_HARVEST_COUNTERS = (
    "durable_records_appended",
    "durable_writes_healed",
    "durable_write_errors",
    "durable_compactions",
)


@dataclass(frozen=True)
class RecoveryChaosConfig:
    """One recovery campaign's worth of knobs (all deterministic)."""

    jobs: int = 120
    seed: int = 0
    kernels: Tuple[str, ...] = DEFAULT_KERNELS
    workers: int = 1
    #: Jobs submitted per drain; also the engine's queue bound.
    chunk_jobs: int = 24
    batch_capacity: int = 8
    job_timeout_s: float = 0.15
    max_retries: int = 1
    #: Per-chunk probability the process crashes after submitting the
    #: chunk (queue full, nothing drained -- the worst moment).
    crash_rate: float = 0.25
    #: Per-write disk-fault probabilities (see DiskFaultPlan).
    torn_rate: float = 0.05
    bitflip_rate: float = 0.05
    short_fsync_rate: float = 0.0
    #: Per-job engine-level failure injection (exercises the
    #: dead-letter journaling + rehydration path).
    fail_rate: float = 0.0
    fsync: str = "interval"
    segment_bytes: int = 1 << 16
    #: Read-back verification heals torn/flipped writes in-process;
    #: turning it off sheds accept-faulted jobs instead (still
    #: crash-consistent, no longer loss-free on the write path).
    verify_writes: bool = True
    #: Compact the journal after every Nth surviving chunk (0 = off).
    compact_every: int = 0
    dlq_capacity: int = 256
    #: Journal directory; a temp dir is created (and removed) when
    #: None.  Reports never contain the path.
    workdir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs <= 0:
            raise ValueError("jobs must be positive")
        if not self.kernels:
            raise ValueError("kernels must name at least one engine kernel")
        if self.chunk_jobs <= 0:
            raise ValueError("chunk_jobs must be positive")
        if not 0.0 <= self.crash_rate <= 1.0:
            raise ValueError("crash_rate must be in [0, 1]")
        if self.compact_every < 0:
            raise ValueError("compact_every must be non-negative")
        self.disk_plan()  # validates the disk-fault rates eagerly

    def disk_plan(self) -> DiskFaultPlan:
        """The disk-fault schedule this config implies."""
        return DiskFaultPlan(
            seed=self.seed,
            torn_rate=self.torn_rate,
            bitflip_rate=self.bitflip_rate,
            short_fsync_rate=self.short_fsync_rate,
        )

    def durability(self, dir_path: str):
        """The :class:`DurabilityConfig` each engine generation uses."""
        from repro.durable.journal import DurabilityConfig

        plan = self.disk_plan()
        return DurabilityConfig(
            dir_path=dir_path,
            fsync=self.fsync,
            segment_bytes=self.segment_bytes,
            verify_writes=self.verify_writes,
            disk_faults=plan if plan.enabled else None,
        )


@dataclass
class RecoveryCampaignReport:
    """Crash-restart survival metrics (deterministic content only)."""

    config: Dict[str, Any]
    accepted: int = 0
    shed_backpressure: int = 0
    #: Jobs refused because their accept record could not be journaled
    #: (torn write with verification off, ENOSPC) -- shed, not lost.
    shed_write_faults: int = 0
    envelopes: int = 0
    lost: int = 0
    duplicate_envelopes: int = 0
    ok: int = 0
    failed: int = 0
    crashes: int = 0
    recoveries: int = 0
    orphans_resubmitted: int = 0
    completions_deduped: int = 0
    duplicate_completions: int = 0
    dead_lettered: int = 0
    dlq_rehydrated: int = 0
    corrupt_frames: int = 0
    final_orphans: int = 0
    records_appended: int = 0
    writes_healed: int = 0
    write_errors: int = 0
    compactions: int = 0

    @property
    def survived(self) -> bool:
        """The crash-restart property, all four clauses."""
        return (
            self.lost == 0
            and self.duplicate_envelopes == 0
            and self.duplicate_completions == 0
            and self.final_orphans == 0
        )

    def to_dict(self) -> Dict[str, Any]:
        """A plain, JSON-able, run-to-run-identical report."""
        return {
            "config": dict(self.config),
            "accepted": self.accepted,
            "shed_backpressure": self.shed_backpressure,
            "shed_write_faults": self.shed_write_faults,
            "envelopes": self.envelopes,
            "lost": self.lost,
            "duplicate_envelopes": self.duplicate_envelopes,
            "ok": self.ok,
            "failed": self.failed,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "orphans_resubmitted": self.orphans_resubmitted,
            "completions_deduped": self.completions_deduped,
            "duplicate_completions": self.duplicate_completions,
            "dead_lettered": self.dead_lettered,
            "dlq_rehydrated": self.dlq_rehydrated,
            "corrupt_frames": self.corrupt_frames,
            "final_orphans": self.final_orphans,
            "records_appended": self.records_appended,
            "writes_healed": self.writes_healed,
            "write_errors": self.write_errors,
            "compactions": self.compactions,
            "survived": self.survived,
        }

    def render(self) -> str:
        """Human-readable campaign summary."""
        lines = [
            "gendp-recover: crash/recovery campaign report",
            f"  jobs accepted       : {self.accepted} "
            f"(+{self.shed_backpressure} shed by backpressure, "
            f"+{self.shed_write_faults} shed by write faults)",
            f"  crashes injected    : {self.crashes} "
            f"({self.recoveries} recoveries, "
            f"{self.orphans_resubmitted} orphans resubmitted)",
            f"  result envelopes    : {self.envelopes} "
            f"({self.ok} ok, {self.failed} failed)",
            f"  jobs lost           : {self.lost}",
            f"  duplicate envelopes : {self.duplicate_envelopes}",
            f"  journal             : {self.records_appended} records, "
            f"{self.writes_healed} writes healed, "
            f"{self.corrupt_frames} corrupt frames, "
            f"{self.compactions} compactions",
            f"  exactly-once audit  : "
            f"{self.duplicate_completions} duplicate completions, "
            f"{self.completions_deduped} deduped, "
            f"{self.final_orphans} final orphans",
            f"  dead letters        : {self.dead_lettered} journaled, "
            f"{self.dlq_rehydrated} rehydrated after crashes",
            f"  verdict             : "
            f"{'SURVIVED' if self.survived else 'FAILED'}",
        ]
        return "\n".join(lines)


def run_recovery_campaign(
    config: Optional[RecoveryChaosConfig] = None,
) -> RecoveryCampaignReport:
    """Run one seeded crash/recovery campaign and return its report."""
    config = config or RecoveryChaosConfig()
    workdir = config.workdir
    created = workdir is None
    if created:
        workdir = tempfile.mkdtemp(prefix="gendp-recover-")
    try:
        with log_context(campaign_seed=config.seed):
            return _run(config, workdir)
    finally:
        if created:
            shutil.rmtree(workdir, ignore_errors=True)


def _run(config: RecoveryChaosConfig, workdir: str) -> RecoveryCampaignReport:
    from repro.engine import BackpressureError, Engine, EngineConfig
    from repro.engine.jobs import make_job
    from repro.durable.journal import JournalError, load_journal_state

    fault_plan = FaultPlan(seed=config.seed, fail_rate=config.fail_rate)
    stream = synthesize_stream(config)  # duck-typed: jobs/seed/kernels
    jobs = []
    for index, (kernel, payload) in enumerate(stream):
        payload, _kind = fault_plan.decorate(index, payload)
        jobs.append(make_job(kernel, payload))

    def fresh_engine() -> Engine:
        return Engine(
            EngineConfig(
                max_queue=config.chunk_jobs,
                workers=config.workers,
                job_timeout_s=config.job_timeout_s,
                max_retries=config.max_retries,
                batch_capacity=config.batch_capacity,
                validate_fraction=0.0,
                dlq_capacity=config.dlq_capacity,
                reliability_seed=config.seed,
                durability=config.durability(workdir),
            )
        )

    report = RecoveryCampaignReport(
        config={
            "jobs": config.jobs,
            "seed": config.seed,
            "kernels": list(config.kernels),
            "chunk_jobs": config.chunk_jobs,
            "crash_rate": config.crash_rate,
            "torn_rate": config.torn_rate,
            "bitflip_rate": config.bitflip_rate,
            "short_fsync_rate": config.short_fsync_rate,
            "fail_rate": config.fail_rate,
            "fsync": config.fsync,
            "verify_writes": config.verify_writes,
            "compact_every": config.compact_every,
        }
    )
    accepted_ids = set()
    envelopes: Dict[int, Any] = {}

    def fold(results: List[Any]) -> None:
        for result in results:
            if result.job_id in envelopes:
                report.duplicate_envelopes += 1
                continue
            envelopes[result.job_id] = result

    def harvest(engine: Engine) -> None:
        report.records_appended += engine.metrics.counter(
            _HARVEST_COUNTERS[0]
        )
        report.writes_healed += engine.metrics.counter(_HARVEST_COUNTERS[1])
        report.write_errors += engine.metrics.counter(_HARVEST_COUNTERS[2])
        report.compactions += engine.metrics.counter(_HARVEST_COUNTERS[3])

    _LOG.info(
        "recovery campaign started",
        extra={
            "campaign_seed": config.seed,
            "campaign_jobs": config.jobs,
            "crash_rate": config.crash_rate,
        },
    )
    engine = fresh_engine()
    chunks = [
        jobs[start : start + config.chunk_jobs]
        for start in range(0, len(jobs), config.chunk_jobs)
    ]
    survived_chunks = 0
    for chunk_index, chunk in enumerate(chunks):
        for job in chunk:
            try:
                accepted = engine.submit(job)
            except BackpressureError:
                report.shed_backpressure += 1
                continue
            except (JournalError, OSError):
                report.shed_write_faults += 1
                continue
            accepted_ids.add(accepted.job_id)
        if unit_draw(config.seed, "crash", chunk_index) < config.crash_rate:
            # kill -9 after accepting a full chunk: the queue dies
            # with the process, the journal keeps its page cache.
            report.crashes += 1
            engine.journal.crash()
            harvest(engine)
            engine.close()
            engine = fresh_engine()
            recovery = engine.recover()
            report.recoveries += 1
            report.orphans_resubmitted += recovery.orphans_resubmitted
            report.completions_deduped += recovery.completions_deduped
            report.dlq_rehydrated += recovery.dlq_rehydrated
            report.corrupt_frames += recovery.corrupt_frames
            fold(recovery.drained)
        else:
            survived_chunks += 1
            if (
                config.compact_every
                and survived_chunks % config.compact_every == 0
            ):
                engine.journal.compact()
        fold(engine.drain())

    fold(engine.drain())

    # Closing sweep: an orphan can outlive the loop when its resubmit
    # write faulted during a recovery; a clean restart finishes it.
    for _sweep in range(2):
        state, _issues = load_journal_state(workdir)
        if not state.orphans():
            break
        harvest(engine)
        engine.close()
        engine = fresh_engine()
        recovery = engine.recover()
        report.recoveries += 1
        report.orphans_resubmitted += recovery.orphans_resubmitted
        report.completions_deduped += recovery.completions_deduped
        report.dlq_rehydrated += recovery.dlq_rehydrated
        report.corrupt_frames += recovery.corrupt_frames
        fold(recovery.drained)
        fold(engine.drain())

    harvest(engine)
    state, issues = load_journal_state(workdir)
    report.duplicate_completions = state.duplicate_completions
    report.dead_lettered = len(state.dead)
    report.final_orphans = len(state.orphans())
    report.corrupt_frames += issues["corrupt_frames"]
    engine.close()

    report.accepted = len(accepted_ids)
    report.envelopes = len(envelopes)
    report.lost = len(accepted_ids - set(envelopes))
    for result in envelopes.values():
        if result.ok:
            report.ok += 1
        else:
            report.failed += 1
    _LOG.info(
        "recovery campaign complete",
        extra={
            "campaign_seed": config.seed,
            "accepted": report.accepted,
            "crashes": report.crashes,
            "lost": report.lost,
            "duplicates": report.duplicate_envelopes,
        },
    )
    return report
