"""Seeded crash/recovery chaos campaigns for the durable journal.

The recovery scenario of the one campaign driver
(:mod:`repro.faults.campaign`): a deterministic job stream runs through
a journaled :class:`~repro.engine.Engine` in chunks while the driver's
seeded coin ``kill -9``s it between chunks (``journal.crash()``: the
queue evaporates, everything ``append`` returned for is still on disk)
and a fresh engine over the same journal directory runs
:meth:`~repro.engine.Engine.recover`.  Injected disk faults
(:class:`repro.faults.disk.DiskFaultPlan`) tear and bit-flip journal
writes the whole way through.  This module supplies the config, the
engine factory and the projection of the driver's ledger plus the
journal's final state onto :class:`RecoveryCampaignReport`.

The ledger folds result envelopes across *all* engine generations by
job id, so the crash-restart property is checked end to end:

- **zero lost jobs** -- every job any generation accepted produced an
  envelope (pre-crash, or post-recovery via orphan resubmission);
- **zero duplicate envelopes** -- a job journaled as complete is never
  re-executed (recovery's dedupe);
- **zero duplicate completions** -- the journal itself never holds two
  ``complete`` records for one id (``durable_duplicate_completions``);
- **zero final orphans** -- the journal agrees everything accepted
  reached a terminal record;
- **the ledger closes** -- as many envelopes as accepted jobs (an
  envelope for a job this campaign never accepted fails it).

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

import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.faults.campaign import (
    DEFAULT_KERNELS,
    CanonicalReport,
    check_stream_shape,
    config_block,
    counter_fields,
    decorated_jobs,
    drive,
)
from repro.faults.disk import DiskFaultPlan
from repro.faults.plan import FaultPlan

#: Fixed engine/journal geometry every recovery campaign runs under.
BATCH_CAPACITY = 8
SEGMENT_BYTES = 1 << 16
DLQ_CAPACITY = 256
#: ``RecoveryChaosConfig`` fields the report's ``config`` block echoes
#: (never ``workdir``: reports contain no path).
_ECHOED = (
    "jobs", "seed", "kernels", "chunk_jobs", "crash_rate", "torn_rate",
    "bitflip_rate", "short_fsync_rate", "fail_rate", "fsync", "compact_every",
)
#: ``RecoveryCampaignReport`` fields fed by their ``durable`` family counter.
_COUNTED = (
    "recoveries", "orphans_resubmitted", "completions_deduped",
    "duplicate_completions", "corrupt_frames", "records_appended",
    "writes_healed", "write_errors", "compactions",
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
    #: Compact the journal after every Nth surviving chunk (0 = off).
    compact_every: int = 0
    #: Journal directory; a temp dir is created (and removed) when
    #: None.  Reports never contain the path.
    workdir: Optional[str] = None

    def __post_init__(self) -> None:
        check_stream_shape(self)
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
            segment_bytes=SEGMENT_BYTES,
            disk_faults=plan if plan.enabled else None,
        )


@dataclass
class RecoveryCampaignReport(CanonicalReport):
    """Crash-restart survival metrics (deterministic content only)."""

    config: Dict[str, Any]
    accepted: int = 0
    shed_backpressure: int = 0
    #: Jobs refused because their accept record could not be journaled
    #: (write retries exhausted, ENOSPC) -- shed, not lost.
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
        """The crash-restart property, all five clauses."""
        return (
            self.lost == 0
            and self.duplicate_envelopes == 0
            and self.duplicate_completions == 0
            and self.final_orphans == 0
            and self.envelopes == self.accepted
        )

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
    if config.workdir is not None:
        return _run(config, config.workdir)
    with tempfile.TemporaryDirectory(prefix="gendp-recover-") as workdir:
        return _run(config, workdir)


def _run(config: RecoveryChaosConfig, workdir: str) -> RecoveryCampaignReport:
    from repro.engine import Engine, EngineConfig

    jobs = decorated_jobs(
        config, FaultPlan(seed=config.seed, fail_rate=config.fail_rate)
    )
    engine_config = EngineConfig(
        max_queue=config.chunk_jobs,
        workers=config.workers,
        job_timeout_s=config.job_timeout_s,
        max_retries=config.max_retries,
        batch_capacity=BATCH_CAPACITY,
        validate_fraction=0.0,
        dlq_capacity=DLQ_CAPACITY,
        reliability_seed=config.seed,
        durability=config.durability(workdir),
    )
    ledger, (state, issues) = drive(
        lambda: Engine(engine_config),
        jobs,
        config.chunk_jobs,
        seed=config.seed,
        crash_rate=config.crash_rate,
        compact_every=config.compact_every,
        finish=lambda engine: engine.journal.load_state(),
    )
    counted = counter_fields(ledger.counters, _COUNTED, "durable")
    # Two durable_* counters are per-replay sums; the report wants the
    # journal's final word: every corrupt frame including the ones the
    # last read-only scan found, and duplicates as the journal ends up.
    counted["corrupt_frames"] += issues["corrupt_frames"]
    counted["duplicate_completions"] = state.duplicate_completions
    return RecoveryCampaignReport(
        # Read-back healing is the journal's only write path; reports
        # keep echoing it so their bytes stay comparable across versions.
        config=config_block(config, _ECHOED, verify_writes=True),
        accepted=len(ledger.accepted),
        shed_backpressure=ledger.shed_backpressure,
        shed_write_faults=ledger.shed_write_faults,
        envelopes=len(ledger.envelopes),
        lost=ledger.lost,
        duplicate_envelopes=ledger.duplicate_envelopes,
        ok=ledger.ok,
        failed=ledger.failed,
        crashes=ledger.crashes,
        dead_lettered=len(state.dead),
        dlq_rehydrated=sum(r.dlq_rehydrated for r in ledger.recoveries),
        final_orphans=len(state.orphans()),
        **counted,
    )
