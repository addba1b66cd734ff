"""Seeded chaos campaigns against the serving engine.

The engine scenario of the one campaign driver
(:mod:`repro.faults.campaign`): a deterministic mixed job stream,
decorated with a :class:`~repro.faults.plan.FaultPlan`, runs through a
real :class:`~repro.engine.Engine` in chunks (with optional
queue-pressure bursts), the dead-letter queue is replayed, and every
surviving result is audited against the reference kernels.  This module
supplies the config, the engine factory and the projection of the
driver's ledger onto :class:`CampaignReport`, whose
:meth:`~CampaignReport.to_dict` contains **only counts and names** --
no timings, ids or machine state -- so two campaigns with the same
config produce byte-identical reports, which is the contract the CI
chaos smoke asserts.

Survival criteria (``report.survived``):

- **zero lost jobs** -- every job the engine accepted produced exactly
  one result envelope (rejected-by-backpressure jobs are *shed*, not
  lost, and are counted separately);
- **zero corruption escapes** -- no ``ok`` result disagrees with the
  software baseline (at ``validate_fraction=1.0`` the engine's guard
  catches every injected corruption before it reaches the caller);
- **the ledger closes** -- as many envelopes as accepted jobs, so an
  envelope for a job never accepted, or a second one for a settled
  job, fails the campaign instead of cancelling a lost job.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.campaign import (
    DEFAULT_KERNELS,
    CanonicalReport,
    check_stream_shape,
    config_block,
    counter_fields,
    decorated_jobs,
    drive,
    synthesize_stream,  # noqa: F401 -- re-exported: callers import it from here
)
from repro.faults.plan import FaultPlan

#: ``ChaosConfig`` fields the report's ``config`` block echoes.
_ECHOED = (
    "jobs", "seed", "kernels", "workers", "chunk_jobs", "validate_fraction",
    "crash_rate", "hang_rate", "corrupt_rate", "fail_rate", "compile_fail_rate",
    "burst_every",
)
#: ``CampaignReport`` fields fed by the engine counter of the same name.
_COUNTED = (
    "dead_letters", "dead_letters_replayed", "degraded_batches", "batches_total",
    "batch_retries", "compile_failed_batches", "breaker_opened",
    "breaker_short_circuits", "validation_checked", "validation_mismatches",
    "reference_jobs",
)


@dataclass(frozen=True)
class ChaosConfig:
    """One campaign's worth of knobs (all deterministic)."""

    jobs: int = 200
    seed: int = 0
    kernels: Tuple[str, ...] = DEFAULT_KERNELS
    workers: int = 1
    #: Jobs submitted per drain; also the engine's queue bound.
    chunk_jobs: int = 48
    batch_capacity: int = 8
    job_timeout_s: float = 0.15
    max_retries: int = 1
    validate_fraction: float = 1.0
    #: Dead-letter replay rounds after the main stream.
    replay_rounds: int = 2
    crash_rate: float = 0.03
    hang_rate: float = 0.01
    corrupt_rate: float = 0.05
    fail_rate: float = 0.02
    compile_fail_rate: float = 0.10
    #: Every Nth chunk submits ``FaultPlan.burst_factor`` (2) times the
    #: jobs (0 = off).
    burst_every: int = 0

    def __post_init__(self) -> None:
        check_stream_shape(self)
        if self.replay_rounds < 0:
            raise ValueError("replay_rounds must be non-negative")
        self.plan()  # validates the fault rates eagerly

    def plan(self) -> FaultPlan:
        """The fault plan this config implies."""
        # A hung job must out-sleep the executor's timeout (with slack
        # to spare) or the "hang" degenerates to a slow success.
        window = self.job_timeout_s * self.batch_capacity
        return FaultPlan(
            seed=self.seed,
            crash_rate=self.crash_rate,
            hang_rate=self.hang_rate,
            corrupt_rate=self.corrupt_rate,
            fail_rate=self.fail_rate,
            compile_fail_rate=self.compile_fail_rate,
            hang_delay_s=2.0 * window + 0.5,
            burst_every=self.burst_every,
        )


@dataclass
class CampaignReport(CanonicalReport):
    """Survival metrics of one campaign (deterministic content only)."""

    DERIVED = ("degraded_fraction", "survived")

    config: Dict[str, Any]
    submitted: int = 0
    rejected: int = 0
    envelopes: int = 0
    lost: int = 0
    ok: int = 0
    failed: int = 0
    corruption_escapes: int = 0
    injected: Dict[str, int] = field(default_factory=dict)
    failures_by_error: Dict[str, int] = field(default_factory=dict)
    quarantined: List[str] = field(default_factory=list)
    dead_letters: int = 0
    dead_letters_replayed: int = 0
    dead_letter_backlog: int = 0
    degraded_batches: int = 0
    batches_total: int = 0
    batch_retries: int = 0
    compile_failed_batches: int = 0
    breaker_opened: int = 0
    breaker_short_circuits: int = 0
    validation_checked: int = 0
    validation_mismatches: int = 0
    reference_jobs: int = 0

    @property
    def degraded_fraction(self) -> float:
        return self.degraded_batches / self.batches_total if self.batches_total else 0.0

    @property
    def survived(self) -> bool:
        return (
            self.lost == 0
            and self.corruption_escapes == 0
            and self.envelopes == self.submitted
        )

    def render(self) -> str:
        """Human-readable campaign summary."""
        injected = ", ".join(
            f"{kind}={count}" for kind, count in sorted(self.injected.items())
        ) or "none"
        failures = ", ".join(
            f"{cls}={count}" for cls, count in sorted(self.failures_by_error.items())
        ) or "none"
        lines = [
            "gendp-chaos: seeded campaign report",
            f"  submitted           : {self.submitted} "
            f"(+{self.rejected} shed by backpressure)",
            f"  injected faults     : {injected}",
            f"  result envelopes    : {self.envelopes} "
            f"({self.ok} ok, {self.failed} failed)",
            f"  jobs lost           : {self.lost}",
            f"  corruption escapes  : {self.corruption_escapes} "
            f"({self.validation_checked} checked, "
            f"{self.validation_mismatches} caught)",
            f"  failure classes     : {failures}",
            f"  degraded fraction   : {self.degraded_fraction:.1%} "
            f"({self.degraded_batches}/{self.batches_total} batches, "
            f"{self.batch_retries} retries, "
            f"{self.compile_failed_batches} compile failures)",
            f"  circuit breaker     : {self.breaker_opened} opens, "
            f"{self.breaker_short_circuits} short-circuits",
            f"  quarantined kernels : {', '.join(self.quarantined) or 'none'} "
            f"({self.reference_jobs} jobs served by reference)",
            f"  dead letters        : {self.dead_letters} parked, "
            f"{self.dead_letters_replayed} replayed, "
            f"{self.dead_letter_backlog} unresolved",
            f"  verdict             : "
            f"{'SURVIVED' if self.survived else 'FAILED'}",
        ]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# campaign


def run_campaign(
    config: Optional[ChaosConfig] = None, plan: Optional[FaultPlan] = None
) -> CampaignReport:
    """Run one seeded chaos campaign and return its report."""
    from repro.engine import Engine, EngineConfig

    config = config or ChaosConfig()
    plan = plan or config.plan()
    jobs = decorated_jobs(config, plan)
    kinds = [plan.fault_for(index) for index in range(config.jobs)]
    engine_config = EngineConfig(
        max_queue=config.chunk_jobs,
        workers=config.workers,
        job_timeout_s=config.job_timeout_s,
        max_retries=config.max_retries,
        batch_capacity=config.batch_capacity,
        validate_fraction=config.validate_fraction,
        dlq_capacity=config.jobs * plan.burst_factor,
        reliability_seed=config.seed,
        fault_plan=plan if plan.enabled else None,
    )
    ledger, quarantined = drive(
        lambda: Engine(engine_config),
        jobs,
        config.chunk_jobs,
        seed=config.seed,
        burst_factor_for=plan.burst_factor_for,
        replay_rounds=config.replay_rounds,
        finish=lambda engine: sorted(engine.quarantined),
    )
    return CampaignReport(
        config=config_block(config, _ECHOED),
        submitted=len(ledger.accepted),
        rejected=ledger.shed_backpressure,
        # The report has no duplicates field: a second envelope for a
        # settled id shows as envelopes > submitted and fails `survived`.
        envelopes=len(ledger.envelopes) + ledger.duplicate_envelopes,
        lost=ledger.lost,
        ok=ledger.ok,
        failed=ledger.failed,
        corruption_escapes=ledger.corruption_escapes(),
        injected=dict(Counter(kind for kind in kinds if kind)),
        failures_by_error=dict(ledger.failures_by_error()),
        quarantined=quarantined,
        dead_letter_backlog=ledger.dead_letter_backlog,
        **counter_fields(ledger.counters, _COUNTED, "reliability", "engine"),
    )
