"""Seeded chaos campaigns against the serving engine.

A campaign synthesizes a deterministic mixed job stream, decorates it
with a :class:`~repro.faults.plan.FaultPlan`, pushes it through a real
:class:`~repro.engine.Engine` in chunks (with optional queue-pressure
bursts), replays the dead-letter queue, and audits every surviving
result against the reference kernels.  The product is a
:class:`CampaignReport` whose :meth:`~CampaignReport.to_dict` contains
**only counts and names** -- no timings, ids or machine state -- so
two campaigns with the same config produce byte-identical reports,
which is the contract the CI chaos smoke asserts.

Survival criteria (``report.survived``):

- **zero lost jobs** -- every job the engine accepted produced exactly
  one result envelope (rejected-by-backpressure jobs are *shed*, not
  lost, and are counted separately);
- **zero corruption escapes** -- no ``ok`` result disagrees with the
  software baseline (at ``validate_fraction=1.0`` the engine's guard
  catches every injected corruption before it reaches the caller).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.obs.logs import get_logger, log_context

_LOG = get_logger("repro.faults.chaos")

#: Chaos-safe engine kernels (pairhmm is excluded from the default mix
#: only because its reference oracle is the slowest; pass it explicitly
#: to stress the fixed-point tolerance path).
DEFAULT_KERNELS: Tuple[str, ...] = ("bsw", "lcs", "dtw", "chain")


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
    #: Every Nth chunk submits ``burst_factor`` times the jobs (0 = off).
    burst_every: int = 0
    burst_factor: int = 2

    def __post_init__(self) -> None:
        if self.jobs <= 0:
            raise ValueError("jobs must be positive")
        if not self.kernels:
            raise ValueError("kernels must name at least one engine kernel")
        if self.chunk_jobs <= 0:
            raise ValueError("chunk_jobs must be positive")
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
            burst_factor=self.burst_factor,
        )


@dataclass
class CampaignReport:
    """Survival metrics of one campaign (deterministic content only)."""

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
        return self.lost == 0 and self.corruption_escapes == 0

    def to_dict(self) -> Dict[str, Any]:
        """A plain, JSON-able, run-to-run-identical report."""
        return {
            "config": dict(self.config),
            "submitted": self.submitted,
            "rejected": self.rejected,
            "envelopes": self.envelopes,
            "lost": self.lost,
            "ok": self.ok,
            "failed": self.failed,
            "corruption_escapes": self.corruption_escapes,
            "injected": dict(sorted(self.injected.items())),
            "failures_by_error": dict(sorted(self.failures_by_error.items())),
            "quarantined": list(self.quarantined),
            "dead_letters": self.dead_letters,
            "dead_letters_replayed": self.dead_letters_replayed,
            "dead_letter_backlog": self.dead_letter_backlog,
            "degraded_batches": self.degraded_batches,
            "batches_total": self.batches_total,
            "batch_retries": self.batch_retries,
            "compile_failed_batches": self.compile_failed_batches,
            "degraded_fraction": round(self.degraded_fraction, 6),
            "breaker_opened": self.breaker_opened,
            "breaker_short_circuits": self.breaker_short_circuits,
            "validation_checked": self.validation_checked,
            "validation_mismatches": self.validation_mismatches,
            "reference_jobs": self.reference_jobs,
            "survived": self.survived,
        }

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
# deterministic job stream


def synthesize_stream(config: ChaosConfig) -> List[Tuple[str, Dict[str, Any]]]:
    """A reproducible round-robin ``(kernel, payload)`` stream.

    Payloads are deliberately small (tens to hundreds of DP cells):
    chaos campaigns measure survival accounting, not throughput, and
    small jobs keep a 200-job campaign inside a CI minute.
    """
    import random

    from repro.kernels.chain import DEFAULT_AVG_SEED_WEIGHT
    from repro.seq.alphabet import random_sequence

    rng = random.Random(config.seed)
    stream: List[Tuple[str, Dict[str, Any]]] = []
    for index in range(config.jobs):
        kernel = config.kernels[index % len(config.kernels)]
        if kernel == "bsw":
            payload: Dict[str, Any] = {
                "query": random_sequence(14, rng),
                "target": random_sequence(10, rng),
            }
        elif kernel == "pairhmm":
            payload = {
                "read": random_sequence(12, rng),
                "haplotype": random_sequence(8, rng),
            }
        elif kernel == "lcs":
            payload = {
                "x": random_sequence(12, rng),
                "y": random_sequence(9, rng),
            }
        elif kernel == "dtw":
            payload = {
                "a": [rng.randint(0, 50) for _ in range(12)],
                "b": [rng.randint(0, 50) for _ in range(9)],
            }
        elif kernel == "chain":
            x = y = 0
            anchors = []
            for _ in range(12):
                x += rng.randint(5, 20)
                y += rng.randint(5, 20)
                anchors.append([x, y, DEFAULT_AVG_SEED_WEIGHT])
            payload = {"anchors": anchors}
        else:
            raise ValueError(f"gendp-chaos cannot synthesize kernel {kernel!r}")
        stream.append((kernel, payload))
    return stream


# ----------------------------------------------------------------------
# campaign


def run_campaign(
    config: Optional[ChaosConfig] = None, plan: Optional[FaultPlan] = None
) -> CampaignReport:
    """Run one seeded chaos campaign and return its report."""
    from repro.engine import BackpressureError, Engine, EngineConfig
    from repro.engine.jobs import make_job
    from repro.engine.runners import matches_reference

    config = config or ChaosConfig()
    plan = plan or config.plan()

    injected: Counter = Counter()
    stream = synthesize_stream(config)
    jobs = []
    for index, (kernel, payload) in enumerate(stream):
        payload, kind = plan.decorate(index, payload)
        if kind:
            injected[kind] += 1
        jobs.append(make_job(kernel, payload))

    engine_config = EngineConfig(
        max_queue=config.chunk_jobs,
        workers=config.workers,
        job_timeout_s=config.job_timeout_s,
        max_retries=config.max_retries,
        batch_capacity=config.batch_capacity,
        validate_fraction=config.validate_fraction,
        dlq_capacity=config.jobs * max(1, config.burst_factor),
        reliability_seed=config.seed,
        fault_plan=plan if plan.enabled else None,
    )

    payload_by_id: Dict[int, Dict[str, Any]] = {}
    envelopes: Dict[int, Any] = {}
    submitted = rejected = 0

    _LOG.info(
        "campaign started",
        extra={
            "campaign_seed": config.seed,
            "campaign_jobs": config.jobs,
            "workers": config.workers,
        },
    )
    with log_context(campaign_seed=config.seed), Engine(engine_config) as engine:
        chunks = [
            jobs[start : start + config.chunk_jobs]
            for start in range(0, len(jobs), config.chunk_jobs)
        ]
        for chunk_index, chunk in enumerate(chunks):
            to_submit = list(chunk)
            factor = plan.burst_factor_for(chunk_index)
            if factor > 1:
                # Queue-pressure burst: clone the chunk's clean
                # payloads past the queue bound; the overflow must be
                # shed by backpressure, never half-accepted.
                for _ in range(factor - 1):
                    for kernel, payload in (
                        stream[
                            chunk_index
                            * config.chunk_jobs : chunk_index
                            * config.chunk_jobs
                            + len(chunk)
                        ]
                    ):
                        to_submit.append(make_job(kernel, dict(payload)))
            for job in to_submit:
                try:
                    accepted = engine.submit(job)
                except BackpressureError:
                    rejected += 1
                    continue
                submitted += 1
                payload_by_id[accepted.job_id] = accepted.payload
            for result in engine.drain():
                envelopes[result.job_id] = result

        # Replay the dead letters: transient compile faults re-roll,
        # quarantined kernels land on the reference path.
        for _ in range(config.replay_rounds):
            if not engine.dead_letters:
                break
            if not engine.replay_dead_letters():
                break
            for result in engine.drain():
                envelopes[result.job_id] = result

        snapshot = engine.snapshot()
        quarantined = sorted(engine.quarantined)
        backlog = len(engine.dead_letters)

    # Post-hoc audit at 100% sampling: any ok envelope that disagrees
    # with the software baseline is a corruption escape.
    escapes = 0
    ok = failed = 0
    failures: Counter = Counter()
    for result in envelopes.values():
        if result.ok:
            ok += 1
            payload = payload_by_id[result.job_id]
            if result.backend == "reference":
                continue  # served by the baseline itself
            try:
                if not matches_reference(result.kernel, result.value, payload):
                    escapes += 1
            except Exception:
                escapes += 1
        else:
            failed += 1
            error = result.error or "unknown"
            failures[error.split(":", 1)[0]] += 1

    counters = snapshot["counters"]
    reliability = snapshot["reliability"]
    _LOG.info(
        "campaign complete",
        extra={
            "campaign_seed": config.seed,
            "submitted": submitted,
            "rejected": rejected,
            "envelopes": len(envelopes),
            "lost": submitted - len(envelopes),
            "corruption_escapes": escapes,
        },
    )
    return CampaignReport(
        config={
            "jobs": config.jobs,
            "seed": config.seed,
            "kernels": list(config.kernels),
            "workers": config.workers,
            "chunk_jobs": config.chunk_jobs,
            "crash_rate": config.crash_rate,
            "hang_rate": config.hang_rate,
            "corrupt_rate": config.corrupt_rate,
            "fail_rate": config.fail_rate,
            "compile_fail_rate": config.compile_fail_rate,
            "validate_fraction": config.validate_fraction,
            "burst_every": config.burst_every,
        },
        submitted=submitted,
        rejected=rejected,
        envelopes=len(envelopes),
        lost=submitted - len(envelopes),
        ok=ok,
        failed=failed,
        corruption_escapes=escapes,
        injected=dict(injected),
        failures_by_error=dict(failures),
        quarantined=quarantined,
        dead_letters=reliability["dead_letters"],
        dead_letters_replayed=reliability["dead_letters_replayed"],
        dead_letter_backlog=backlog,
        degraded_batches=reliability["degraded_batches"],
        batches_total=counters.get("batches_total", 0),
        batch_retries=reliability["batch_retries"],
        compile_failed_batches=reliability["compile_failed_batches"],
        breaker_opened=reliability["breaker_opened"],
        breaker_short_circuits=reliability["breaker_short_circuits"],
        validation_checked=reliability["validation_checked"],
        validation_mismatches=reliability["validation_mismatches"],
        reference_jobs=reliability["reference_jobs"],
    )
