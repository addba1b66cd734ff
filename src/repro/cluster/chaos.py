"""Deterministic cluster chaos: seeded shard kills, hangs, partitions.

The cluster scenario of the one campaign driver
(:mod:`repro.faults.campaign`): the same deterministic job stream the
engine-level campaigns use routes through a real
:class:`~repro.cluster.router.ClusterRouter` under a
:class:`~repro.faults.shards.ShardFaultPlan`, and the driver's ledger
audits the exactly-once contract: every accepted job must settle with
exactly one envelope -- a result from some shard, or a synthesized
``cluster-fault`` -- no matter which shards die, hang or partition
mid-stream.  This module supplies the config, the router factory and
the projection of the ledger onto :class:`ClusterReport`.

Determinism is end to end: the router runs on a
:class:`~repro.cluster.clock.SimClock`, so every latency that feeds a
health window (and through it every ejection, rejoin and steal
decision) is a pure function of the seed; the
:class:`ClusterReport` carries **only counts and names** -- no
timings, ids or machine state -- so two campaigns with the same config
serialize byte-identically.  The CI cluster-chaos smoke asserts
exactly that, twice over, with a shard killed mid-campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.cluster.clock import SimClock
from repro.cluster.router import PER_JOB_COST_S, ClusterConfig, ClusterRouter
from repro.engine import EngineConfig
from repro.faults.campaign import (
    DEFAULT_KERNELS,
    SETTLE_ROUNDS,
    CanonicalReport,
    check_stream_shape,
    config_block,
    counter_fields,
    decorated_jobs,
    drive,
)
from repro.faults.shards import ShardFaultPlan

#: ``ClusterChaosConfig`` fields the report's ``config`` block echoes.
_ECHOED = (
    "jobs", "seed", "kernels", "shards", "chunk_jobs", "shard_queue", "kill_rate",
    "hang_rate", "partition_rate", "kills", "partition_rounds", "validate_fraction",
    "affinity_stride",
)
#: ``ClusterReport`` fields fed by their ``cluster`` family counter.
_COUNTED = (
    "duplicate_envelopes", "routed", "route_fallbacks", "stolen", "resubmitted",
    "shards_killed", "shards_ejected", "shards_rejoined", "partitions_injected",
    "hangs_injected", "drain_rounds",
)


@dataclass(frozen=True)
class ClusterChaosConfig:
    """One cluster campaign's worth of knobs (all deterministic)."""

    jobs: int = 200
    seed: int = 0
    kernels: Tuple[str, ...] = DEFAULT_KERNELS
    #: Initial shard count.
    shards: int = 4
    #: Jobs submitted per drain round.
    chunk_jobs: int = 48
    #: Per-shard bounded queue (the admission limit each hop sees).
    shard_queue: int = 96
    #: Shard-fault probabilities per (shard, round) draw.
    kill_rate: float = 0.0
    hang_rate: float = 0.0
    partition_rate: float = 0.0
    #: Explicit scheduled kills: ``(round, shard_ordinal)`` pairs --
    #: the "kill one shard mid-campaign" smoke uses this, not a rate.
    kills: Tuple[Tuple[int, int], ...] = ()
    #: Rounds a partitioned shard stays unreachable.
    partition_rounds: int = 2
    #: Engine-side validation fraction (the corruption guard).
    validate_fraction: float = 1.0
    #: When > 0, job *i* carries ``_affinity = i % stride`` so one
    #: program's hash range subdivides across shards (the scaling
    #: benchmark needs more routing keys than there are kernels);
    #: 0 keeps pure per-program affinity.
    affinity_stride: int = 0

    def __post_init__(self) -> None:
        check_stream_shape(self)
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        self.shard_plan()  # validates the fault rates eagerly

    def shard_plan(self) -> ShardFaultPlan:
        """The shard fault plan this config implies."""
        return ShardFaultPlan(
            seed=self.seed,
            kill_rate=self.kill_rate,
            hang_rate=self.hang_rate,
            partition_rate=self.partition_rate,
            kills=self.kills,
            partition_rounds=self.partition_rounds,
        )

    def cluster_config(self) -> ClusterConfig:
        """The router config this campaign runs under."""
        return ClusterConfig(
            shards=self.shards,
            engine=EngineConfig(
                max_queue=self.shard_queue,
                workers=0,
                validate_fraction=self.validate_fraction,
            ),
            fault_plan=self.shard_plan(),
        )


@dataclass
class ClusterReport(CanonicalReport):
    """Survival metrics of one cluster campaign (deterministic only)."""

    config: Dict[str, Any]
    submitted: int = 0
    rejected: int = 0
    envelopes: int = 0
    lost: int = 0
    ok: int = 0
    failed: int = 0
    cluster_faults: int = 0
    duplicate_envelopes: int = 0
    routed: int = 0
    route_fallbacks: int = 0
    stolen: int = 0
    resubmitted: int = 0
    shards_killed: int = 0
    shards_ejected: int = 0
    shards_rejoined: int = 0
    partitions_injected: int = 0
    hangs_injected: int = 0
    drain_rounds: int = 0
    dead_letter_backlog: int = 0
    virtual_seconds: float = 0.0
    final_shard_states: Dict[str, str] = field(default_factory=dict)

    @property
    def survived(self) -> bool:
        """Exactly-once held: nothing lost, nothing double-reported,
        no envelope for a job that was never accepted."""
        return (
            self.lost == 0
            and self.duplicate_envelopes == 0
            and self.envelopes == self.submitted
        )

    def render(self) -> str:
        """Human-readable campaign summary."""
        states = ", ".join(
            f"{shard}={state}"
            for shard, state in sorted(self.final_shard_states.items())
        )
        lines = [
            "gendp-cluster: seeded cluster chaos report",
            f"  submitted           : {self.submitted} "
            f"(+{self.rejected} shed by backpressure)",
            f"  result envelopes    : {self.envelopes} "
            f"({self.ok} ok, {self.failed} failed, "
            f"{self.cluster_faults} cluster-faults)",
            f"  jobs lost           : {self.lost}",
            f"  duplicates          : {self.duplicate_envelopes}",
            f"  routing             : {self.routed} routed, "
            f"{self.route_fallbacks} fallbacks, {self.stolen} stolen, "
            f"{self.resubmitted} failover resubmits",
            f"  shard faults        : {self.shards_killed} killed, "
            f"{self.partitions_injected} partitions, "
            f"{self.hangs_injected} hangs",
            f"  breaker             : {self.shards_ejected} ejections, "
            f"{self.shards_rejoined} rejoins",
            f"  drain rounds        : {self.drain_rounds} "
            f"({self.virtual_seconds:.3f} virtual s)",
            f"  dead letters        : {self.dead_letter_backlog} unresolved",
            f"  final shard states  : {states or 'none'}",
            f"  verdict             : "
            f"{'SURVIVED' if self.survived else 'FAILED'}",
        ]
        return "\n".join(lines)


def run_cluster_campaign(
    config: Optional[ClusterChaosConfig] = None,
    tracer: Optional[object] = None,
) -> ClusterReport:
    """Run one deterministic cluster chaos campaign."""
    config = config or ClusterChaosConfig()
    jobs = decorated_jobs(config, affinity_stride=config.affinity_stride)
    cluster, clock = config.cluster_config(), SimClock()
    ledger, (virtual_seconds, final_shard_states) = drive(
        lambda: ClusterRouter(cluster, tracer=tracer, clock=clock),
        jobs,
        config.chunk_jobs,
        seed=config.seed,
        finish=lambda router: (router.virtual_seconds, router.shard_states()),
    )
    counted = counter_fields(ledger.counters, _COUNTED, "cluster")
    # The router audits duplicates among its shards; the ledger audits
    # them again at the campaign boundary.
    counted["duplicate_envelopes"] += ledger.duplicate_envelopes
    return ClusterReport(
        # Knobs the campaign does not expose are echoed from the objects
        # that hold them: the router config, the shard plan, the driver.
        config=config_block(
            config,
            _ECHOED,
            per_job_cost_s=PER_JOB_COST_S,
            hang_delay_s=cluster.fault_plan.hang_delay_s,
            max_kills=cluster.fault_plan.max_kills,
            settle_rounds=SETTLE_ROUNDS,
        ),
        submitted=len(ledger.accepted),
        rejected=ledger.shed_backpressure,
        envelopes=len(ledger.envelopes),
        lost=ledger.lost,
        ok=ledger.ok,
        failed=ledger.failed,
        cluster_faults=ledger.failures_by_error()["cluster-fault"],
        dead_letter_backlog=ledger.dead_letter_backlog,
        virtual_seconds=virtual_seconds,
        final_shard_states=final_shard_states,
        **counted,
    )
