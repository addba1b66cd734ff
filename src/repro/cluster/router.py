"""The cluster front door: health-aware consistent-hash routing.

A :class:`ClusterRouter` runs N independent :class:`~repro.engine.Engine`
shards (each with its own transport, workers, breaker set and DLQ; one
program cache shared by all) behind the same ``submit()`` / ``drain()``
surface the single engine exposes, so every existing caller --
``gendp-batch`` streams, chaos campaigns, the ``gendp-serve``
dispatcher -- can point at a cluster unchanged.

Placement and robustness:

- **routing** -- jobs route by their kernel's DFG content hash over a
  consistent-hash ring (:mod:`repro.cluster.hashring`), so every job
  that shares a compiled program lands on the shard whose workers
  already hold it; an unavailable or full shard falls through to
  the next shard in deterministic ring order (``cluster_route_fallbacks``);
- **health** -- each drain round heartbeats every shard and feeds its
  drain outcome/latency into a rolling window
  (:mod:`repro.cluster.health`); consecutive failures or missed
  heartbeats open the shard's circuit breaker, which *ejects* it: its
  hash range remaps onto the survivors (bounded, ~K/N keys) and its
  queued jobs fail over.  A cooled-down breaker lets a rejoin probe
  through and the shard takes its range back;
- **failover** -- one ordered in-flight ledger records each routed
  job's owning shard until its envelope is delivered.  A shard loses
  its jobs through one path, however it is lost (killed, ejected, or
  its drain raised): its rows are marked orphaned and resubmitted to
  surviving shards in ring order, bounded by ``MAX_RESUBMIT_ROUNDS``;
  a job that exhausts failover gets a synthesized ``cluster-fault``
  error envelope and parks in the router's dead-letter queue -- no job
  is ever silently dropped, and first-envelope-wins folding makes
  double-reporting impossible (``cluster_duplicate_envelopes`` audits
  that it never happens);
- **work stealing** -- before draining, queue depth outliers shed
  their excess onto the least-loaded healthy shards, so one hot hash
  range cannot stall the round;
- **lifecycle** -- ``join()`` adds a shard (bounded key remap),
  ``leave()`` drains a shard gracefully before closing it,
  ``kill_shard()`` is the operator/chaos crash path.

Time is injectable (:mod:`repro.cluster.clock`): chaos campaigns pass
a :class:`~repro.cluster.clock.SimClock` so latency-driven decisions
are seed-deterministic, and every drain round accounts **virtual
time** -- the max of the per-shard drain seconds, modelling shards as
parallel machines (``ClusterReport.virtual_seconds``).  Wall-clock
cluster throughput is ``cluster_durable`` in ``bench/``.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.clock import is_simulated, real_clock
from repro.cluster.hashring import HashRing
from repro.cluster.shard import EngineShard
from repro.engine import BackpressureError, Engine, EngineConfig
from repro.engine.cache import ProgramCache
from repro.engine.dlq import DeadLetter, DeadLetterQueue
from repro.engine.jobs import Job, JobResult
from repro.engine.metrics import MetricsRegistry
from repro.faults.shards import ShardFaultPlan
from repro.obs.logs import get_logger, log_context

_LOG = get_logger("repro.cluster.router")

#: Shard ids are ``{SHARD_PREFIX}-{ordinal}``.
SHARD_PREFIX = "shard"
#: Steal when a shard's queue exceeds ``STEAL_RATIO`` x the mean.
STEAL_RATIO = 2.0
#: Jobs one shard may shed per round (bounded rebalancing).
MAX_STEAL_PER_ROUND = 16
#: Failover resubmission rounds within one drain before a job gets a
#: synthesized ``cluster-fault`` envelope.
MAX_RESUBMIT_ROUNDS = 3
#: Router-level dead-letter queue capacity (cluster-fault jobs).
DLQ_CAPACITY = 256
#: Simulated seconds one drained job costs under a ``SimClock``.
PER_JOB_COST_S = 0.001


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster topology: shard count, shard engine, faults, ledger."""

    #: Initial shard count.
    shards: int = 4
    #: Engine template each shard instantiates (its own transport/workers).
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: Optional :class:`repro.faults.shards.ShardFaultPlan` driving
    #: deterministic shard kills/hangs/partitions per drain round.
    fault_plan: Optional[ShardFaultPlan] = None
    #: Optional :class:`repro.durable.journal.DurabilityConfig`: the
    #: *router* keeps one write-ahead ledger for the whole cluster
    #: (accept at routing, complete at delivery, dead-letter at the
    #: synthesized-envelope floor), so :meth:`ClusterRouter.recover`
    #: can replay in-flight jobs after a router crash.  Shard engines
    #: should stay journal-less under it -- their queues are already
    #: covered by this ledger.
    durability: Optional[object] = None

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError("shards must be positive")


@dataclass
class _InFlight:
    """One in-flight ledger row: a routed job awaiting its envelope."""

    job: Job
    #: Owning shard id; None while the job is orphaned.
    shard: Optional[str]
    #: Failover placements so far (at most ``MAX_RESUBMIT_ROUNDS``).
    resubmissions: int = 0


class ClusterRouter:
    """N engine shards behind one engine-shaped front door."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        tracer: Optional[object] = None,
        clock: Optional[Callable[[], float]] = None,
        flight: Optional[object] = None,
    ):
        self.config = config or ClusterConfig()
        self.tracer = tracer
        self.clock = clock or real_clock
        #: Optional :class:`repro.slo.flight.FlightRecorder`, shared
        #: with every shard engine: kills, ejections and
        #: unroutable-job dead letters trip it.
        self.flight = flight
        self.metrics = MetricsRegistry("cluster", "durable")
        self.ring = HashRing()
        #: The one program cache every shard engine shares: a kernel
        #: compiles once per router, joins included.
        self._programs = ProgramCache(self.config.engine.cache_capacity)
        self._shards: Dict[str, EngineShard] = {}
        self._affinity: Dict[str, str] = {}
        self._round = 0
        self._next_ordinal = 0
        self._virtual_seconds = 0.0
        #: The one in-flight ledger, in routing order: job id -> job,
        #: owning shard and failover count, until delivery.
        self._ledger: "OrderedDict[int, _InFlight]" = OrderedDict()
        self._dlq = DeadLetterQueue(
            capacity=DLQ_CAPACITY, metrics=self.metrics
        )
        #: Cluster-wide write-ahead ledger (None without durability).
        self.journal = None
        if self.config.durability is not None:
            from repro.durable.journal import Journal

            self.journal = Journal(
                self.config.durability, metrics=self.metrics
            )
        self._rate_kills = 0
        for _ in range(self.config.shards):
            self.join()

    def _flight_trip(self, reason: str, **context: Any) -> None:
        """Trip the flight recorder; forensics never fail the router."""
        if self.flight is None:
            return
        try:
            self.flight.note_counters(self.metrics.counters)
            self.flight.trip(reason, **context)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # membership

    @property
    def shards(self) -> Dict[str, EngineShard]:
        """Shard id -> shard (live view; do not mutate)."""
        return self._shards

    def shard_states(self) -> Dict[str, str]:
        """Shard id -> lifecycle state (the serve tier's stats hook)."""
        return {
            shard_id: shard.state
            for shard_id, shard in sorted(self._shards.items())
        }

    def live_shards(self) -> List[EngineShard]:
        return [
            shard
            for _, shard in sorted(self._shards.items())
            if shard.state in ("active", "draining")
        ]

    def join(self, shard_id: Optional[str] = None) -> EngineShard:
        """Add a shard; its hash range moves over (bounded remap)."""
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        shard_id = shard_id or f"{SHARD_PREFIX}-{ordinal}"
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} already exists")
        engine = Engine(
            self.config.engine,
            tracer=self.tracer,
            shard=shard_id,
            flight=self.flight,
            cache=self._programs,
        )
        shard = EngineShard(shard_id, engine, ordinal=ordinal)
        self._shards[shard_id] = shard
        self.ring.add(shard_id)
        self.metrics.incr("cluster_shards_joined")
        _LOG.info("shard joined", extra={"shard": shard_id})
        if self.tracer is not None:
            self.tracer.event("cluster:join", cat="cluster", shard=shard_id)
        return shard

    def leave(self, shard_id: str) -> None:
        """Graceful leave: stop routing here; the backlog drains first."""
        shard = self._shards[shard_id]
        shard.begin_leave()
        self.ring.remove(shard_id)
        _LOG.info("shard leaving", extra={"shard": shard_id})
        if self.tracer is not None:
            self.tracer.event("cluster:leave", cat="cluster", shard=shard_id)

    def kill_shard(self, shard_id: str) -> int:
        """Crash a shard (operator/chaos path); returns orphan count.

        Refused (returns -1) for the last live shard -- a cluster never
        faults itself into total unavailability.
        """
        shard = self._shards[shard_id]
        if shard.state not in ("active", "draining"):
            return 0
        if len(self.live_shards()) <= 1:
            _LOG.warning(
                "refusing to kill the last live shard",
                extra={"shard": shard_id},
            )
            return -1
        shard.kill()
        self.ring.remove(shard_id)
        orphans = self._orphan(shard)
        self.metrics.incr("cluster_shards_killed")
        self._flight_trip("shard-kill", shard=shard_id, orphans=orphans)
        _LOG.warning(
            "shard killed", extra={"shard": shard_id, "orphans": orphans}
        )
        if self.tracer is not None:
            self.tracer.event(
                "cluster:kill", cat="cluster", shard=shard_id, orphans=orphans
            )
        return orphans

    # ------------------------------------------------------------------
    # routing

    def affinity_key(self, kernel: str) -> str:
        """The routing key: kernel + DFG content hash, memoized.

        Content-addressed so two kernels computing the same objective
        share a shard (and its compiled program); an unknown kernel
        falls back to its name, still deterministic.
        """
        key = self._affinity.get(kernel)
        if key is None:
            try:
                from repro.engine.runners import build_dfg

                key = f"{kernel}:{build_dfg(kernel).content_hash()}"
            except Exception:
                key = kernel
            self._affinity[kernel] = key
        return key

    def _route_key(self, job: Job) -> str:
        key = self.affinity_key(job.kernel)
        salt = job.payload.get("_affinity")
        if salt is not None:
            key = f"{key}/{salt}"
        return key

    def _place(
        self, job: Job, round_number: int
    ) -> Tuple[Optional[EngineShard], Job, int]:
        """Enqueue *job* on the first shard in its ring order that
        accepts it this round -- submit and failover both place here.

        Returns ``(shard, accepted, refused)``; ``shard`` is None when
        every hop refused, and ``refused`` counts the hops that did.
        """
        refused = 0
        for shard_id in self.ring.route_n(self._route_key(job), len(self.ring)):
            shard = self._shards[shard_id]
            if shard.accepting(round_number):
                try:
                    return shard, shard.engine.submit(job), refused
                except BackpressureError:
                    pass
            refused += 1
        return None, job, refused

    def submit(self, job: Job) -> Job:
        """Route *job* to its ring owner (or the next available shard).

        Raises :class:`BackpressureError` when no shard can take it --
        per-shard admission: every hop is bounded by that engine's own
        queue limit.

        Routing is per compiled program by default (every job sharing
        a program shares a shard's warm cache).  When one program
        dominates the stream, callers may spread it by adding an
        ``_affinity`` token to the payload (a tile id, read group,
        session...); the token subdivides that program's hash range
        while staying fully deterministic.
        """
        route_start = self.tracer.now() if self.tracer is not None else 0.0
        shard, accepted, fallbacks = self._place(job, self._round + 1)
        if shard is None:
            raise BackpressureError(
                f"no shard can accept {job.kernel!r} "
                f"({len(self.ring)} in ring, {fallbacks} refused)"
            )
        self._admit(shard, accepted)
        self.metrics.incr("cluster_jobs_routed")
        if fallbacks:
            self.metrics.incr("cluster_route_fallbacks", fallbacks)
        if self.tracer is not None:
            self.tracer.add_span(
                "cluster:route",
                route_start,
                self.tracer.now(),
                cat="cluster",
                job_id=accepted.job_id,
                kernel=accepted.kernel,
                shard=shard.shard_id,
                fallbacks=fallbacks,
            )
        return accepted

    def _admit(self, shard: EngineShard, job: Job) -> Job:
        """Journal *job*, just queued on *shard*, and enter it in the
        ledger.

        Write-ahead: a job the journal does not know is not routed.  A
        failed accept write pulls the job back off the shard (it is
        the queue tail -- the router is single-threaded) and
        propagates.
        """
        if self.journal is not None:
            try:
                self.journal.accept(job)
            except Exception:
                shard.engine.withdraw(1)
                raise
        self._ledger[job.job_id] = _InFlight(job, shard.shard_id)
        return job

    def submit_many(self, jobs: List[Job]) -> List[Job]:
        return [self.submit(job) for job in jobs]

    @property
    def queued(self) -> int:
        return sum(shard.queued for shard in self._shards.values())

    @property
    def inflight(self) -> int:
        """Jobs routed but not yet settled with an envelope."""
        return len(self._ledger)

    # ------------------------------------------------------------------
    # drain

    def drain(self) -> List[JobResult]:
        """One cluster drain round; results in submission order.

        Jobs stranded on a *partitioned* shard stay in flight and
        settle in a later round (see :meth:`drain_until_settled`);
        jobs on a *killed* shard fail over inside this round.
        """
        if not self._ledger:
            return []
        self._round += 1
        round_number = self._round
        self.metrics.incr("cluster_drain_rounds")
        drain_start = self.tracer.now() if self.tracer is not None else 0.0
        with log_context(cluster_round=round_number):
            ordered = self._drain_round(round_number)
        if self.tracer is not None:
            self.tracer.add_span(
                "cluster:drain",
                drain_start,
                self.tracer.now(),
                cat="cluster",
                round=round_number,
                jobs=len(ordered),
                shards=len(self.live_shards()),
            )
        return ordered

    def _drain_round(self, round_number: int) -> List[JobResult]:
        self._apply_faults(round_number)
        self._maybe_rejoin(round_number)
        self._rebalance(round_number)

        envelopes: Dict[int, JobResult] = {}
        shard_seconds: Dict[str, float] = {}
        self._drain_shards(round_number, envelopes, shard_seconds)

        # Failover: resubmit orphans of lost shards, then drain the
        # adopting shards so this round still settles them.
        for _ in range(MAX_RESUBMIT_ROUNDS):
            adopted = self._resubmit_orphans(round_number, envelopes)
            if not adopted:
                break
            self._drain_shards(
                round_number, envelopes, shard_seconds, only=adopted
            )
        self._synthesize_leftovers(envelopes)

        # Virtual-time accounting: shards are parallel machines, so the
        # round costs the slowest shard's drain time, not the sum.
        self._virtual_seconds += max(shard_seconds.values(), default=0.0)

        for shard in list(self._shards.values()):
            if shard.finish_leave():
                self.metrics.incr("cluster_shards_left")
                _LOG.info("shard left", extra={"shard": shard.shard_id})

        ordered: List[JobResult] = []
        for job_id in list(self._ledger):
            result = envelopes.get(job_id)
            if result is None:
                continue  # stranded on a partitioned shard; later round
            if self.journal is not None:
                self.journal.complete(result.job_id, result.ok, result.error)
            ordered.append(result)
            del self._ledger[job_id]
        return ordered

    def drain_until_settled(self, max_rounds: int = 64) -> List[JobResult]:
        """Drain rounds until nothing is in flight (or *max_rounds*).

        Partitions heal with rounds, ejections fail over -- this is
        the "no job may be silently dropped" closure campaigns and the
        CLI use.
        """
        settled: List[JobResult] = []
        for _ in range(max_rounds):
            settled.extend(self.drain())
            if not self._ledger:
                break
        return settled

    # ------------------------------------------------------------------
    # drain internals

    def _drain_shards(
        self,
        round_number: int,
        envelopes: Dict[int, JobResult],
        shard_seconds: Dict[str, float],
        only: Optional[Set[str]] = None,
    ) -> None:
        for shard_id, shard in sorted(self._shards.items()):
            if only is not None and shard_id not in only:
                continue
            if shard.state not in ("active", "draining"):
                continue
            if shard.partitioned(round_number):
                if shard.health.miss(round_number):
                    self._eject(shard, round_number)
                continue
            shard.health.beat()
            if shard.queued == 0:
                continue
            jobs_count = shard.queued
            hang = shard.take_hang_delay()
            span_start = (
                self.tracer.now() if self.tracer is not None else 0.0
            )
            started = self.clock()
            try:
                results = shard.engine.drain()
                drain_ok = True
            except Exception as error:
                # The engine drain is crash-safe; an exception past it
                # means the shard itself is broken: its jobs fail over.
                _LOG.error(
                    "shard drain raised",
                    extra={
                        "shard": shard_id,
                        "error": f"{type(error).__name__}: {error}",
                    },
                )
                results = []
                drain_ok = False
            if is_simulated(self.clock):
                self.clock.advance(jobs_count * PER_JOB_COST_S + hang)
                elapsed = self.clock() - started
            else:
                elapsed = self.clock() - started + hang
            shard_seconds[shard_id] = (
                shard_seconds.get(shard_id, 0.0) + elapsed
            )
            self.metrics.observe("shard_drain_s", elapsed)
            if self.tracer is not None:
                self.tracer.add_span(
                    "shard:drain",
                    span_start,
                    self.tracer.now(),
                    cat="cluster",
                    shard=shard_id,
                    jobs=jobs_count,
                    round=round_number,
                    ok=drain_ok,
                )
            if drain_ok:
                shard.health.record_drain(True, elapsed)
                self._fold(shard_id, results, envelopes)
            else:
                self._orphan(shard)
                if shard.health.record_drain(False, elapsed):
                    self._eject(shard, round_number)

    def _fold(
        self,
        shard_id: str,
        results: List[JobResult],
        envelopes: Dict[int, JobResult],
    ) -> None:
        """First envelope wins; duplicates are audited, never returned."""
        for result in results:
            if result.job_id in envelopes:
                self.metrics.incr("cluster_duplicate_envelopes")
                _LOG.warning(
                    "duplicate envelope suppressed",
                    extra={"shard": shard_id, "job_id": result.job_id},
                )
                continue
            if result.shard is None:
                result.shard = shard_id
            envelopes[result.job_id] = result

    def _orphan(self, shard: EngineShard) -> int:
        """The one path by which a shard loses its jobs (kill, eject, a
        drain that raised): empty its engine queue while the engine is
        open, then orphan every ledger row it owns for failover.
        Returns the number of rows orphaned."""
        if shard.state in ("active", "draining"):
            shard.engine.withdraw(None)
        orphans = 0
        for entry in self._ledger.values():
            if entry.shard == shard.shard_id:
                entry.shard = None
                orphans += 1
        return orphans

    def _eject(self, shard: EngineShard, round_number: int) -> None:
        """Breaker opened: drop the shard's hash range, orphan its jobs."""
        if shard.shard_id not in self.ring:
            return
        self.ring.remove(shard.shard_id)
        self._orphan(shard)
        self.metrics.incr("cluster_shards_ejected")
        self._flight_trip(
            "shard-eject", shard=shard.shard_id, round=round_number
        )
        _LOG.warning(
            "shard ejected",
            extra={"shard": shard.shard_id, "round": round_number},
        )
        if self.tracer is not None:
            self.tracer.event(
                "cluster:eject",
                cat="cluster",
                shard=shard.shard_id,
                round=round_number,
            )

    def _maybe_rejoin(self, round_number: int) -> None:
        """Cooled-down ejected shards get a rejoin probe (their range back)."""
        for shard_id, shard in sorted(self._shards.items()):
            if shard.state != "active" or shard_id in self.ring:
                continue
            if shard.partitioned(round_number):
                continue
            if shard.health.allow():
                self.ring.add(shard_id)
                self.metrics.incr("cluster_shards_rejoined")
                _LOG.info(
                    "shard rejoined (probe)",
                    extra={"shard": shard_id, "round": round_number},
                )
                if self.tracer is not None:
                    self.tracer.event(
                        "cluster:rejoin",
                        cat="cluster",
                        shard=shard_id,
                        round=round_number,
                    )

    def _apply_faults(self, round_number: int) -> None:
        plan = self.config.fault_plan
        if plan is None or not plan.enabled:
            return
        for shard_id, shard in sorted(self._shards.items()):
            if shard.state != "active":
                continue
            kind = plan.fault_for(shard.ordinal, round_number, self._rate_kills)
            if kind is None:
                continue
            if kind == "kill":
                if self.kill_shard(shard_id) >= 0 and (
                    (round_number, shard.ordinal) not in plan.kills
                ):
                    self._rate_kills += 1
            elif kind == "hang":
                shard.mark_hung(plan.hang_delay_s)
                self.metrics.incr("cluster_hangs_injected")
            elif kind == "partition":
                shard.mark_partitioned(round_number + plan.partition_rounds)
                self.metrics.incr("cluster_partitions_injected")
                _LOG.warning(
                    "shard partitioned",
                    extra={
                        "shard": shard_id,
                        "until_round": round_number + plan.partition_rounds,
                    },
                )

    def _rebalance(self, round_number: int) -> None:
        """Bounded work stealing: depth outliers shed onto healthy shards."""
        donors_pool = [
            shard
            for shard in self.live_shards()
            if shard.drainable(round_number) and shard.queued > 0
        ]
        targets_pool = [
            shard
            for shard in self.live_shards()
            if shard.accepting(round_number)
            and shard.health.classification == "healthy"
        ]
        if len(donors_pool) < 1 or len(targets_pool) < 1:
            return
        depths = {
            shard.shard_id: shard.queued
            for shard in set(donors_pool) | set(targets_pool)
        }
        mean = sum(depths.values()) / max(len(depths), 1)
        if mean <= 0:
            return
        for donor in sorted(
            donors_pool, key=lambda s: (-s.queued, s.shard_id)
        ):
            if donor.queued <= STEAL_RATIO * mean:
                continue
            excess = min(int(donor.queued - mean), MAX_STEAL_PER_ROUND)
            if excess <= 0:
                continue
            for job in donor.engine.withdraw(excess):
                owner = donor
                for target in sorted(
                    targets_pool, key=lambda s: (s.queued, s.shard_id)
                ):
                    if target is donor:
                        continue
                    try:
                        target.engine.submit(job)
                    except BackpressureError:
                        continue
                    owner = target
                    self.metrics.incr("cluster_jobs_stolen")
                    break
                else:
                    # Nobody could take it; hand it back to the donor
                    # (it had room -- we just withdrew from it).
                    donor.engine.submit(job)
                self._ledger[job.job_id].shard = owner.shard_id

    def _resubmit_orphans(
        self, round_number: int, envelopes: Dict[int, JobResult]
    ) -> Set[str]:
        """Place orphaned in-flight jobs on survivors, exactly once.

        Returns the shard ids that adopted work (they get a follow-up
        drain this round).  Jobs that exhaust their resubmission budget
        or find no shard stay orphaned for :meth:`_synthesize_leftovers`;
        a job already answered this round is never resubmitted.
        """
        adopted: Set[str] = set()
        for job_id, entry in self._ledger.items():
            if (
                entry.shard is not None
                or job_id in envelopes
                or entry.resubmissions >= MAX_RESUBMIT_ROUNDS
            ):
                continue
            shard, _, _ = self._place(entry.job, round_number)
            if shard is None:
                continue
            entry.shard = shard.shard_id
            entry.resubmissions += 1
            self.metrics.incr("cluster_jobs_resubmitted")
            adopted.add(shard.shard_id)
        return adopted

    def _synthesize_leftovers(self, envelopes: Dict[int, JobResult]) -> None:
        """Exactly-once floor: un-placeable jobs get error envelopes."""
        for job_id, entry in self._ledger.items():
            if entry.shard is not None or job_id in envelopes:
                continue
            job = entry.job
            self.metrics.incr("cluster_jobs_unroutable")
            error = "cluster-fault: no shard available for failover"
            envelopes[job.job_id] = JobResult(
                job_id=job.job_id,
                kernel=job.kernel,
                ok=False,
                error=error,
                backend="none",
            )
            if self._dlq.push(job, error):
                self._flight_trip(
                    "dead-letter",
                    job_id=job.job_id,
                    kernel=job.kernel,
                    error=error,
                )
                if self.journal is not None:
                    self.journal.dead_letter(job.job_id, error, 1)
            else:
                _LOG.warning(
                    "cluster DLQ full; letter dropped",
                    extra={"job_id": job.job_id},
                )

    # ------------------------------------------------------------------
    # reliability surface

    def recover(self):
        """Replay the cluster ledger after a router restart.

        Delegates to :func:`repro.durable.recovery.recover_engine` --
        the router satisfies the same surface a single engine does
        (``journal`` / ``metrics`` / ``submit`` / ``drain`` /
        ``_dlq``), so orphaned in-flight jobs re-route onto today's
        shards under their original ids and journaled-terminal jobs
        are never re-executed.  Returns the
        :class:`~repro.durable.recovery.RecoveryReport`.
        """
        if self.journal is None:
            raise ValueError(
                "cluster has no ledger; set ClusterConfig.durability"
            )
        from repro.durable.recovery import recover_engine

        return recover_engine(self)

    @property
    def dead_letters(self) -> List[DeadLetter]:
        """Cluster-fault letters (per-shard engines keep their own DLQs)."""
        return self._dlq.letters()

    def replay_dead_letters(self) -> List[Job]:
        """Replay cluster-level and every live shard's dead letters.

        Cluster letters re-route; a shard's letters go back onto that
        shard, journaled and entered in the ledger like a routed job.
        """
        replayed = self._dlq.replay(self.submit)
        for shard in self.live_shards():
            replayed.extend(
                shard.engine._dlq.replay(
                    lambda job: self._admit(shard, shard.engine.submit(job))
                )
            )
        return replayed

    # ------------------------------------------------------------------
    # introspection / lifecycle

    @property
    def round(self) -> int:
        return self._round

    @property
    def virtual_seconds(self) -> float:
        """Parallel-machine elapsed time across all drain rounds."""
        return self._virtual_seconds

    def snapshot(self) -> Dict[str, Any]:
        """Cluster + per-shard metrics as one exporter-ready dict."""
        snap = self.metrics.snapshot()
        snap["cluster"] = {
            "shards_total": len(self._shards),
            "shards_live": len(self.live_shards()),
            "shards_in_ring": len(self.ring),
            "round": self._round,
            "virtual_seconds": round(self._virtual_seconds, 6),
            "inflight": len(self._ledger),
            "dead_letter_backlog": len(self._dlq),
        }
        owned = Counter(entry.shard for entry in self._ledger.values())
        snap["shards"] = {
            shard_id: shard.snapshot(self._round, owned[shard_id])
            for shard_id, shard in sorted(self._shards.items())
        }
        return snap

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
        for shard in self._shards.values():
            shard.close()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
