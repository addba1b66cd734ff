"""The engine front door: bounded submission queue + drain loop.

Lifecycle of a job (see ``docs/engine.md`` and ``docs/reliability.md``):

1. ``submit()`` validates backpressure (bounded queue) and stamps the
   submission time.
2. ``drain()`` expires past-deadline jobs, reroutes quarantined
   kernels to the reference (software-baseline) path, packs the rest
   into tile-shaped batches (:mod:`repro.engine.batcher`), resolves
   each batch's compiled program through the LRU cache (one DPMap run
   per distinct objective function), executes batches on the worker
   or inline backend -- consulting a per-kernel circuit breaker before
   paying the workers' retry cost -- and folds everything into
   :class:`JobResult` envelopes plus metrics, re-checking a sampled
   fraction of results against the reference kernels on the way out.

The drain is **crash-safe**: every job popped from the queue yields
exactly one result envelope even when an executor, cache or validation
internal raises -- the failure becomes an ``engine-fault`` error
envelope, never a silently lost job.  Failed jobs (other than deadline
expiries) are parked in a bounded dead-letter queue for replay.

The engine is deliberately synchronous at the drain level -- callers
own the cadence (CLI: one drain; a server loop: drain per tick), and
every later scaling PR (async submission, sharding, remote backends)
only has to replace the executor seam.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dpax.machine import INTEGER_ARRAYS
from repro.engine.batcher import Batch, Batcher
from repro.engine.breaker import BREAKER_CODES, CircuitBreaker
from repro.engine.cache import (
    CU_LEVELS,
    CacheKey,
    CompiledProgram,
    ProgramCache,
    compile_program,
)
from repro.engine.dlq import DeadLetter, DeadLetterQueue
from repro.engine.executor import BatchOutcome, InlineExecutor, make_executor
from repro.engine.jobs import Job, JobResult
from repro.engine.metrics import (
    OCCUPANCY_BOUNDS,
    MetricsRegistry,
)
from repro.engine.runners import build_dfg, matches_reference, reference_result
from repro.guard.verifier import check_program
from repro.obs.logs import get_logger, log_context

_LOG = get_logger("repro.engine.service")


class BackpressureError(RuntimeError):
    """The submission queue is full; caller must drain or shed load."""


@dataclass(frozen=True)
class EngineConfig:
    """Engine tuning knobs."""

    #: Bounded submission queue length (backpressure beyond it).
    max_queue: int = 256
    #: LRU capacity of the compiled-program cache.
    cache_capacity: int = 32
    #: Warm shm worker processes; 0 = in-process execution only.
    workers: int = 0
    #: Per-job execution timeout: a worker that holds one job longer
    #: is killed and the job retried.
    job_timeout_s: float = 30.0
    #: Retries of a job whose worker died before inline fallback.
    max_retries: int = 1
    #: Jobs per batch (one tile launch; 16 = the DPAx integer arrays).
    batch_capacity: int = INTEGER_ARRAYS
    #: Fraction of ok results re-checked against the reference kernels
    #: (0 = off, 1 = every result); a mismatch fails the job with
    #: ``validation-mismatch`` and quarantines the kernel onto the
    #: reference path.
    validate_fraction: float = 0.0
    #: Dead-letter queue capacity (0 disables dead-lettering).
    dlq_capacity: int = 64
    #: Seeds validation sampling (reproducible runs).
    reliability_seed: int = 0
    #: Optional :class:`repro.faults.FaultPlan`; when set, its
    #: ``maybe_fail_compile`` hook runs inside the compile seam.
    fault_plan: Optional[object] = None
    #: Arm numerical sentinels on every job: intermediate ALU values
    #: are watched for int32 overflow / lane saturation / log-domain
    #: underflow, folded into the ``sentinel_*`` metrics counters.
    sentinels: bool = False
    #: When sentinels are armed, skip runtime observation for programs
    #: whose compile-time :class:`ProgramSafetyCertificate` proves no
    #: armed hazard can fire under the kernel's declared input contract
    #: (see :mod:`repro.static`).  Elision swaps the armed fused sweep,
    #: which counts every value against the rails, for the unarmed one;
    #: uncertified programs keep full observation.  Set False to force
    #: observation everywhere (the soundness cross-check then audits
    #: certificates via ``static_certificate_violations``).
    elide_sentinels: bool = True
    #: Run every compiled program through the optimizer's pass pipeline
    #: (:func:`repro.opt.default_pipeline`) before caching, with the
    #: kernel's consumed-output contract.  Optimized programs live on
    #: distinct cache keys (the pipeline signature is key material) and
    #: still face the static verifier; wins land in the ``opt_*``
    #: metrics counters.
    optimize_programs: bool = False
    #: Transport seam (:class:`repro.serve.transport.TransportConfig`):
    #: selects how batches cross the process boundary -- inline, or
    #: shared-memory rings with warm workers -- and sizes the rings.
    #: When None the ``workers`` knob rules, on default ring geometry.
    transport: Optional[object] = None
    #: Durability seam (:class:`repro.durable.journal.DurabilityConfig`):
    #: when set, the engine write-ahead journals job acceptance,
    #: dispatch attempts, completions and dead-lettering, and
    #: :meth:`Engine.recover` can replay the journal after a crash --
    #: completed jobs deduplicated, orphans resubmitted, DLQ
    #: rehydrated.  ``None`` (the default) costs nothing.
    durability: Optional[object] = None

    def __post_init__(self) -> None:
        if self.max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if self.workers < 0:
            raise ValueError("workers must be non-negative")
        if self.job_timeout_s <= 0:
            raise ValueError("job_timeout_s must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if not 0.0 <= self.validate_fraction <= 1.0:
            raise ValueError("validate_fraction must be in [0, 1]")
        if self.dlq_capacity < 0:
            raise ValueError("dlq_capacity must be non-negative")


class Engine:
    """Batched, cached, parallel execution of DP jobs.

    ``tracer`` (a :class:`repro.obs.trace.TraceRecorder`) is an
    ``__init__`` parameter rather than a config field because
    :class:`EngineConfig` is frozen and hashable while a recorder is
    live mutable state.  With a tracer attached, the engine emits the
    full job lifecycle -- submit instants, queue waits, per-batch
    compile (with cache hit counts) and execute spans, validation
    spans, expiry/quarantine events and the drain envelope -- and
    ingests ``job:run`` spans shipped back from worker processes.

    ``cache`` is a :class:`ProgramCache` whose entries this engine
    shares (a cluster router passes one to every shard, so a kernel
    compiles once per cluster); the engine still counts its own hits,
    misses and compiles.  Without one the engine has a private cache.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        tracer: Optional[object] = None,
        shard: Optional[str] = None,
        flight: Optional[object] = None,
        cache: Optional[ProgramCache] = None,
    ):
        self.config = config or EngineConfig()
        self.tracer = tracer
        #: Cluster shard label (None outside a cluster); stamps spans,
        #: metrics snapshots and result envelopes so one shared tracer
        #: can tell N shards apart.
        self.shard = shard
        #: Optional :class:`repro.slo.flight.FlightRecorder`; the
        #: reliability machinery trips it (black-box dump) on DLQ
        #: pushes, breaker opens, sentinel firings and drain faults.
        #: An attached tracer without its own flight tap inherits this
        #: one, so spans land in the ring too.
        self.flight = flight
        if (
            flight is not None
            and tracer is not None
            and getattr(tracer, "flight", None) is None
            and hasattr(tracer, "flight")
        ):
            tracer.flight = flight
        self.cache = (
            cache.view()
            if cache is not None
            else ProgramCache(capacity=self.config.cache_capacity)
        )
        self.batcher = Batcher(capacity=self.config.batch_capacity)
        self.metrics = MetricsRegistry(
            "engine", "reliability", "sentinel", "opt", "durable", "static"
        )
        self._queue: List[Job] = []
        self._floor = InlineExecutor()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._quarantined: Dict[str, str] = {}
        self._dlq = DeadLetterQueue(
            capacity=self.config.dlq_capacity,
            metrics=self.metrics,
        )
        #: Write-ahead journal (None without ``config.durability``).
        #: Imported lazily so an engine without durability never
        #: touches :mod:`repro.durable`.
        self.journal = None
        if self.config.durability is not None:
            from repro.durable.journal import Journal

            self.journal = Journal(
                self.config.durability, metrics=self.metrics
            )
        self._validation_rng = random.Random(self.config.reliability_seed)
        self._compile_attempts: Dict[str, int] = {}
        #: kernel -> (cache key, pass pipeline): a kernel's DFG and
        #: pipeline never change within an engine, so neither does its key.
        self._keys: Dict[str, Tuple[CacheKey, Optional[object]]] = {}
        self._last_drain_fault: Optional[str] = None
        self.executor = make_executor(
            self.config.workers,
            job_timeout_s=self.config.job_timeout_s,
            max_retries=self.config.max_retries,
            transport=self.config.transport,
            programs=self._warm_start(),
        )

    def _warm_start(self) -> List[CompiledProgram]:
        """Compile the transport's warm kernels, before the executor.

        Pre-seeds the engine's LRU cache (a hit when a cluster sibling
        compiled the kernel already) and returns the programs for the
        executor to broadcast and fuse before it forks its workers, so
        the first real request pays no compile and no worker builds a
        sweep.  Warm-start failures are logged, not fatal: a kernel
        that cannot compile will fail its first batch the normal way.
        """
        transport = self.config.transport
        programs: List[CompiledProgram] = []
        for kernel in getattr(transport, "warm_kernels", ()):
            try:
                compiled, _ = self.cache.get_or_compile(
                    *self._program_key(kernel)
                )
                programs.append(compiled)
                self.metrics.incr("warm_kernels_preloaded")
            except Exception as error:
                _LOG.warning(
                    "warm-start failed",
                    extra={
                        "kernel": kernel,
                        "error": f"{type(error).__name__}: {error}",
                    },
                )
        return programs

    # ------------------------------------------------------------------
    # submission

    def submit(self, job: Job) -> Job:
        """Enqueue *job*; raises :class:`BackpressureError` when full."""
        if len(self._queue) >= self.config.max_queue:
            self.metrics.incr("jobs_rejected")
            raise BackpressureError(
                f"queue full ({self.config.max_queue} jobs); drain first"
            )
        payload = job.payload
        if self.config.sentinels and not payload.get("_sentinels"):
            payload = dict(payload, _sentinels=True)
        if self.tracer is not None and "_trace" not in payload:
            # Correlation ids ride inside the payload so worker
            # processes (which cannot share the recorder) can stamp
            # their spans with the same trace/job ids.
            trace_ids = {
                "trace_id": self.tracer.trace_id,
                "job_id": job.job_id,
            }
            if self.shard is not None:
                trace_ids["shard"] = self.shard
            payload = dict(payload, _trace=trace_ids)
        stamped = replace(job, payload=payload, submitted_at=time.monotonic())
        if self.journal is not None:
            # Write-ahead: an un-journaled job is not accepted.  A
            # failed accept write propagates to the caller (the job is
            # refused, the queue untouched), so the journal can never
            # know *less* than the engine does.
            try:
                self.journal.accept(stamped)
            except Exception:
                self.metrics.incr("jobs_rejected")
                raise
        self._queue.append(stamped)
        self.metrics.incr("jobs_submitted")
        if self.tracer is not None:
            self.tracer.event(
                "job:submit",
                job_id=stamped.job_id,
                kernel=stamped.kernel,
                shard=self.shard,
            )
        return stamped

    def submit_many(self, jobs: List[Job]) -> List[Job]:
        return [self.submit(job) for job in jobs]

    @property
    def queued(self) -> int:
        return len(self._queue)

    def withdraw(self, max_jobs: Optional[int] = None) -> List[Job]:
        """Pull queued-but-undrained jobs back out (submission order).

        The cluster's work stealer uses this to move load off a hot or
        ejected shard.  Stealing takes from the *tail* of the queue, so
        the oldest jobs -- the ones about to drain -- stay on the
        engine that accepted them.
        """
        if max_jobs is None or max_jobs >= len(self._queue):
            taken, self._queue = self._queue, []
        elif max_jobs <= 0:
            return []
        else:
            taken = self._queue[-max_jobs:]
            self._queue = self._queue[:-max_jobs]
        if taken:
            self.metrics.incr("jobs_withdrawn", len(taken))
        return taken

    # ------------------------------------------------------------------
    # drain

    def drain(self) -> List[JobResult]:
        """Run everything queued; returns results in submission order.

        Crash-safe: every popped job gets exactly one envelope.  An
        exception anywhere in the drain internals becomes an
        ``engine-fault`` error envelope for the jobs it stranded.
        """
        jobs, self._queue = self._queue, []
        if not jobs:
            return []
        trace_id = self.tracer.trace_id if self.tracer is not None else None
        with log_context(trace_id=trace_id):
            return self._drain(jobs)

    def _drain(self, jobs: List[Job]) -> List[JobResult]:
        self._last_drain_fault = None
        _LOG.info("drain started", extra={"jobs": len(jobs)})
        drain_start = self.tracer.now() if self.tracer is not None else 0.0
        results: Dict[int, JobResult] = {}
        try:
            self._execute_drain(jobs, results)
        except Exception as error:
            self.metrics.incr("drain_faults")
            self._last_drain_fault = f"{type(error).__name__}: {error}"
            _LOG.error("drain fault: %s", self._last_drain_fault)
            self._flight_trip(
                "drain-fault", error=self._last_drain_fault, jobs=len(jobs)
            )

        ordered: List[JobResult] = []
        for job in jobs:
            result = results.get(job.job_id)
            if result is None:
                self.metrics.incr("jobs_failed")
                result = JobResult(
                    job_id=job.job_id,
                    kernel=job.kernel,
                    ok=False,
                    error=(
                        "engine-fault: "
                        + (self._last_drain_fault or "drain aborted")
                    ),
                )
            if not result.ok and result.error != "deadline-expired":
                self._dead_letter(job, result)
            if self.journal is not None:
                self.journal.complete(result.job_id, result.ok, result.error)
            if result.shard is None:
                result.shard = self.shard
            ordered.append(result)
        ok_count = sum(1 for result in ordered if result.ok)
        if self.tracer is not None:
            self.tracer.add_span(
                "engine:drain",
                drain_start,
                self.tracer.now(),
                jobs=len(jobs),
                ok=ok_count,
                failed=len(ordered) - ok_count,
                shard=self.shard,
            )
        _LOG.info(
            "drain complete",
            extra={
                "jobs": len(jobs),
                "ok": ok_count,
                "failed": len(ordered) - ok_count,
            },
        )
        return ordered

    def _execute_drain(self, jobs: List[Job], results: Dict[int, JobResult]) -> None:
        now = time.monotonic()
        # ``submitted_at`` is monotonic; translate queue waits onto the
        # tracer's (wall-clock) axis by ending them "now".
        wall = self.tracer.now() if self.tracer is not None else 0.0
        live: List[Job] = []
        for job in jobs:
            waited = now - job.submitted_at
            if self.tracer is not None:
                self.tracer.add_span(
                    "job:queue",
                    wall - waited,
                    wall,
                    cat="queue",
                    job_id=job.job_id,
                    kernel=job.kernel,
                )
            expired = job.deadline_s is not None and (
                job.deadline_s == 0 or waited > job.deadline_s
            )
            if expired:
                self.metrics.incr("jobs_expired")
                if self.tracer is not None:
                    self.tracer.event(
                        "job:expired", job_id=job.job_id, kernel=job.kernel
                    )
                results[job.job_id] = JobResult(
                    job_id=job.job_id,
                    kernel=job.kernel,
                    ok=False,
                    error="deadline-expired",
                    timings={"queue_wait_s": waited},
                )
            elif job.kernel in self._quarantined:
                if self.tracer is not None:
                    self.tracer.event(
                        "job:reference", job_id=job.job_id, kernel=job.kernel
                    )
                self._run_reference(job, results)
            else:
                live.append(job)

        batches = self.batcher.pack(live)
        self.metrics.incr("batches_total", len(batches))
        if self.journal is not None:
            for batch in batches:
                for job in batch.jobs:
                    self.journal.attempt(job.job_id)

        # Resolve compiled programs: one cache lookup per *job* (the
        # hit-rate metric's unit), one DPMap compile per distinct key.
        # A failed compile fails its batch's jobs, not the drain.
        executable: List[Tuple[Batch, CompiledProgram, Dict[str, object]]] = []
        for batch in batches:
            compile_start = (
                self.tracer.now() if self.tracer is not None else 0.0
            )
            try:
                compiled, hits = self._resolve_program(batch)
            except Exception as error:
                self.metrics.incr("compile_failed_batches")
                if self.tracer is not None:
                    self.tracer.add_span(
                        "batch:compile",
                        compile_start,
                        self.tracer.now(),
                        cat="compile",
                        batch_id=batch.batch_id,
                        kernel=batch.kernel,
                        ok=False,
                    )
                _LOG.warning(
                    "compile failed",
                    extra={
                        "kernel": batch.kernel,
                        "batch_id": batch.batch_id,
                        "error": f"{type(error).__name__}: {error}",
                    },
                )
                for job in batch.jobs:
                    self.metrics.incr("jobs_failed")
                    results[job.job_id] = JobResult(
                        job_id=job.job_id,
                        kernel=job.kernel,
                        ok=False,
                        error=f"compile-failed: {type(error).__name__}: {error}",
                        batch_id=batch.batch_id,
                    )
                continue
            if self.tracer is not None:
                self.tracer.add_span(
                    "batch:compile",
                    compile_start,
                    self.tracer.now(),
                    cat="compile",
                    batch_id=batch.batch_id,
                    kernel=batch.kernel,
                    jobs=len(batch.jobs),
                    cache_hits=sum(hits.values()),
                    cache_misses=len(hits) - sum(hits.values()),
                    ok=True,
                )
            self.metrics.observe(
                "batch_occupancy", batch.occupancy, bounds=OCCUPANCY_BOUNDS
            )
            certificate = compiled.certificate or {}
            certified = bool(certificate.get("sentinel_free"))
            meta = {
                "hits": hits,
                "compile_s": compiled.compile_seconds,
                "certified": certified,
            }
            # Sentinel elision: a certificate proves no armed hazard
            # can fire for in-contract inputs, so the ``_sentinels`` key
            # is dropped before dispatch and the job runs the unarmed
            # fused sweep, not the armed one.  Payload dicts are per-job
            # copies made at submit, so popping here mutates nothing
            # shared.
            if (
                certified
                and self.config.sentinels
                and self.config.elide_sentinels
            ):
                for job in batch.jobs:
                    if job.payload.pop("_sentinels", None):
                        self.metrics.incr("static_sentinel_elisions")
            executable.append((batch, compiled, meta))

        # Circuit breaker: kernels whose batches keep killing workers
        # are short-circuited straight to the inline floor.
        use_breaker = getattr(self.executor, "backend", "inline") == "shm"
        worker_entries, floor_entries = [], []
        for entry in executable:
            if use_breaker and not self._breaker_for(entry[0].kernel).allow():
                self.metrics.incr("breaker_short_circuits")
                floor_entries.append(entry)
            else:
                worker_entries.append(entry)

        dispatch_time = time.monotonic()
        paired: List[Tuple[Tuple[Batch, CompiledProgram, Dict], BatchOutcome]] = []
        if worker_entries:
            outcomes = self.executor.run_batches(
                [(batch, compiled) for batch, compiled, _ in worker_entries]
            )
            paired.extend(zip(worker_entries, outcomes))
        if floor_entries:
            outcomes = self._floor.run_batches(
                [(batch, compiled) for batch, compiled, _ in floor_entries]
            )
            paired.extend(zip(floor_entries, outcomes))

        breaker_fed = {id(entry) for entry in worker_entries}
        for entry, outcome in paired:
            batch, _, meta = entry
            if use_breaker and id(entry) in breaker_fed:
                breaker = self._breaker_for(batch.kernel)
                if outcome.degraded:
                    if breaker.record_failure():
                        self.metrics.incr("breaker_opened")
                        self._flight_trip(
                            "breaker-open", kernel=batch.kernel
                        )
                else:
                    breaker.record_success()
            self._fold_outcome(batch, meta, outcome, dispatch_time, results)

    # ------------------------------------------------------------------
    # drain helpers

    def _program_key(
        self, kernel: str
    ) -> Tuple[CacheKey, Callable[[], CompiledProgram]]:
        """*kernel*'s cache key and the compile to run on a miss.

        The first call in an engine builds the kernel's DFG (and, when
        optimization is on, its pass pipeline -- ``repro.opt`` is
        imported lazily, so an engine without it never touches the
        optimizer) to derive the key, and a miss compiles from that
        DFG.  Later calls reuse the key; a miss then -- the program was
        evicted -- compiles from a freshly built DFG.
        """
        resolved = self._keys.get(kernel)
        dfg = None
        if resolved is None:
            dfg = build_dfg(kernel)
            pipeline = None
            if self.config.optimize_programs:
                from repro.opt import contract_for, default_pipeline

                pipeline = default_pipeline(contract_for(kernel))
            key = self.cache.key_for(
                kernel,
                CU_LEVELS,
                dfg,
                pipeline.signature() if pipeline is not None else "",
            )
            resolved = self._keys[kernel] = (key, pipeline)
        key, pipeline = resolved

        def compile_fn() -> CompiledProgram:
            nonlocal dfg
            if dfg is None:
                dfg = build_dfg(kernel)
            return self._compile(kernel, dfg, pipeline)

        return key, compile_fn

    def _resolve_program(
        self, batch: Batch
    ) -> Tuple[CompiledProgram, Dict[int, bool]]:
        key, compile_fn = self._program_key(batch.kernel)
        compiled: Optional[CompiledProgram] = None
        hits: Dict[int, bool] = {}
        for job in batch.jobs:
            compiled, hit = self.cache.get_or_compile(key, compile_fn)
            hits[job.job_id] = hit
            if not hit:
                self.metrics.observe("compile_s", compiled.compile_seconds)
        return compiled, hits

    def _compile(
        self, kernel: str, dfg, pipeline: Optional[object] = None
    ) -> CompiledProgram:
        plan = self.config.fault_plan
        if plan is not None:
            attempt = self._compile_attempts.get(kernel, 0) + 1
            self._compile_attempts[kernel] = attempt
            plan.maybe_fail_compile(kernel, attempt)
        # The 3-arg call shape is the engine's compile seam (tests and
        # fault hooks wrap it); the pipeline rides along only when set.
        if pipeline is None:
            compiled = compile_program(kernel, CU_LEVELS, dfg)
        else:
            compiled = compile_program(
                kernel, CU_LEVELS, dfg, pipeline
            )
        if compiled.opt_stats is not None:
            self.metrics.incr("opt_programs_optimized")
            self.metrics.incr(
                "opt_instructions_eliminated",
                compiled.opt_stats.get("instructions_eliminated", 0),
            )
            self.metrics.incr(
                "opt_ways_repacked", compiled.opt_stats.get("ways_repacked", 0)
            )
        check = check_program(compiled, name=kernel)
        if not check.ok:
            # Raising here means ProgramCache.get_or_compile counts a
            # compile failure and inserts nothing: an illegal program
            # can never be cached, let alone executed.
            self.metrics.incr("verifier_rejections")
            check.raise_if_violations()
        # Value-range certification runs after the verifier so only
        # structurally legal programs earn certificates.  An analysis
        # failure degrades to "no certificate" (sentinels stay on);
        # it must never fail the compile.
        from repro.static.certify import compiled_certificate

        certificate = compiled_certificate(kernel, compiled)
        if certificate is not None:
            if certificate.get("sentinel_free"):
                self.metrics.incr("static_programs_certified")
            else:
                self.metrics.incr("static_programs_uncertified")
            compiled = replace(compiled, certificate=certificate)
        else:
            self.metrics.incr("static_programs_uncertified")
        return compiled

    def _fold_outcome(
        self,
        batch: Batch,
        meta: Dict[str, object],
        outcome: BatchOutcome,
        dispatch_time: float,
        results: Dict[int, JobResult],
    ) -> None:
        if outcome.backend == "shm":
            self.metrics.incr("parallel_batches")
        else:
            self.metrics.incr("inline_batches")
        if outcome.degraded:
            self.metrics.incr("degraded_batches")
        if outcome.attempts > 1:
            self.metrics.incr("batch_retries", outcome.attempts - 1)
        self.metrics.observe("execute_s", outcome.execute_seconds)
        if outcome.transport_bytes:
            self.metrics.incr("transport_bytes", outcome.transport_bytes)
            self.metrics.observe(
                "transport_batch_bytes", float(outcome.transport_bytes)
            )
        if self.tracer is not None:
            # The executor runs all batches in one call, so per-batch
            # execute intervals are reconstructed from the measured
            # execute_seconds ending at fold time.
            fold_time = self.tracer.now()
            self.tracer.add_span(
                "batch:execute",
                fold_time - outcome.execute_seconds,
                fold_time,
                cat="execute",
                batch_id=batch.batch_id,
                kernel=batch.kernel,
                jobs=len(batch.jobs),
                backend=outcome.backend,
                attempts=outcome.attempts,
                degraded=outcome.degraded,
            )
        per_job = outcome.execute_seconds / max(1, len(batch.jobs))
        for job, result in zip(batch.jobs, outcome.results):
            wait = dispatch_time - job.submitted_at
            self.metrics.observe("queue_wait_s", wait)
            ok = bool(result.get("ok"))
            value = result.get("value")
            error = result.get("error")
            if isinstance(value, dict) and "_sentinels" in value:
                counts = value.pop("_sentinels")
                # Soundness cross-check: a certified program whose
                # (non-elided) sentinels still fired means the static
                # analysis lied.  The counter must stay zero; the
                # property suite treats any increment as a hard
                # failure.
                if meta.get("certified") and any(
                    int(count)
                    for name, count in counts.items()
                    if name != "values_observed"
                ):
                    self.metrics.incr("static_certificate_violations")
                for name, count in counts.items():
                    self.metrics.incr(f"sentinel_{name}", int(count))
                hazards = {
                    name: int(count)
                    for name, count in counts.items()
                    if name != "values_observed" and int(count)
                }
                if hazards:
                    self._flight_trip(
                        "sentinel",
                        job_id=job.job_id,
                        kernel=job.kernel,
                        **hazards,
                    )
            if isinstance(value, dict) and "_trace_spans" in value:
                spans = value.pop("_trace_spans")
                if self.tracer is not None:
                    self.tracer.ingest(spans)
            if ok and self._should_validate():
                self.metrics.incr("validation_checked")
                validate_start = (
                    self.tracer.now() if self.tracer is not None else 0.0
                )
                try:
                    valid = matches_reference(job.kernel, value, job.payload)
                except Exception:
                    valid = False
                if self.tracer is not None:
                    self.tracer.add_span(
                        "job:validate",
                        validate_start,
                        self.tracer.now(),
                        cat="validate",
                        job_id=job.job_id,
                        kernel=job.kernel,
                        valid=valid,
                    )
                if not valid:
                    self.metrics.incr("validation_mismatches")
                    self._quarantine(job.kernel, "validation-mismatch")
                    ok, value, error = False, None, "validation-mismatch"
            self.metrics.incr("jobs_completed" if ok else "jobs_failed")
            results[job.job_id] = JobResult(
                job_id=job.job_id,
                kernel=job.kernel,
                ok=ok,
                value=value,
                error=error,
                batch_id=batch.batch_id,
                cache_hit=bool(meta["hits"].get(job.job_id)),
                attempts=outcome.attempts,
                backend=outcome.backend,
                timings={
                    "queue_wait_s": wait,
                    "compile_s": float(meta["compile_s"]),
                    "execute_s": per_job,
                },
            )

    def _run_reference(self, job: Job, results: Dict[int, JobResult]) -> None:
        """Serve a quarantined kernel's job from the software baseline."""
        self.metrics.incr("reference_jobs")
        started = time.perf_counter()
        try:
            value: Optional[Dict[str, Any]] = reference_result(
                job.kernel, job.payload
            )
            ok, error = True, None
        except Exception as err:
            ok, value, error = False, None, f"{type(err).__name__}: {err}"
        self.metrics.incr("jobs_completed" if ok else "jobs_failed")
        results[job.job_id] = JobResult(
            job_id=job.job_id,
            kernel=job.kernel,
            ok=ok,
            value=value,
            error=error,
            backend="reference",
            timings={"execute_s": time.perf_counter() - started},
        )

    def _should_validate(self) -> bool:
        fraction = self.config.validate_fraction
        if fraction <= 0.0:
            return False
        if fraction >= 1.0:
            return True
        return self._validation_rng.random() < fraction

    def _breaker_for(self, kernel: str) -> CircuitBreaker:
        breaker = self._breakers.get(kernel)
        if breaker is None:
            breaker = CircuitBreaker()
            self._breakers[kernel] = breaker
        return breaker

    def _quarantine(self, kernel: str, reason: str) -> None:
        if kernel not in self._quarantined:
            self._quarantined[kernel] = reason
            self.metrics.incr("kernels_quarantined")
            if self.tracer is not None:
                self.tracer.event(
                    "kernel:quarantined", kernel=kernel, reason=reason
                )
            _LOG.warning(
                "kernel quarantined",
                extra={"kernel": kernel, "reason": reason},
            )

    def _dead_letter(self, job: Job, result: JobResult) -> None:
        if self.config.dlq_capacity <= 0:
            return
        # ``push`` itself bumps ``dead_letters_dropped`` on overflow,
        # so callers that ignore the return value still count drops.
        if self._dlq.push(job, result.error or "unknown", result.attempts):
            self.metrics.incr("dead_letters")
            self._flight_trip(
                "dead-letter",
                job_id=job.job_id,
                kernel=job.kernel,
                error=result.error or "unknown",
                attempts=result.attempts,
            )
            if self.journal is not None:
                self.journal.dead_letter(
                    job.job_id, result.error or "unknown", result.attempts
                )

    def _flight_trip(self, reason: str, **context: Any) -> None:
        """Trip the flight recorder; forensics never fail the engine."""
        if self.flight is None:
            return
        try:
            if self.shard is not None:
                context.setdefault("shard", self.shard)
            self.flight.note_counters(self.metrics.counters)
            self.flight.trip(reason, **context)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # reliability surface

    @property
    def quarantined(self) -> Dict[str, str]:
        """Quarantined kernels and why (kernel -> reason)."""
        return dict(self._quarantined)

    def lift_quarantine(self, kernel: str) -> bool:
        """Allow *kernel* back onto the compiled path; True if it was
        quarantined."""
        return self._quarantined.pop(kernel, None) is not None

    @property
    def dead_letters(self) -> List[DeadLetter]:
        """Parked failed jobs, oldest first (a copy)."""
        return self._dlq.letters()

    def replay_dead_letters(self) -> List[Job]:
        """Resubmit every dead letter under its id; returns the
        resubmitted jobs (see :meth:`DeadLetterQueue.replay`)."""
        return self._dlq.replay(self.submit)

    def recover(self):
        """Replay the write-ahead journal after a restart.

        Deduplicates completed jobs, resubmits orphans with their
        original ids, rehydrates the DLQ, and returns a
        :class:`repro.durable.recovery.RecoveryReport`.  The recovered
        orphans sit in the queue afterwards -- the caller's next
        :meth:`drain` delivers their envelopes.
        """
        if self.journal is None:
            raise ValueError(
                "engine has no journal; set EngineConfig.durability"
            )
        from repro.durable.recovery import recover_engine

        return recover_engine(self)

    # ------------------------------------------------------------------
    # introspection / lifecycle

    def snapshot(self) -> Dict[str, object]:
        """Engine + cache metrics as one plain dict."""
        snap = self.metrics.snapshot()
        snap["cache"] = self.cache.stats.snapshot()
        snap["quarantined"] = sorted(self._quarantined)
        snap["dead_letter_backlog"] = len(self._dlq)
        if self.shard is not None:
            snap["shard"] = self.shard
        # Scrapeable reliability state: per-kernel breaker codes and
        # instantaneous depth gauges (see repro.obs.export).
        snap["breakers"] = {
            kernel: float(BREAKER_CODES[breaker.state])
            for kernel, breaker in sorted(self._breakers.items())
        }
        snap["gauges"] = {
            "dlq_depth": float(len(self._dlq)),
            "queue_depth": float(len(self._queue)),
        }
        occupancy = self.metrics.histograms.get("batch_occupancy")
        snap["derived"] = {
            "cache_hit_rate": self.cache.stats.hit_rate,
            "mean_batch_occupancy": occupancy.mean if occupancy else 0.0,
        }
        if self.flight is not None:
            # Fold the flight ring's own counters into the scrape (the
            # recorder may keep a separate registry) plus ring gauges.
            snap["counters"].update(self.flight.metrics.family("flight"))
            snap["flight"] = {
                "ring_entries": float(len(self.flight)),
                "ring_dropped": float(self.flight.dropped),
                "dumps_written": float(self.flight.dumps_written),
            }
        return snap

    def close(self) -> None:
        self.executor.close()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
