"""Counters and latency histograms for the execution engine.

Deliberately dependency-free (no prometheus client in the container):
a counter is an int, a histogram is fixed bucket bounds plus count /
sum / min / max, and :meth:`MetricsRegistry.snapshot` exports the whole
registry as a plain nested dict -- the contract every later exporter
(CLI report, JSON dump, scrape endpoint) builds on.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Default latency bucket upper bounds, in seconds.
DEFAULT_LATENCY_BOUNDS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

#: Occupancy buckets (fractions of batch capacity).
OCCUPANCY_BOUNDS: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)

#: Every counter the code bumps, declared once: family -> names.  An
#: owner pre-registers its families at zero (``MetricsRegistry(*families)``
#: or :meth:`MetricsRegistry.register`), so its scrape carries the whole
#: schema from the first sample and each counter is exported once, as a
#: counter.  ``tests/engine/test_metrics.py`` checks the table against
#: the ``incr`` sites in both directions.  Apart from ``engine`` and
#: ``reliability``, a family's name is its counters' prefix.
COUNTERS: Dict[str, Tuple[str, ...]] = {
    # Job and batch volume on the engine's submit/drain path.
    "engine": (
        "jobs_submitted",  # jobs accepted into the queue
        "jobs_completed",  # result envelopes with ok=True
        "jobs_failed",  # result envelopes with ok=False
        "jobs_rejected",  # submissions refused (queue full, accept unjournaled)
        "jobs_expired",  # jobs whose deadline passed in the queue
        "jobs_withdrawn",  # queued jobs the cluster router took back
        "batches_total",  # batches the drain packed
        "parallel_batches",  # batches run on the shm workers
        "inline_batches",  # batches run in-process
        "transport_bytes",  # slot bytes moved over the shm rings
        "warm_kernels_preloaded",  # kernels compiled and broadcast at start
    ),
    # The hardened engine's failure modes (all zero on a healthy run;
    # ``docs/reliability.md`` maps each to its failure mode).
    "reliability": (
        "batch_retries",  # worker resubmissions after worker death/timeout
        "degraded_batches",  # batches that fell to the inline floor
        "breaker_opened",  # circuit-breaker open transitions
        "breaker_short_circuits",  # batches routed inline by an open breaker
        "compile_failed_batches",  # batches whose program compile raised
        "validation_checked",  # results re-checked against the oracle
        "validation_mismatches",  # corrupted results the guard caught
        "kernels_quarantined",  # kernels rerouted to the reference path
        "reference_jobs",  # jobs served by the software baseline
        "dead_letters",  # failed jobs parked for replay
        "dead_letters_dropped",  # DLQ overflow (newest letter discarded)
        "dead_letters_replayed",  # letters resubmitted via replay
        "drain_faults",  # drain internals raised; envelopes synthesized
        "verifier_rejections",  # illegal programs the static verifier refused
    ),
    # Numerical sentinels, folded from per-job snapshots when
    # ``EngineConfig.sentinels`` is on.  Mirrors
    # :data:`repro.guard.sentinels.SENTINEL_FIELDS`; all-zero hazard
    # counts on a healthy run (``values_observed`` is volume, not error).
    "sentinel": (
        "sentinel_values_observed",  # ALU values watched
        "sentinel_int32_overflows",  # values outside the signed-32 rails
        "sentinel_lane_saturations",  # values an 8-bit SIMD lane would clamp
        "sentinel_underflows",  # values at/below the log-domain floor
    ),
    # Program optimizer, bumped at compile time when
    # ``EngineConfig.optimize_programs`` is on.  Compiles are cached, so
    # these count distinct compiles, not jobs.
    "opt": (
        "opt_programs_optimized",  # compiles run through the pass pipeline
        "opt_instructions_eliminated",  # VLIW bundles removed across compiles
        "opt_ways_repacked",  # ways moved to a different bundle by re-packing
    ),
    # The write-ahead journal (:mod:`repro.durable.journal`) and its
    # recovery replay (:mod:`repro.durable.recovery`).
    # ``durable_duplicate_completions`` is the exactly-once audit
    # counter: recovery's dedupe working means it stays zero.
    "durable": (
        "durable_records_appended",  # frames written to the journal
        "durable_accepts_logged",  # jobs journaled before entering the queue
        "durable_attempts_logged",  # dispatch attempts journaled
        "durable_completions_logged",  # result envelopes journaled
        "durable_dead_letters_logged",  # DLQ parks journaled
        "durable_syncs",  # fsync calls issued (policy-dependent)
        "durable_write_errors",  # appends lost to disk faults (tolerated)
        "durable_writes_healed",  # bad frames caught by read-back verify
        "durable_truncated_bytes",  # bytes dropped at torn-tail truncation
        "durable_corrupt_frames",  # corrupt frame runs found at replay
        "durable_recoveries",  # journal replays performed
        "durable_replayed_records",  # records folded during replays
        "durable_orphans_resubmitted",  # accepted-unfinished jobs re-queued
        "durable_completions_deduped",  # journaled-terminal jobs not re-run
        "durable_duplicate_completions",  # audit: 2nd completion per id (= 0)
        "durable_compactions",  # snapshot compactions performed
    ),
    # Static analysis: certificate issuance at the compile seam, sentinel
    # elision and its soundness cross-check at dispatch/fold.
    # ``static_certificate_violations`` is the soundness audit counter: a
    # runtime sentinel firing on a program whose certificate proved it
    # sentinel-free.  The analysis being sound means it stays zero.
    "static": (
        "static_programs_certified",  # compiles whose certificate proves sentinel-freedom
        "static_programs_uncertified",  # compiles analyzed but not provably safe
        "static_sentinel_elisions",  # jobs whose sentinel observation was elided
        "static_certificate_violations",  # audit: sentinel fired on certified program (= 0)
    ),
    # The ``gendp-serve`` front door (:mod:`repro.serve.server`), in the
    # registry of the engine (or router) it fronts.
    "serve": (
        "serve_connections",  # client connections accepted
        "serve_requests",  # request lines received
        "serve_admitted",  # jobs past admission control
        "serve_rejected_draining",  # admission refused: shutting down
        "serve_rejected_backpressure",  # admission refused: too many pending
        "serve_rejected_quota",  # admission refused: tenant bucket empty
        "serve_dispatches",  # job batches handed to the engine
        "serve_responses",  # response lines written
        "serve_errors",  # malformed requests, bad jobs, journal refusals
        "serve_journaled",  # dedupe requests journaled before running
        "serve_deduped",  # resends answered from the journal
        "serve_recovered",  # orphaned requests re-run at startup
    ),
    # The cluster front door (:mod:`repro.cluster.router`).
    "cluster": (
        "cluster_jobs_routed",  # jobs placed on a shard by the ring
        "cluster_route_fallbacks",  # ring hops past unavailable/full shards
        "cluster_jobs_stolen",  # jobs moved by work stealing
        "cluster_jobs_resubmitted",  # failover resubmissions after shard loss
        "cluster_jobs_unroutable",  # synthesized cluster-fault envelopes
        "cluster_duplicate_envelopes",  # exactly-once audit (must stay 0)
        "cluster_shards_joined",  # shards added (initial + join())
        "cluster_shards_left",  # graceful leaves completed
        "cluster_shards_killed",  # crash kills (chaos or operator)
        "cluster_shards_ejected",  # breaker-opened hash-range ejections
        "cluster_shards_rejoined",  # post-cooldown rejoin probes admitted
        "cluster_partitions_injected",  # shard-unreachable faults applied
        "cluster_hangs_injected",  # slow-drain faults applied
        "cluster_drain_rounds",  # router drain rounds executed
    ),
    # The SLO evaluator (:mod:`repro.slo.burnrate`), in whatever
    # registry it is handed (the engine's, for one scrape surface).
    "slo": (
        "slo_evaluations",  # observe() calls folded into the history
        "slo_alerts_fired",  # window transitions into burning
        "slo_alerts_resolved",  # window transitions out of burning
        "slo_windows_burning",  # objective x window pairs burning now
    ),
    # One registry per tenant (:mod:`repro.slo.accounting`).
    "tenant": (
        "tenant_jobs_submitted",  # jobs admitted for this tenant
        "tenant_jobs_completed",  # result envelopes with ok=True
        "tenant_jobs_failed",  # result envelopes with ok=False
        "tenant_rejections",  # admission rejections, any reason
        "tenant_quota_rejections",  # the token-bucket subset
        "tenant_cells_computed",  # estimated DP cells across completed jobs
        "tenant_transport_bytes",  # NDJSON request+response bytes
        "tenant_compute_us",  # execute-time microseconds across envelopes
    ),
    # The flight recorder (:mod:`repro.slo.flight`), in whatever
    # registry it is handed.
    "flight": (
        "flight_entries_recorded",  # ring appends (post-sampling)
        "flight_trips",  # trigger events seen (dumped or not)
        "flight_dumps_written",  # black boxes written to disk
        "flight_dumps_suppressed",  # trips past the max_dumps cap
    ),
}


@dataclass
class Histogram:
    """A fixed-bucket histogram with sum/min/max tracking."""

    bounds: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self) -> None:
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        if not self.counts:
            # One bucket per bound plus the +inf overflow bucket.
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        # bisect_left preserves the ``value <= bound`` bucket edge the
        # linear scan used (a value equal to a bound stays in its bucket).
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile by interpolating within buckets.

        Shares the estimator with the exporters
        (:func:`repro.obs.export.quantile_from_buckets`), clamped to
        the tracked min/max so tails never extrapolate past observed
        values.
        """
        from repro.obs.export import quantile_from_buckets

        buckets = list(zip(list(self.bounds) + ["inf"], self.counts))
        return quantile_from_buckets(
            buckets, q, minimum=self.minimum, maximum=self.maximum
        )

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": [
                [bound, count]
                for bound, count in zip(list(self.bounds) + ["inf"], self.counts)
            ],
        }


class MetricsRegistry:
    """Named counters and histograms with a plain-dict export.

    *families* (keys of :data:`COUNTERS`) are registered at zero.
    """

    def __init__(self, *families: str) -> None:
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.register(*families)

    def register(self, *families: str) -> None:
        """Pre-register every counter of *families* at zero."""
        for family in families:
            for name in COUNTERS[family]:
                self.counters.setdefault(name, 0)

    def family(self, family: str) -> Dict[str, int]:
        """One :data:`COUNTERS` family's values, in table order."""
        return {name: self.counters.get(name, 0) for name in COUNTERS[family]}

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS
    ) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(bounds=tuple(bounds))
        return self.histograms[name]

    def observe(
        self,
        name: str,
        value: float,
        bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS,
    ) -> None:
        self.histogram(name, bounds).observe(value)

    def snapshot(self) -> Dict[str, object]:
        return {
            "counters": dict(self.counters),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in self.histograms.items()
            },
        }
