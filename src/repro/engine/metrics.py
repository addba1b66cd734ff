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

#: Reliability counters the hardened engine maintains (all zero on a
#: healthy run; ``docs/reliability.md`` maps each to its failure mode).
#: Exported as one block by :meth:`MetricsRegistry.reliability` so the
#: CLI report and chaos campaigns read a stable schema.
RELIABILITY_COUNTERS: Tuple[str, ...] = (
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
)

#: Numerical-sentinel counters (prefixed ``sentinel_``), folded from
#: per-job snapshots when ``EngineConfig.sentinels`` is on.  Mirrors
#: :data:`repro.guard.sentinels.SENTINEL_FIELDS`; all-zero hazard
#: counts on a healthy run (``values_observed`` is volume, not error).
SENTINEL_COUNTERS: Tuple[str, ...] = (
    "sentinel_values_observed",  # ALU values watched
    "sentinel_int32_overflows",  # values outside the signed-32 rails
    "sentinel_lane_saturations",  # values an 8-bit SIMD lane would clamp
    "sentinel_underflows",  # values at/below the log-domain floor
)

#: Program-optimizer counters (prefixed ``opt_``), bumped at compile
#: time when ``EngineConfig.optimize_programs`` is on.  Compiles are
#: cached, so these count distinct compiles, not jobs.
OPT_COUNTERS: Tuple[str, ...] = (
    "opt_programs_optimized",  # compiles run through the pass pipeline
    "opt_instructions_eliminated",  # VLIW bundles removed across compiles
    "opt_ways_repacked",  # ways moved to a different bundle by re-packing
)

#: Durability counters (prefixed ``durable_``), maintained by the
#: write-ahead journal (:mod:`repro.durable.journal`) and the recovery
#: replay (:mod:`repro.durable.recovery`) when ``EngineConfig.durability``
#: is set.  ``durable_duplicate_completions`` is the exactly-once audit
#: counter: recovery's dedupe working means it stays zero.
DURABLE_COUNTERS: Tuple[str, ...] = (
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
)

#: Static-analysis counters (prefixed ``static_``), maintained by the
#: compile seam (certificate issuance) and the dispatch/fold paths
#: (sentinel elision and its soundness cross-check).
#: ``static_certificate_violations`` is the soundness audit counter: a
#: runtime sentinel firing on a program whose certificate proved it
#: sentinel-free.  The analysis being sound means it stays zero.
STATIC_COUNTERS: Tuple[str, ...] = (
    "static_programs_certified",  # compiles whose certificate proves sentinel-freedom
    "static_programs_uncertified",  # compiles analyzed but not provably safe
    "static_sentinel_elisions",  # jobs whose sentinel observation was elided
    "static_certificate_violations",  # audit: sentinel fired on certified program (= 0)
)


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
    """Named counters and histograms with a plain-dict export."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}

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

    def reliability(self) -> Dict[str, int]:
        """The reliability counters as one fixed-schema dict."""
        return {name: self.counters.get(name, 0) for name in RELIABILITY_COUNTERS}

    def sentinels(self) -> Dict[str, int]:
        """The numerical-sentinel counters as one fixed-schema dict."""
        return {name: self.counters.get(name, 0) for name in SENTINEL_COUNTERS}

    def optimization(self) -> Dict[str, int]:
        """The program-optimizer counters as one fixed-schema dict."""
        return {name: self.counters.get(name, 0) for name in OPT_COUNTERS}

    def durability(self) -> Dict[str, int]:
        """The journal/recovery counters as one fixed-schema dict."""
        return {name: self.counters.get(name, 0) for name in DURABLE_COUNTERS}

    def static(self) -> Dict[str, int]:
        """The static-analysis counters as one fixed-schema dict."""
        return {name: self.counters.get(name, 0) for name in STATIC_COUNTERS}

    def snapshot(self) -> Dict[str, object]:
        return {
            "counters": dict(self.counters),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in self.histograms.items()
            },
        }
