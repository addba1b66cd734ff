"""Durability tax and recovery speed for the write-ahead journal.

Two questions an operator asks before turning ``EngineConfig.durability``
on in production:

- **What does the journal cost on the hot path?**  The same 96-job BSW
  stream as the serving benchmark, on the shared-memory warm-worker
  transport, with the journal off vs on.  At ``fsync=interval`` (the
  default policy: batched syncs on a clock) the throughput penalty must
  stay within 15%.  ``fsync=always`` is published alongside as the
  worst-case point -- one ``fsync`` per record is the price of zero
  power-loss window, and it is *expected* to be expensive.

- **How long does a restart take?**  Recovery replays the journal
  before the engine serves again, so startup latency grows with journal
  length.  The curve times ``Engine.recover()`` over fully-completed
  journals of 100 / 1,000 / 5,000 records (pure replay + dedupe, no
  re-execution), plus the same 5,000-record journal after snapshot
  compaction -- the operational answer to an unbounded curve.

The table goes to ``results/durability.txt``.  ``cluster_durable`` in
``bench/`` tracks journal-on throughput and recovery with variance;
the on-vs-off overhead and the recovery curve are measured only here.
"""

import time

from repro.analysis.report import render_table
from repro.durable import DurabilityConfig, Journal
from repro.engine import Engine, EngineConfig, make_job
from repro.serve import TransportConfig
from repro.workloads.reads import generate_bsw_workload

JOB_COUNT = 96
REPEATS = 3
#: Journal lengths (records) for the recovery curve; every job
#: contributes an ``accept`` and a ``complete`` frame.
CURVE_RECORDS = (100, 1000, 5000)

#: label -> fsync policy (None = journal off).
STREAM_CONFIGS = (
    ("journal off", None),
    ("journal on, fsync=interval", "interval"),
    ("journal on, fsync=always", "always"),
)


def _jobs():
    workload = generate_bsw_workload(
        count=JOB_COUNT, query_length=32, target_length=24, seed=5
    )
    return [
        make_job("bsw", {"query": pair.query, "target": pair.target})
        for pair in workload.pairs
    ]


def _run_stream(wal_dir, fsync):
    """Drain one warm BSW stream; returns (jobs/sec, counters)."""
    durability = None
    if fsync is not None:
        durability = DurabilityConfig(dir_path=str(wal_dir), fsync=fsync)
    config = EngineConfig(
        max_queue=JOB_COUNT,
        transport=TransportConfig(
            backend="shm",
            workers=2,
            warm_kernels=("bsw",),
            poll_interval_s=0.005,
        ),
        durability=durability,
    )
    with Engine(config) as engine:
        # Warm the program cache so timing measures the stream, not
        # the one-off DPMap compile.
        engine.submit(make_job("bsw", {"query": "ACGT", "target": "ACG"}))
        engine.drain()
        jobs = _jobs()
        started = time.perf_counter()
        engine.submit_many(jobs)
        results = engine.drain()
        elapsed = time.perf_counter() - started
        counters = engine.snapshot()["counters"]
    assert all(result.ok for result in results)
    assert len(results) == JOB_COUNT
    return JOB_COUNT / elapsed, counters


def _best_stream(tmp_dir, label, fsync):
    """Best of REPEATS runs -- damps single-core host jitter."""
    best, counters = 0.0, {}
    for attempt in range(REPEATS):
        wal_dir = tmp_dir / f"{label.replace(' ', '_').replace(',', '')}-{attempt}"
        jobs_per_sec, run_counters = _run_stream(wal_dir, fsync)
        if jobs_per_sec > best:
            best, counters = jobs_per_sec, run_counters
    return best, counters


def _build_completed_journal(wal_dir, records):
    """A journal of ``records`` frames, all jobs terminal.

    Frames are appended through the same :class:`Journal` API the
    engine uses (CRC framing, verify-writes read-back), so replay cost
    is measured over real on-disk bytes -- but no kernels execute, so
    the curve isolates replay + fold, not BSW throughput.
    """
    jobs = records // 2
    journal = Journal(DurabilityConfig(dir_path=str(wal_dir), fsync="never"))
    for index in range(jobs):
        job_id = f"bench-{index:05d}"
        journal.append(
            "accept",
            job_id=job_id,
            kernel="bsw",
            payload={"query": "ACGTACGTAC", "target": "ACGTTGCA"},
            priority=0,
        )
        journal.append("complete", job_id=job_id, ok=True)
    journal.close()
    return jobs


def _time_recovery(wal_dir):
    """Best-of-REPEATS seconds for a fresh engine to recover."""
    best = float("inf")
    report = None
    for _ in range(REPEATS):
        engine = Engine(
            EngineConfig(
                max_queue=64,
                workers=0,
                validate_fraction=0.0,
                durability=DurabilityConfig(
                    dir_path=str(wal_dir), fsync="never"
                ),
            )
        )
        started = time.perf_counter()
        run_report = engine.recover()
        elapsed = time.perf_counter() - started
        engine.close()
        if elapsed < best:
            best, report = elapsed, run_report
    return best, report


def test_durability_overhead_and_recovery(benchmark, publish, tmp_path):
    measured = benchmark.pedantic(
        lambda: {
            label: _best_stream(tmp_path, label, fsync)
            for label, fsync in STREAM_CONFIGS
        },
        rounds=1,
        iterations=1,
    )

    baseline = measured["journal off"][0]
    stream_points = []
    for label, fsync in STREAM_CONFIGS:
        jobs_per_sec, counters = measured[label]
        overhead = 1.0 - jobs_per_sec / baseline
        stream_points.append(
            {
                "label": label,
                "fsync": fsync,
                "jobs_per_sec": round(jobs_per_sec, 2),
                "overhead_pct": round(100.0 * overhead, 2),
                "records_appended": int(
                    counters.get("durable_records_appended", 0)
                ),
            }
        )

    curve_points = []
    for records in CURVE_RECORDS:
        wal_dir = tmp_path / f"curve-{records}"
        jobs = _build_completed_journal(wal_dir, records)
        seconds, report = _time_recovery(wal_dir)
        assert report.replayed_records == records
        assert report.completions_deduped == jobs
        assert report.orphans == 0
        assert report.corrupt_frames == 0
        curve_points.append(
            {
                "records": records,
                "recover_seconds": round(seconds, 6),
                "records_per_sec": round(records / seconds, 1),
                "compacted": False,
            }
        )

    # Compaction folds the longest journal into a snapshot: recovery
    # over the same history replays one snapshot instead of 5,000
    # frames -- the knob that bounds the curve in production.
    longest = tmp_path / f"curve-{CURVE_RECORDS[-1]}"
    journal = Journal(
        DurabilityConfig(dir_path=str(longest), fsync="never")
    )
    journal.compact()
    journal.close()
    compact_seconds, compact_report = _time_recovery(longest)
    assert compact_report.replayed_records == 0
    assert compact_report.completions_deduped == CURVE_RECORDS[-1] // 2
    curve_points.append(
        {
            "records": CURVE_RECORDS[-1],
            "recover_seconds": round(compact_seconds, 6),
            "records_per_sec": None,
            "compacted": True,
        }
    )

    interval = next(
        p for p in stream_points if p["fsync"] == "interval"
    )
    rows = [
        [
            p["label"],
            f"{p['jobs_per_sec']:,.0f}",
            f"{p['overhead_pct']:+.1f}%",
            p["records_appended"],
        ]
        for p in stream_points
    ]
    curve_rows = [
        [
            f"{p['records']:,} records"
            + (" (compacted)" if p["compacted"] else ""),
            f"{p['recover_seconds'] * 1e3:.2f}",
            "-"
            if p["records_per_sec"] is None
            else f"{p['records_per_sec']:,.0f}",
        ]
        for p in curve_points
    ]
    publish(
        "durability",
        render_table(
            f"Journal overhead ({JOB_COUNT} BSW jobs, shm 2 warm workers, "
            f"best of {REPEATS})",
            ["configuration", "jobs/sec", "overhead", "records"],
            rows,
            note=(
                f"fsync=interval costs {interval['overhead_pct']:.1f}% "
                "(bar: <= 15%); fsync=always pays one fsync per record "
                "for a zero power-loss window"
            ),
        )
        + "\n\n"
        + render_table(
            f"Recovery time vs journal length (best of {REPEATS})",
            ["journal", "recover ms", "records/sec"],
            curve_rows,
            note=(
                "fully-completed journals: pure replay + dedupe, no "
                "re-execution; the compacted row replays the same "
                "history folded into one snapshot"
            ),
        ),
    )

    # The acceptance bar: the default policy's tax stays within 15%
    # of the journal-off stream.
    on = measured["journal on, fsync=interval"][0]
    assert on >= 0.85 * baseline, (on, baseline)
    # The journal actually ran: accept + attempt + complete per job.
    on_counters = measured["journal on, fsync=interval"][1]
    assert on_counters["durable_records_appended"] >= 2 * JOB_COUNT
    assert on_counters.get("durable_write_errors", 0) == 0
    # Replay is linear-ish: more records never recover *faster*, and
    # the longest journal still restarts in well under a second.
    times = [p["recover_seconds"] for p in curve_points if not p["compacted"]]
    assert times == sorted(times), times
    assert times[-1] < 1.0, times
    # Compaction bounds the curve: recovering the folded history beats
    # replaying all 5,000 frames.
    assert compact_seconds < times[-1], (compact_seconds, times[-1])
