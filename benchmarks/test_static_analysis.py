"""Cost and payoff of the static analyzer (``repro.static``).

Two questions an operator asks before trusting compile-time
certificates over runtime sentinels:

- **What does certification cost at compile time?**  The value-range
  fixpoint runs once per compiled program and is amortized by the
  program cache, but it sits on the compile path -- so the first
  section times ``certify_program`` for every guard-kernel cell
  program and publishes milliseconds per certificate alongside the
  verdict.

- **What does sentinel elision buy at run time?**  The same 96-job
  stream on the shared-memory warm-worker transport with
  ``sentinels=True``, elision on vs off.  DTW certifies sentinel-free,
  so elision strips the per-value observe hook and restores the
  specialized warm-cell fast path -- the throughput delta must be
  positive.  BSW is the uncertified control: its certificate cannot
  prove lane saturation absent, elision never touches it, and its
  delta is published as soundness evidence (expected ~0).

The table goes to ``results/static_analysis.txt``; ``static.certify_ms``
and ``cold_compile_ms @ compile_cold`` in ``bench/`` track the compile
cost with variance, the elision payoff is measured only here.
"""

import random
import time

from repro.analysis.report import render_table
from repro.engine import Engine, EngineConfig, make_job
from repro.guard.diff import DIFF_KERNELS, compile_kernel_programs
from repro.serve import TransportConfig
from repro.static import certify_program
from repro.workloads.reads import generate_bsw_workload

JOB_COUNT = 96
REPEATS = 3
SEED = 11
#: DTW signal length per side -- long enough that per-cell work (and
#: therefore the sentinel observe hook) dominates per-job overhead.
DTW_LENGTH = 24


def _certify_points():
    """Best-of-REPEATS certification wall time per guard cell program."""
    points = []
    for kernel in DIFF_KERNELS:
        programs = compile_kernel_programs(kernel)
        for cell_name, cell_program in sorted(programs.cells.items()):
            label = kernel if cell_name == "cell" else f"{kernel}:{cell_name}"
            best = float("inf")
            certificate = None
            for _ in range(REPEATS):
                started = time.perf_counter()
                certificate = certify_program(kernel, cell_program, name=label)
                elapsed = time.perf_counter() - started
                best = min(best, elapsed)
            points.append(
                {
                    "program": label,
                    "certify_ms": round(best * 1e3, 3),
                    "sentinel_free": certificate.sentinel_free,
                    "fixpoint_iterations": certificate.fixpoint_iterations,
                }
            )
    return points


def _dtw_jobs():
    rng = random.Random(SEED)
    return [
        make_job(
            "dtw",
            {
                "a": [rng.randint(0, 40) for _ in range(DTW_LENGTH)],
                "b": [rng.randint(0, 40) for _ in range(DTW_LENGTH)],
            },
        )
        for _ in range(JOB_COUNT)
    ]


def _bsw_jobs():
    workload = generate_bsw_workload(
        count=JOB_COUNT, query_length=32, target_length=24, seed=SEED
    )
    return [
        make_job("bsw", {"query": pair.query, "target": pair.target})
        for pair in workload.pairs
    ]


_WARMUP = {
    "dtw": lambda: make_job("dtw", {"a": [1, 2, 3], "b": [2, 3, 4]}),
    "bsw": lambda: make_job("bsw", {"query": "ACGT", "target": "ACG"}),
}


def _run_stream(kernel, jobs_factory, elide):
    """Drain one warm sentinel-armed stream; returns (jobs/sec, static)."""
    config = EngineConfig(
        max_queue=JOB_COUNT,
        sentinels=True,
        elide_sentinels=elide,
        transport=TransportConfig(
            backend="shm",
            workers=2,
            warm_kernels=(kernel,),
            poll_interval_s=0.005,
        ),
    )
    with Engine(config) as engine:
        # Warm the program cache so timing measures the stream, not
        # the one-off DPMap compile (and certification) of the kernel.
        engine.submit(_WARMUP[kernel]())
        engine.drain()
        jobs = jobs_factory()
        started = time.perf_counter()
        engine.submit_many(jobs)
        results = engine.drain()
        elapsed = time.perf_counter() - started
        snapshot = engine.snapshot()
    assert all(result.ok for result in results)
    assert len(results) == JOB_COUNT
    return JOB_COUNT / elapsed, snapshot


def _best_stream(kernel, jobs_factory, elide):
    best, snapshot = 0.0, None
    for _ in range(REPEATS):
        jobs_per_sec, run_snapshot = _run_stream(kernel, jobs_factory, elide)
        if jobs_per_sec > best:
            best, snapshot = jobs_per_sec, run_snapshot
    return best, snapshot


def test_static_analysis_cost_and_elision_payoff(benchmark, publish):
    measured = benchmark.pedantic(
        lambda: {
            "certify": _certify_points(),
            "dtw off": _best_stream("dtw", _dtw_jobs, elide=False),
            "dtw on": _best_stream("dtw", _dtw_jobs, elide=True),
            "bsw off": _best_stream("bsw", _bsw_jobs, elide=False),
            "bsw on": _best_stream("bsw", _bsw_jobs, elide=True),
        },
        rounds=1,
        iterations=1,
    )

    certify_points = measured["certify"]
    stream_points = []
    for kernel in ("dtw", "bsw"):
        off_rate, off_snapshot = measured[f"{kernel} off"]
        on_rate, on_snapshot = measured[f"{kernel} on"]
        off, on = off_snapshot["counters"], on_snapshot["counters"]
        stream_points.append(
            {
                "kernel": kernel,
                "certified": bool(on["static_programs_certified"]),
                "jobs_per_sec_elide_off": round(off_rate, 2),
                "jobs_per_sec_elide_on": round(on_rate, 2),
                "speedup": round(on_rate / off_rate, 3),
                "elisions": int(on["static_sentinel_elisions"]),
                "values_observed_elide_off": int(off["sentinel_values_observed"]),
                "values_observed_elide_on": int(on["sentinel_values_observed"]),
                "certificate_violations": int(on["static_certificate_violations"])
                + int(off["static_certificate_violations"]),
            }
        )

    certify_rows = [
        [
            p["program"],
            f"{p['certify_ms']:.2f}",
            str(p["fixpoint_iterations"]),
            "certified" if p["sentinel_free"] else "sentinels stay armed",
        ]
        for p in certify_points
    ]
    stream_rows = [
        [
            p["kernel"] + (" (certified)" if p["certified"] else " (control)"),
            f"{p['jobs_per_sec_elide_off']:,.0f}",
            f"{p['jobs_per_sec_elide_on']:,.0f}",
            f"{p['speedup']:.2f}x",
            str(p["elisions"]),
        ]
        for p in stream_points
    ]
    dtw = next(p for p in stream_points if p["kernel"] == "dtw")
    bsw = next(p for p in stream_points if p["kernel"] == "bsw")
    publish(
        "static_analysis",
        render_table(
            f"Certificate cost per cell program (best of {REPEATS})",
            ["program", "certify ms", "fixpoint iters", "verdict"],
            certify_rows,
            note=(
                "runs once per compile and is amortized by the program "
                "cache; straight-line programs converge in one pass"
            ),
        )
        + "\n\n"
        + render_table(
            f"Sentinel-elision payoff ({JOB_COUNT} jobs, shm 2 warm "
            f"workers, sentinels armed, best of {REPEATS})",
            ["stream", "jobs/s (observe)", "jobs/s (elided)", "speedup", "elided"],
            stream_rows,
            note=(
                f"dtw certifies sentinel-free: {dtw['speedup']:.2f}x from "
                "dropping the observe hook; bsw cannot certify (lane "
                f"saturation), so elision leaves it alone ({bsw['elisions']} "
                "jobs elided) and its sentinel keeps counting"
            ),
        ),
    )

    # Certification is a compile-time blip: single-digit milliseconds
    # per program, amortized by the cache.
    assert all(p["certify_ms"] < 250.0 for p in certify_points), certify_points
    # The headline claim: elision on the certified kernel is a measured
    # improvement, achieved by skipping observation entirely.
    assert dtw["certified"]
    # JOB_COUNT stream jobs plus the cache-warming job.
    assert dtw["elisions"] == JOB_COUNT + 1
    assert dtw["values_observed_elide_on"] == 0
    assert dtw["values_observed_elide_off"] > 0
    assert dtw["jobs_per_sec_elide_on"] > dtw["jobs_per_sec_elide_off"], dtw
    # Soundness evidence: the uncertified control is never elided --
    # its sentinel observes the same values with the flag on or off.
    assert not bsw["certified"]
    assert bsw["elisions"] == 0
    assert bsw["values_observed_elide_on"] > 0
    # The audit counter's only healthy value, on every stream.
    assert all(p["certificate_violations"] == 0 for p in stream_points)
