"""End-to-end: a mixed kernel stream validated against reference kernels.

This is the acceptance scenario for the engine as a test: a 50-job
BSW + Chain + PairHMM stream run through the parallel backend, with
DPMap compiling once per distinct kernel, a warm cache for everything
else, and every result checked against the golden software kernels.
"""

import pytest

from repro.engine import Engine, EngineConfig, make_job
from repro.engine.runners import matches_reference, reference_result
from repro.workloads.anchors import generate_chain_workload
from repro.workloads.haplotypes import generate_pairhmm_workload
from repro.workloads.reads import generate_bsw_workload

JOB_COUNT = 50
KERNELS = ("bsw", "chain", "pairhmm")


def _mixed_jobs(seed=7, count=JOB_COUNT):
    bsw = generate_bsw_workload(
        count=count, query_length=24, target_length=20, seed=seed
    )
    pairhmm = generate_pairhmm_workload(
        regions=count // 4 + 1,
        reads_per_region=2,
        haplotypes_per_region=2,
        read_length=16,
        haplotype_length=12,
        seed=seed,
    )
    chain = generate_chain_workload(
        tasks=count, anchors_per_task=32, seed=seed
    )
    payload_pools = {
        "bsw": [
            {"query": pair.query, "target": pair.target}
            for pair in bsw.pairs
        ],
        "pairhmm": [
            {"read": pair.read, "haplotype": pair.haplotype}
            for pair in pairhmm.pairs
        ],
        "chain": [
            {"anchors": [[a.x, a.y, a.w] for a in task.anchors]}
            for task in chain.tasks
        ],
    }
    jobs = []
    for index in range(count):
        kernel = KERNELS[index % len(KERNELS)]
        payload = payload_pools[kernel][index // len(KERNELS)]
        jobs.append(make_job(kernel, payload))
    return jobs


@pytest.mark.usefixtures("every_batch_on_the_ring")
def test_mixed_stream_parallel_end_to_end():
    jobs = _mixed_jobs()
    config = EngineConfig(workers=2, max_queue=JOB_COUNT)
    with Engine(config) as engine:
        engine.submit_many(jobs)
        results = engine.drain()
        snapshot = engine.snapshot()

    assert len(results) == JOB_COUNT
    assert all(result.ok for result in results), [
        result.error for result in results if not result.ok
    ]

    # DPMap ran exactly once per distinct (kernel, depth).
    assert snapshot["cache"]["compiles"] == len(KERNELS)
    assert snapshot["derived"]["cache_hit_rate"] >= 0.9

    # The stream actually exercised the parallel backend: workers=2
    # is two shm workers, and every result crossed the result ring.
    assert snapshot["counters"]["parallel_batches"] > 0
    assert snapshot["counters"].get("degraded_batches", 0) == 0
    assert {result.backend for result in results} == {"shm"}

    # Every result matches the reference software kernel.
    by_id = {job.job_id: job for job in jobs}
    for result in results:
        job = by_id[result.job_id]
        assert matches_reference(job.kernel, result.value, job.payload), (
            job.kernel,
            result.value,
            reference_result(job.kernel, job.payload),
        )


def test_mixed_stream_inline_matches_references():
    jobs = _mixed_jobs(seed=11, count=12)
    with Engine() as engine:
        engine.submit_many(jobs)
        results = engine.drain()
    by_id = {job.job_id: job for job in jobs}
    for result in results:
        assert result.ok, result.error
        job = by_id[result.job_id]
        assert matches_reference(job.kernel, result.value, job.payload)
