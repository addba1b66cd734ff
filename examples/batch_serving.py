#!/usr/bin/env python3
"""Batch serving: feed a mixed DP job stream through the engine.

The paper's tile only pays off when the host keeps its 16 PE arrays
busy; `repro.engine` is the serving layer that does that. This script
plays a small aligner service:

1. build a mixed stream of seed-extension (BSW), variant-calling
   (PairHMM) and overlap-chaining (Chain) jobs from the synthetic
   workload generators;
2. submit them to the engine with priorities and a deadline;
3. drain once — batches form per kernel, DPMap compiles each
   objective function exactly once, everything else hits the cache;
4. validate every result against the reference software kernels and
   print the metrics snapshot.

Run:  python examples/batch_serving.py
"""

from repro.engine import Engine, EngineConfig, make_job
from repro.engine.runners import matches_reference
from repro.workloads.anchors import generate_chain_workload
from repro.workloads.haplotypes import generate_pairhmm_workload
from repro.workloads.reads import generate_bsw_workload


def build_jobs():
    """A 36-job stream: BSW and PairHMM urgent, chaining best-effort."""
    bsw = generate_bsw_workload(count=12, query_length=32, target_length=24)
    hmm = generate_pairhmm_workload(
        regions=3, reads_per_region=2, haplotypes_per_region=2,
        read_length=24, haplotype_length=16,
    )
    chain = generate_chain_workload(tasks=12, anchors_per_task=64)

    jobs = []
    for pair in bsw.pairs:
        jobs.append(make_job(
            "bsw", {"query": pair.query, "target": pair.target}, priority=5,
        ))
    for pair in hmm.pairs:
        jobs.append(make_job(
            "pairhmm", {"read": pair.read, "haplotype": pair.haplotype},
            priority=5,
        ))
    for task in chain.tasks:
        jobs.append(make_job(
            "chain",
            {"anchors": [[a.x, a.y, a.w] for a in task.anchors]},
            priority=0, deadline_s=60.0,
        ))
    return jobs


def main() -> None:
    jobs = build_jobs()
    print(f"submitting {len(jobs)} jobs across 3 kernels\n")

    config = EngineConfig(workers=2, max_queue=len(jobs))
    with Engine(config) as engine:
        engine.submit_many(jobs)
        results = engine.drain()
        snapshot = engine.snapshot()

    by_id = {job.job_id: job for job in jobs}
    ok = sum(result.ok for result in results)
    valid = sum(
        matches_reference(r.kernel, r.value, by_id[r.job_id].payload)
        for r in results if r.ok
    )
    print(f"results             : {ok}/{len(results)} ok, "
          f"{valid}/{ok} match the reference kernels")

    cache = snapshot["cache"]
    counters = snapshot["counters"]
    print(f"DPMap compiles      : {cache['compiles']} "
          f"(one per distinct objective function)")
    print(f"cache hit rate      : {cache['hit_rate']:.1%}")
    print(f"batches             : {counters['batches_total']} "
          f"({counters.get('parallel_batches', 0)} on the 2 warm shm workers)")
    print(f"mean batch occupancy: "
          f"{snapshot['derived']['mean_batch_occupancy']:.1%} of the tile")

    # One result up close: the envelope carries the full story.
    sample = next(result for result in results if result.kernel == "bsw")
    print(f"\nsample bsw result   : score={sample.value['score']} "
          f"cache_hit={sample.cache_hit} backend={sample.backend} "
          f"attempts={sample.attempts}")


if __name__ == "__main__":
    main()
