"""EngineConfig.optimize_programs: optimized compiles, same answers."""

import pytest

from repro.engine import Engine, EngineConfig, Job
from repro.engine.metrics import COUNTERS
from repro.guard.diff import generate_payload

KERNELS = ("bsw", "pairhmm", "chain", "dtw")


def make_jobs():
    jobs = []
    jid = 0
    for kernel in KERNELS:
        for index in range(3):
            jobs.append(
                Job(
                    job_id=jid,
                    kernel=kernel,
                    payload=generate_payload(kernel, seed=11, index=index),
                )
            )
            jid += 1
    return jobs


def drain(config):
    with Engine(config) as engine:
        engine.submit_many(make_jobs())
        results = engine.drain()
        return results, engine.snapshot(), engine.cache.keys()


class TestOptimizedEngine:
    def test_results_match_the_unoptimized_engine(self):
        optimized, _, _ = drain(EngineConfig(optimize_programs=True))
        baseline, _, _ = drain(EngineConfig())
        assert [r.ok for r in optimized] == [r.ok for r in baseline]
        for opt, base in zip(optimized, baseline):
            assert opt.ok, opt.error
            assert opt.value == base.value

    def test_cache_keys_carry_the_pipeline_signature(self):
        _, _, opt_keys = drain(EngineConfig(optimize_programs=True))
        _, _, base_keys = drain(EngineConfig())
        assert all(key[3].startswith("opt-v1:") for key in opt_keys)
        assert all(key[3] == "" for key in base_keys)
        # Contracts differ per kernel, so signatures do too.
        assert len({key[3] for key in opt_keys}) == len(KERNELS)

    def test_opt_counters_and_snapshot_block(self):
        _, snapshot, _ = drain(EngineConfig(optimize_programs=True))
        block = snapshot["counters"]
        assert block["opt_programs_optimized"] == len(KERNELS)
        # BSW loses a bundle to dead-output elimination and Chain one
        # to re-packing; both land in the eliminated counter.
        assert block["opt_instructions_eliminated"] >= 2
        assert block["opt_ways_repacked"] >= 1

    def test_counters_stay_zero_when_off(self):
        _, snapshot, _ = drain(EngineConfig())
        counters = snapshot["counters"]
        assert all(counters[name] == 0 for name in COUNTERS["opt"])

    def test_compiles_once_per_kernel(self):
        with Engine(EngineConfig(optimize_programs=True)) as engine:
            engine.submit_many(make_jobs())
            engine.drain()
            engine.submit_many(make_jobs())
            engine.drain()
            assert engine.cache.stats.compiles == len(KERNELS)
            assert engine.metrics.counter("opt_programs_optimized") == len(
                KERNELS
            )

    def test_optimized_programs_are_verified(self):
        # Every compile is verified; an optimize_programs run must not
        # trip the verifier (the pipeline only emits verifier-legal code).
        _, snapshot, _ = drain(EngineConfig(optimize_programs=True))
        assert snapshot["counters"]["verifier_rejections"] == 0
