"""Transport backends: inline and shared-memory rings.

The headline contract -- referenced from
:mod:`repro.serve.transport`'s docstring -- is **byte-identical
results on both backends for every engine kernel**, plus the
ring-specific behaviors: full-ring backpressure, slot wraparound
across drains, transport accounting, and reclaim after a worker crash
(driven through a :class:`repro.faults.FaultPlan`, mirroring the
chaos campaigns).

One CPU core is assumed: workloads here are tiny, the point is
protocol correctness, not throughput.  Every job here is small enough
to run inline by size, so every test sends every batch to the ring
(``every_batch_on_the_ring``); ``tests/serve/test_inline_small.py``
tests the routing itself.
"""

import multiprocessing.process
import os
import random

import pytest

from repro.engine import Engine, EngineConfig, make_job
from repro.engine.jobs import ENGINE_KERNELS
from repro.engine.sweep import SWEEPS
from repro.faults import FaultPlan
from repro.obs.trace import TraceRecorder
from repro.serve import TransportConfig, transport as transport_module
from repro.serve import workers as workers_module
from repro.serve.layout import J_GEN, R_GEN, R_JOB_ID, R_STATE, READY, encode_result
from repro.serve.ring import RingGeometry
from repro.serve.transport import ShmExecutor
from repro.workloads.anchors import generate_chain_workload

pytestmark = pytest.mark.usefixtures("every_batch_on_the_ring")


def _payloads(kernel, count, seed=31):
    rng = random.Random((seed, kernel).__hash__())
    dna = lambda n: "".join(rng.choice("ACGT") for _ in range(n))
    if kernel == "bsw":
        return [{"query": dna(18), "target": dna(14)} for _ in range(count)]
    if kernel == "pairhmm":
        return [{"read": dna(10), "haplotype": dna(12)} for _ in range(count)]
    if kernel == "lcs":
        return [{"x": dna(16), "y": dna(13)} for _ in range(count)]
    if kernel == "dtw":
        return [
            {
                "a": [rng.randrange(-40, 40) for _ in range(10)],
                "b": [rng.randrange(-40, 40) for _ in range(9)],
            }
            for _ in range(count)
        ]
    if kernel == "chain":
        tasks = generate_chain_workload(
            tasks=count, anchors_per_task=12, seed=seed
        ).tasks
        return [
            {"anchors": [[a.x, a.y, a.w] for a in task.anchors]}
            for task in tasks
        ]
    raise AssertionError(kernel)


def _drain(transport, jobs_by_kernel, workers=0):
    """Run one mixed stream through an engine on *transport*."""
    config = EngineConfig(max_queue=256, transport=transport, workers=workers)
    with Engine(config) as engine:
        keyed = {}
        for kernel, payloads in jobs_by_kernel.items():
            for index, payload in enumerate(payloads):
                job = make_job(kernel, dict(payload))
                keyed[(kernel, index)] = job.job_id
                engine.submit(job)
        results = {r.job_id: r for r in engine.drain()}
        snapshot = engine.snapshot()
    return (
        {key: results[job_id] for key, job_id in keyed.items()},
        snapshot,
    )


def test_results_byte_identical_across_backends():
    jobs_by_kernel = {kernel: _payloads(kernel, 3) for kernel in ENGINE_KERNELS}
    inline, _ = _drain(TransportConfig(backend="inline"), jobs_by_kernel)
    shm, shm_snapshot = _drain(
        TransportConfig(backend="shm", workers=2, poll_interval_s=0.01),
        jobs_by_kernel,
    )
    for key, reference in inline.items():
        assert reference.ok, (key, reference.error)
        assert shm[key].ok, (key, shm[key].error)
        assert shm[key].value == reference.value, key
    # The shm stream really ran on the rings, not a degraded fallback.
    assert shm_snapshot["counters"].get("degraded_batches", 0) == 0
    assert shm_snapshot["counters"]["parallel_batches"] > 0


def test_transport_bytes_accounted_for_pool_and_shm():
    jobs = {"bsw": _payloads("bsw", 6)}
    _, inline_snap = _drain(TransportConfig(backend="inline"), jobs)
    _, pool_snap = _drain(None, jobs, workers=1)  # the bare workers knob
    _, shm_snap = _drain(TransportConfig(backend="shm", workers=1), jobs)
    assert inline_snap["counters"].get("transport_bytes", 0) == 0
    assert shm_snap["counters"]["transport_bytes"] > 0
    # workers=1 *is* one shm worker on the default rings: same bytes.
    assert (
        pool_snap["counters"]["transport_bytes"]
        == shm_snap["counters"]["transport_bytes"]
    )


def test_shm_program_broadcast_amortizes_across_drains():
    """The rings pay the pickled program once; later drains move only
    SoA bytes."""
    transport = TransportConfig(backend="shm", workers=1, poll_interval_s=0.01)
    with Engine(EngineConfig(max_queue=64, transport=transport)) as engine:
        def one_drain(seed):
            before = engine.metrics.counter("transport_bytes")
            for payload in _payloads("bsw", 6, seed=seed):
                engine.submit(make_job("bsw", dict(payload)))
            assert all(r.ok for r in engine.drain())
            return engine.metrics.counter("transport_bytes") - before

        first, second = one_drain(1), one_drain(2)
    assert second < first / 2, (first, second)


def _ring_slots(monkeypatch, slots):
    monkeypatch.setattr(
        transport_module, "RING_GEOMETRY", RingGeometry(slots=slots)
    )


def test_full_ring_applies_backpressure_not_loss(monkeypatch):
    """More jobs in one drain than the ring has slots: every job still
    completes, because publishing simply waits for free slots."""
    _ring_slots(monkeypatch, 4)
    transport = TransportConfig(backend="shm", workers=1, poll_interval_s=0.01)
    jobs = {"bsw": _payloads("bsw", 20)}
    results, snapshot = _drain(transport, jobs)
    assert len(results) == 20
    assert all(result.ok for result in results.values())
    assert snapshot["counters"].get("degraded_batches", 0) == 0


def test_slot_wraparound_across_consecutive_drains(monkeypatch):
    """Slots are reused across drains with bumped generations; results
    stay correct and the program broadcast is not repaid."""
    _ring_slots(monkeypatch, 4)
    transport = TransportConfig(backend="shm", workers=1, poll_interval_s=0.01)
    with Engine(EngineConfig(max_queue=64, transport=transport)) as engine:
        reference = {}
        for drain_round in range(3):
            payloads = _payloads("lcs", 6, seed=drain_round)
            jobs = [make_job("lcs", dict(p)) for p in payloads]
            for job in jobs:
                engine.submit(job)
            results = {r.job_id: r for r in engine.drain()}
            for job, payload in zip(jobs, payloads):
                result = results[job.job_id]
                assert result.ok, result.error
                key = (payload["x"], payload["y"])
                if key in reference:
                    assert result.value == reference[key]
                reference[key] = result.value
        snapshot = engine.snapshot()
        executor = engine.executor
        generations = [row[J_GEN] for row in executor._segments.jobs.rows]
        assert max(generations) >= 2  # slots really wrapped
    assert snapshot["cache"]["compiles"] == 1  # one program, reused


def test_reclaim_after_worker_crash_via_fault_plan(monkeypatch):
    """A crash-marked job kills its worker mid-ring; the transport
    requeues the slot, respawns the worker, and the job survives
    (degrading to inline where the marker is inert): the resubmission
    semantics the repro.faults campaigns count on."""
    plan = FaultPlan(seed=3, crash_rate=1.0)
    base = _payloads("bsw", 1)[0]
    crash_payload, kind = plan.decorate(0, dict(base))
    assert kind == "crash" and crash_payload.get("_inject_exit")

    _ring_slots(monkeypatch, 8)
    transport = TransportConfig(backend="shm", workers=2, poll_interval_s=0.01)
    with Engine(
        EngineConfig(max_queue=64, transport=transport, max_retries=1)
    ) as engine:
        executor = engine.executor
        assert isinstance(executor, ShmExecutor)
        healthy = [make_job("bsw", dict(p)) for p in _payloads("bsw", 5)]
        crash_job = make_job("bsw", crash_payload)
        for job in (*healthy, crash_job):
            engine.submit(job)
        results = {r.job_id: r for r in engine.drain()}

        assert all(r.ok for r in results.values()), [
            r.error for r in results.values() if not r.ok
        ]
        # The crash-marked job exhausted ring retries and finished on
        # the inline floor, where _inject_exit does not apply.
        assert results[crash_job.job_id].backend == "inline"
        assert results[crash_job.job_id].attempts >= 2

        # Workers were respawned and the ring is healthy again: a
        # fresh batch runs parallel with no degradation.
        alive = [p for p in executor._workers if p is not None and p.is_alive()]
        assert len(alive) == 2
        followup = [make_job("bsw", dict(p)) for p in _payloads("bsw", 4, seed=9)]
        for job in followup:
            engine.submit(job)
        again = engine.drain()
        assert all(r.ok for r in again)
        assert all(r.backend == "shm" for r in again)


def test_workers_fork_with_warm_sweeps(monkeypatch):
    """A warm engine fuses its kernels' sweeps before it forks: a
    worker -- the first one, and one respawned after a kill -- runs
    its first job of every warm kernel fused, building no sweep."""
    parent = os.getpid()
    build = SWEEPS._build

    def parent_only(*args):
        if os.getpid() != parent:
            raise AssertionError("a worker built a sweep")
        return build(*args)

    monkeypatch.setattr(SWEEPS, "_entries", {})
    monkeypatch.setattr(SWEEPS, "_build", parent_only)
    tracer = TraceRecorder()
    transport = TransportConfig(
        backend="shm",
        workers=1,
        warm_kernels=ENGINE_KERNELS,
        poll_interval_s=0.01,
    )
    with Engine(EngineConfig(transport=transport), tracer=tracer) as engine:

        def run_every_kernel():
            seen = len(tracer.spans())
            for kernel in ENGINE_KERNELS:
                engine.submit(make_job(kernel, _payloads(kernel, 1)[0]))
            results = engine.drain()
            assert all(r.ok and r.backend == "shm" for r in results)
            runs = [s for s in tracer.spans()[seen:] if s.name == "job:run"]
            assert len(runs) == len(ENGINE_KERNELS)
            return {(span.pid, span.args["path"]) for span in runs}

        ran = run_every_kernel()  # the first batch forks the worker
        first = engine.executor._workers[0]
        assert ran == {(first.pid, "fused")}
        first.kill()
        first.join()
        respawned = run_every_kernel()
        (pid, path), = respawned
        assert pid not in (parent, first.pid) and path == "fused"


def test_injected_failures_stay_job_level():
    """_inject_fail raises inside the warm worker; the error comes back
    over the result ring as a per-job error, not a transport fault."""
    transport = TransportConfig(backend="shm", workers=1, poll_interval_s=0.01)
    with Engine(EngineConfig(max_queue=16, transport=transport)) as engine:
        good = make_job("lcs", _payloads("lcs", 1)[0])
        bad = make_job("lcs", dict(_payloads("lcs", 1)[0], _inject_fail=True))
        engine.submit(good)
        engine.submit(bad)
        results = {r.job_id: r for r in engine.drain()}
    assert results[good.job_id].ok
    assert not results[bad.job_id].ok
    assert "injected job failure" in results[bad.job_id].error


def test_shm_executor_close_releases_segments():
    transport = TransportConfig(backend="shm", workers=1)
    with Engine(EngineConfig(transport=transport)) as engine:
        engine.submit(make_job("lcs", _payloads("lcs", 1)[0]))
        assert all(r.ok and r.backend == "shm" for r in engine.drain())
        executor = engine.executor
        names = executor._segments.names
        executor.close()
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=names.job_header)


def _die_reporting_once(monkeypatch, tmp_path):
    """Once the returned path exists, the next worker to report a
    result dies after stamping its job DONE and before writing the
    result; its respawned successor reports normally."""
    armed, died = tmp_path / "armed", tmp_path / "died"
    encode = workers_module.encode_result

    def encode_or_die(*args):
        if armed.exists() and not died.exists():
            died.touch()
            os._exit(3)
        return encode(*args)

    monkeypatch.setattr(workers_module, "encode_result", encode_or_die)
    return armed


def _rerun_after_death(monkeypatch, tmp_path, after_revoke=None):
    """Drain one LCS job on a one-slot ring whose first worker dies
    reporting it; returns that job's results and its inline reference
    value.  Without *after_revoke* a first job drains before it, so
    the slot holds an earlier occupant's result; with it, the slot is
    fresh and *after_revoke* runs once the dead worker's slot is
    revoked."""
    _ring_slots(monkeypatch, 1)
    armed = _die_reporting_once(monkeypatch, tmp_path)
    if after_revoke is not None:
        revoke = ShmExecutor._revoke

        def revoke_then(self, record, *args):
            slot, generation = record.slot, record.generation
            revoke(self, record, *args)
            after_revoke(self, slot, generation, record)

        monkeypatch.setattr(ShmExecutor, "_revoke", revoke_then)
    first, second = _payloads("lcs", 2, seed=5)
    reference, _ = _drain(TransportConfig(backend="inline"), {"lcs": [second]})
    transport = TransportConfig(backend="shm", workers=1, poll_interval_s=0.01)
    config = EngineConfig(max_queue=16, transport=transport, max_retries=1)
    with Engine(config) as engine:
        if after_revoke is None:
            engine.submit(make_job("lcs", dict(first)))
            assert all(r.ok and r.backend == "shm" for r in engine.drain())
        armed.touch()
        # Each attempt takes a while, so the parent polls the slot
        # while the rerun is still running.
        job = engine.submit(make_job("lcs", dict(second, _inject_delay_s=0.05)))
        results = [r for r in engine.drain() if r.job_id == job.job_id]
    return results, reference[("lcs", 0)].value


def test_worker_killed_after_done_is_rerun_exactly_once(monkeypatch, tmp_path):
    """A worker that dies between stamping its job DONE and posting the
    result leaves that job to one rerun -- never to the result the
    slot's earlier occupant left behind."""
    results, expected = _rerun_after_death(monkeypatch, tmp_path)
    (result,) = results
    assert result.ok, result.error
    assert result.attempts == 2
    assert result.backend == "shm"
    assert result.value == expected


def test_result_under_a_revoked_generation_is_never_delivered(monkeypatch, tmp_path):
    """A result posted into slot *i* under a generation the parent has
    revoked stays undelivered, also once slot *i* is republished and
    its new occupant completes."""
    planted = []

    def plant_stale_result(executor, slot, generation, record):
        rows = executor._segments.results.rows
        region = executor._segments.results.regions[slot]
        words = encode_result("lcs", True, {"length": -1, "cells": -1}, None, region)
        header = rows[slot]
        for field, word in words.items():
            header[field] = word
        header[R_JOB_ID] = record.job_id
        header[R_GEN] = generation
        header[R_STATE] = READY
        planted.append(generation)

    results, expected = _rerun_after_death(
        monkeypatch, tmp_path, after_revoke=plant_stale_result
    )
    assert planted, "no slot was revoked"
    (result,) = results
    assert result.ok, result.error
    assert result.value == expected
    assert result.attempts == 2


def test_close_after_a_drain_joins_workers_without_terminate(monkeypatch):
    """Workers read the shutdown event on their idle tick: a close
    right after a drain joins each one with exit code 0."""
    terminated = []
    monkeypatch.setattr(
        multiprocessing.process.BaseProcess,
        "terminate",
        lambda process: terminated.append(process.pid),
    )
    transport = TransportConfig(backend="shm", workers=2, poll_interval_s=0.01)
    with Engine(EngineConfig(max_queue=16, transport=transport)) as engine:
        for payload in _payloads("bsw", 6):
            engine.submit(make_job("bsw", payload))
        assert all(r.ok and r.backend == "shm" for r in engine.drain())
        executor = engine.executor
        workers = list(executor._workers)
        executor.close()
    assert terminated == []
    assert [process.exitcode for process in workers] == [0, 0]
