"""The shm executor runs small batches in the drain thread and forks
its workers at the first batch that needs the ring.

A batch at or below ``INLINE_MAX_BIN`` (bin 9: 512 DP cells) skips the
ring hop; a larger one, or one carrying a worker-only fault marker,
crosses it.  Nothing is forked -- not even the shared segments' resource
tracker -- until a batch crosses.
"""

import asyncio
import os
import threading

import pytest

from repro.engine import Engine, EngineConfig, make_job
from repro.engine.batcher import Batcher
from repro.engine.cache import compile_program
from repro.engine.executor import InlineExecutor, make_executor
from repro.engine.jobs import ENGINE_KERNELS
from repro.engine.runners import build_dfg, matches_reference
from repro.engine.sweep import SWEEPS
from repro.obs.trace import TraceRecorder
from repro.serve import ServeClient, TransportConfig
from repro.serve.server import GendpServer, ServeConfig
from repro.serve.transport import INLINE_MAX_BIN, ShmExecutor
from repro.workloads.anchors import generate_chain_workload

pytestmark = pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="needs Linux /proc"
)

#: LCS tables on either side of the threshold: 32 x 16 = 512 cells is
#: bin 9, 33 x 16 = 528 is bin 10.
BIN_9 = {"x": "ACGT" * 8, "y": "ACGGTACGTTAGCATG"}
BIN_10 = {"x": "ACGT" * 8 + "A", "y": "ACGGTACGTTAGCATG"}
SMALL = {"x": "ACGTACGT", "y": "ACGGT"}
FAST = TransportConfig(backend="shm", workers=1, poll_interval_s=0.01)


def _children():
    """Pids of this process's live children."""
    me, pids = str(os.getpid()), set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        if fields[1] == me and fields[0] != "Z":
            pids.add(int(entry))
    return pids


@pytest.fixture(scope="module")
def lcs():
    return compile_program("lcs", 2, build_dfg("lcs"))


def _batch(*payloads):
    return Batcher().pack([make_job("lcs", dict(p)) for p in payloads])[0]


def _small_payloads():
    chain = generate_chain_workload(tasks=2, anchors_per_task=10, seed=3).tasks
    return {
        "bsw": [{"query": "ACGTACGTAC", "target": "ACGTTGCA"}] * 2,
        "pairhmm": [{"read": "ACGTAC", "haplotype": "ACGTTACG"}] * 2,
        "lcs": [SMALL, {"x": "AAAA", "y": "AAAA"}],
        "dtw": [{"a": [1, -4, 9, 2], "b": [0, 3, -2]}] * 2,
        "chain": [
            {"anchors": [[a.x, a.y, a.w] for a in task.anchors]} for task in chain
        ],
    }


def _drain(transport, payloads):
    with Engine(EngineConfig(max_queue=64, transport=transport)) as engine:
        jobs = [
            make_job(kernel, dict(payload))
            for kernel in ENGINE_KERNELS
            for payload in payloads[kernel]
        ]
        engine.submit_many(jobs)
        by_id = {result.job_id: result for result in engine.drain()}
        return [by_id[job.job_id] for job in jobs], engine


def test_small_jobs_fork_nothing_and_match_inline():
    payloads = _small_payloads()
    before = _children()
    shm, engine = _drain(FAST, payloads)
    executor = engine.executor
    assert isinstance(executor, ShmExecutor)
    assert executor._workers == [] and executor._segments is None
    assert _children() - before == set()
    inline, _ = _drain(TransportConfig(backend="inline"), payloads)
    assert [r.ok for r in shm] == [True] * len(shm)
    assert [r.value for r in shm] == [r.value for r in inline]
    assert {r.backend for r in shm} == {"inline"}
    counters = engine.snapshot()["counters"]
    assert counters["inline_batches"] > 0
    assert counters.get("degraded_batches", 0) == 0
    assert counters.get("parallel_batches", 0) == 0
    assert counters.get("transport_bytes", 0) == 0


def test_bin_9_runs_inline_and_bin_10_crosses(lcs):
    assert INLINE_MAX_BIN == 9
    low, high = _batch(BIN_9), _batch(BIN_10)
    assert (low.size_bin, high.size_bin) == (9, 10)
    executor = make_executor(1)
    try:
        (outcome,) = executor.run_batches([(low, lcs)])
        assert outcome.backend == "inline" and not outcome.degraded
        assert outcome.transport_bytes == 0
        assert executor._workers == []
        (outcome,) = executor.run_batches([(high, lcs)])
        assert outcome.backend == "shm" and not outcome.degraded
        assert outcome.transport_bytes > 0
        assert outcome.results[0]["ok"]
        assert matches_reference("lcs", outcome.results[0]["value"], BIN_10)
    finally:
        executor.close()


def test_first_large_batch_forks_warm_workers(monkeypatch):
    """The warm sweep is fused at construction, before anything forks;
    the worker forked by the first large batch builds none."""
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
        backend="shm", workers=1, warm_kernels=("lcs",), poll_interval_s=0.01
    )
    before = _children()
    with Engine(EngineConfig(transport=transport), tracer=tracer) as engine:
        executor = engine.executor
        assert len(SWEEPS) == 1 and executor._workers == []
        engine.submit(make_job("lcs", dict(SMALL)))
        assert [r.backend for r in engine.drain()] == ["inline"]
        assert executor._workers == [] and _children() - before == set()

        engine.submit(make_job("lcs", dict(BIN_10)))
        (result,) = engine.drain()
        assert result.ok and result.backend == "shm", result.error
        (worker,) = executor._workers
        assert worker.is_alive() and worker.pid in _children() - before
        (span,) = [s for s in tracer.spans() if s.name == "job:run"][-1:]
        assert (span.pid, span.args["path"]) == (worker.pid, "fused")
        counters = engine.snapshot()["counters"]
        assert counters["parallel_batches"] == 1
        assert counters["inline_batches"] == 1
        assert counters.get("degraded_batches", 0) == 0


@pytest.mark.parametrize(
    "marker",
    [{"_inject_exit": True}, {"_inject_delay_s": 1.0}],
    ids=["exit", "delay"],
)
def test_a_small_batch_with_a_worker_marker_reaches_a_worker(monkeypatch, marker):
    """Each attempt kills its worker (a crash, or a timeout kill), so
    the job is retried once on a respawned worker and then runs on the
    inline floor, counted as on the ring."""
    spawned = []
    spawn = ShmExecutor._spawn

    def counting_spawn(self, worker_id):
        spawned.append(worker_id)
        spawn(self, worker_id)

    monkeypatch.setattr(ShmExecutor, "_spawn", counting_spawn)
    config = EngineConfig(
        transport=FAST, max_retries=1, job_timeout_s=0.1, max_queue=16
    )
    with Engine(config) as engine:
        job = make_job("lcs", {**SMALL, **marker})
        engine.submit(job)
        (result,) = engine.drain()
        counters = engine.snapshot()["counters"]
    assert result.ok and result.value["length"] == 5
    assert result.backend == "inline" and result.attempts == 3
    assert counters["degraded_batches"] == 1
    assert counters["batch_retries"] == 2
    assert counters.get("parallel_batches", 0) == 0
    assert spawned == [0, 0, 0]  # the lazy fork, then one respawn per death


def test_a_mixed_drain_keeps_items_order(lcs):
    batches = [
        _batch(SMALL),
        _batch(BIN_10),
        _batch({"x": "AAAA", "y": "AAAA"}),
        _batch(BIN_10, BIN_10),
    ]
    items = [(batch, lcs) for batch in batches]
    executor = make_executor(1)
    try:
        outcomes = executor.run_batches(items)
    finally:
        executor.close()
    expected = InlineExecutor().run_batches(items)
    assert [o.batch_id for o in outcomes] == [b.batch_id for b in batches]
    assert [o.backend for o in outcomes] == ["inline", "shm", "inline", "shm"]
    assert not any(o.degraded for o in outcomes)
    assert [o.results for o in outcomes] == [o.results for o in expected]


def test_a_server_forks_workers_from_the_drain_thread(tmp_path, monkeypatch):
    """And workers forked while it serves hold none of its sockets: a
    stopped server still looks dead to its clients at once."""
    spawning_threads = []
    spawn = ShmExecutor._spawn

    def recording_spawn(self, worker_id):
        spawning_threads.append(threading.current_thread())
        spawn(self, worker_id)

    monkeypatch.setattr(ShmExecutor, "_spawn", recording_spawn)
    large = {"query": "ACGTTGCAAC" * 4, "target": "ACGTACGTAC" * 4}
    before = _children()

    async def scenario():
        sock = str(tmp_path / "gendp.sock")
        transport = TransportConfig(backend="shm", workers=2, poll_interval_s=0.01)
        engine = Engine(EngineConfig(max_queue=64, transport=transport))
        server = GendpServer(engine, ServeConfig(unix_socket=sock))
        await server.start()
        try:
            idle_reader, idle_writer = await asyncio.open_unix_connection(sock)
            async with await ServeClient.connect(unix_socket=sock) as client:
                for payload in _small_payloads()["bsw"]:
                    response = await client.submit("bsw", payload)
                    assert response["ok"], response
                assert _children() - before == set()
                assert spawning_threads == []
                response = await client.submit("bsw", large)
                assert response["ok"], response
                assert matches_reference("bsw", response["value"], large)
                workers = engine.executor._workers
                assert {w.pid for w in workers} <= _children() - before
            await server.stop()
            assert await asyncio.wait_for(idle_reader.readline(), 5.0) == b""
            idle_writer.close()
        finally:
            await server.stop()
            engine.close()

    asyncio.run(asyncio.wait_for(scenario(), timeout=60))
    assert len(spawning_threads) == 2
    assert threading.main_thread() not in spawning_threads
