"""Executor backends: worker parallelism, retries, timeout, degradation."""

import pytest

from repro.engine.batcher import Batcher
from repro.engine.cache import ProgramCache, compile_program
from repro.engine.executor import InlineExecutor, make_executor
from repro.engine.jobs import make_job
from repro.engine.runners import build_dfg
from repro.engine.service import EngineConfig
from repro.serve.transport import ShmExecutor, TransportConfig


@pytest.fixture(scope="module")
def lcs_compiled():
    return compile_program("lcs", 2, build_dfg("lcs"))


def _lcs_batch(payloads):
    jobs = [make_job("lcs", payload) for payload in payloads]
    return Batcher().pack(jobs)[0]


GOOD = {"x": "ACGTACGT", "y": "ACGGT"}


class TestInline:
    def test_runs_all_jobs(self, lcs_compiled):
        batch = _lcs_batch([GOOD, GOOD])
        outcomes = InlineExecutor().run_batches([(batch, lcs_compiled)])
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.backend == "inline"
        assert not outcome.degraded
        assert [r["ok"] for r in outcome.results] == [True, True]
        assert all(r["value"]["length"] == 5 for r in outcome.results)

    def test_job_failure_stays_inside_the_batch(self, lcs_compiled):
        batch = _lcs_batch([GOOD, {**GOOD, "_inject_fail": True}])
        outcome = InlineExecutor().run_batches([(batch, lcs_compiled)])[0]
        assert outcome.results[0]["ok"]
        assert not outcome.results[1]["ok"]
        assert "injected" in outcome.results[1]["error"]


@pytest.fixture
def run_on_workers(lcs_compiled):
    """Run LCS batches on ``make_executor(workers, ...)`` (closed after)."""

    def run(batches, workers=1, **options):
        executor = make_executor(workers, **options)
        assert isinstance(executor, ShmExecutor)
        try:
            return executor.run_batches(
                [(batch, lcs_compiled) for batch in batches]
            )
        finally:
            executor.close()

    return run


@pytest.mark.usefixtures("every_batch_on_the_ring")
class TestPool:
    """The pool of warm shm workers that ``make_executor(n)`` builds."""

    def test_parallel_execution_matches_inline(self, run_on_workers, lcs_compiled):
        batches = [_lcs_batch([GOOD]), _lcs_batch([{"x": "AAAA", "y": "AAAA"}])]
        outcomes = run_on_workers(batches, workers=2)
        inline = InlineExecutor().run_batches(
            [(batch, lcs_compiled) for batch in batches]
        )
        assert [o.backend for o in outcomes] == ["shm", "shm"]
        assert [o.results for o in outcomes] == [o.results for o in inline]
        assert outcomes[0].results[0]["value"]["length"] == 5
        assert outcomes[1].results[0]["value"]["length"] == 4

    def test_worker_crash_retries_then_degrades_inline(self, run_on_workers):
        # _inject_exit kills the worker process (workers only), so every
        # worker attempt fails; the batch must land inline intact.
        batch = _lcs_batch([{**GOOD, "_inject_exit": True}])
        outcome = run_on_workers([batch], max_retries=1)[0]
        assert outcome.degraded
        assert outcome.backend == "inline"
        assert outcome.attempts == 3  # 1 try + 1 retry + inline fallback
        assert outcome.results[0]["ok"]
        assert outcome.results[0]["value"]["length"] == 5

    def test_timeout_falls_back_inline(self, run_on_workers):
        batch = _lcs_batch([{**GOOD, "_inject_delay_s": 1.0}])
        outcome = run_on_workers([batch], job_timeout_s=0.05, max_retries=0)[0]
        assert outcome.degraded
        assert outcome.backend == "inline"
        assert outcome.attempts == 2  # 1 worker try + the inline run
        assert outcome.results[0]["ok"]  # delay only applies in workers

    def test_invalid_configuration_rejected(self):
        for bad in ({"job_timeout_s": 0}, {"max_retries": -1}):
            with pytest.raises(ValueError):
                EngineConfig(**bad)
            with pytest.raises(ValueError):
                EngineConfig(workers=1, **bad)
            with pytest.raises(ValueError):
                ShmExecutor(TransportConfig(workers=1), **bad)
        with pytest.raises(ValueError):
            TransportConfig(workers=0)
        with pytest.raises(ValueError):
            TransportConfig(backend="pickle")

    def test_crash_does_not_strand_pending_batches(self, run_on_workers):
        # The batches queued behind the crashing one wait READY in the
        # ring while the worker is respawned: they must be served by
        # workers, charged no extra attempts.
        batches = [
            _lcs_batch([{**GOOD, "_inject_exit": True}]),
            _lcs_batch([GOOD]),
            _lcs_batch([{"x": "AAAA", "y": "AAAA"}]),
        ]
        crashed, innocent, innocent2 = run_on_workers(batches, max_retries=0)
        assert crashed.degraded and crashed.backend == "inline"
        assert crashed.attempts == 2  # 1 worker try + the inline run
        for outcome in (innocent, innocent2):
            assert outcome.backend == "shm"
            assert not outcome.degraded
            assert outcome.attempts == 1  # rode along for free
        assert innocent.results[0]["value"]["length"] == 5
        assert innocent2.results[0]["value"]["length"] == 4

    def test_hang_does_not_charge_the_batch_queued_behind_it(self, run_on_workers):
        # One worker: batch 1 sits READY for the whole of batch 0's
        # timeout window.  Its own window only opens when the respawned
        # worker claims it, so it is neither degraded nor charged --
        # and the hung worker is killed, not waited out.
        import time

        batches = [
            _lcs_batch([{**GOOD, "_inject_delay_s": 5.0}]),
            _lcs_batch([GOOD, GOOD]),
        ]
        started = time.perf_counter()
        hung, innocent = run_on_workers(batches, job_timeout_s=0.2, max_retries=1)
        assert time.perf_counter() - started < 4.0
        assert hung.degraded and hung.backend == "inline"
        assert hung.attempts == 3
        assert innocent.backend == "shm"
        assert not innocent.degraded
        assert innocent.attempts == 1
        assert [r["value"]["length"] for r in innocent.results] == [5, 5]


    def test_timeouts_racing_completion_lose_no_job(self, run_on_workers):
        # More workers than cores, jobs that finish right around the
        # timeout: a worker is killed only while its slot still reads
        # RUNNING under the claim lock, so whichever side wins each
        # race, every job reports exactly once and nothing deadlocks.
        import threading

        delays = [0.0, 0.03, 0.05, 0.07] * 6
        batches = [
            _lcs_batch([{**GOOD, "_inject_delay_s": d} for d in delays[i : i + 4]])
            for i in range(0, len(delays), 4)
        ]
        outcomes = []
        runner = threading.Thread(
            target=lambda: outcomes.extend(
                run_on_workers(batches, workers=3, job_timeout_s=0.05)
            ),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=60.0)
        assert not runner.is_alive()
        assert len(outcomes) == len(batches)
        for outcome in outcomes:
            assert outcome.attempts <= 3
            assert [r["value"]["length"] for r in outcome.results] == [5] * 4


class TestFactory:
    def test_zero_workers_selects_inline(self):
        assert isinstance(make_executor(0), InlineExecutor)

    def test_positive_workers_selects_pool(self):
        executor = make_executor(2)
        try:
            assert isinstance(executor, ShmExecutor)
            assert executor.config.workers == 2
        finally:
            executor.close()

    def test_transport_rules_over_workers(self):
        inline = make_executor(2, transport=TransportConfig(backend="inline"))
        assert isinstance(inline, InlineExecutor)
