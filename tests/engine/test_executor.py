"""Executor backends: pool parallelism, retries, timeout, degradation."""

import pytest

from repro.engine.batcher import Batcher
from repro.engine.cache import ProgramCache, compile_program
from repro.engine.executor import InlineExecutor, PoolExecutor, make_executor
from repro.engine.jobs import make_job
from repro.engine.runners import build_dfg


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


class TestPool:
    def test_parallel_execution_matches_inline(self, lcs_compiled):
        batches = [
            (_lcs_batch([GOOD]), lcs_compiled),
            (_lcs_batch([{"x": "AAAA", "y": "AAAA"}]), lcs_compiled),
        ]
        executor = PoolExecutor(workers=2, job_timeout_s=30.0)
        try:
            outcomes = executor.run_batches(batches)
        finally:
            executor.close()
        assert [o.backend for o in outcomes] == ["pool", "pool"]
        assert outcomes[0].results[0]["value"]["length"] == 5
        assert outcomes[1].results[0]["value"]["length"] == 4

    def test_worker_crash_retries_then_degrades_inline(self, lcs_compiled):
        # _inject_exit kills the worker process (pool workers only), so
        # every pool attempt fails; the batch must land inline intact.
        batch = _lcs_batch([{**GOOD, "_inject_exit": True}])
        executor = PoolExecutor(workers=1, job_timeout_s=30.0, max_retries=1)
        try:
            outcome = executor.run_batches([(batch, lcs_compiled)])[0]
        finally:
            executor.close()
        assert outcome.degraded
        assert outcome.backend == "inline"
        assert outcome.attempts == 3  # 1 try + 1 retry + inline fallback
        assert outcome.results[0]["ok"]
        assert outcome.results[0]["value"]["length"] == 5

    def test_pool_breaking_during_submission_fails_over(self, lcs_compiled):
        """A crash that breaks the pool while later batches of the drain
        are still being submitted must not escape ``run_batches``."""
        from concurrent.futures.process import BrokenProcessPool

        class BreaksAfterFirstSubmit:
            def __init__(self, pool):
                self.pool, self.submits = pool, 0

            def submit(self, *args):
                self.submits += 1
                if self.submits > 1:
                    raise BrokenProcessPool("a child process terminated")
                return self.pool.submit(*args)

            def shutdown(self, **kwargs):
                self.pool.shutdown(**kwargs)

        batches = [
            (_lcs_batch([GOOD]), lcs_compiled),
            (_lcs_batch([{"x": "AAAA", "y": "AAAA"}]), lcs_compiled),
        ]
        executor = PoolExecutor(workers=1, job_timeout_s=30.0, max_retries=1)
        try:
            executor._pool = BreaksAfterFirstSubmit(executor._ensure_pool())
            outcomes = executor.run_batches(batches)
        finally:
            executor.close()
        # The first batch's result survived; the second rode the
        # failover onto a fresh pool, charged one retry.
        assert [o.backend for o in outcomes] == ["pool", "pool"]
        assert [o.attempts for o in outcomes] == [1, 2]
        assert outcomes[1].results[0]["value"]["length"] == 4

    def test_timeout_falls_back_inline(self, lcs_compiled):
        batch = _lcs_batch([{**GOOD, "_inject_delay_s": 1.0}])
        executor = PoolExecutor(workers=1, job_timeout_s=0.05, max_retries=0)
        try:
            outcome = executor.run_batches([(batch, lcs_compiled)])[0]
        finally:
            executor.close()
        assert outcome.degraded
        assert outcome.backend == "inline"
        assert outcome.results[0]["ok"]  # delay only applies in workers

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            PoolExecutor(workers=0)
        with pytest.raises(ValueError):
            PoolExecutor(workers=1, job_timeout_s=0)
        with pytest.raises(ValueError):
            PoolExecutor(workers=1, max_retries=-1)
        with pytest.raises(ValueError):
            PoolExecutor(workers=1, retry_backoff_s=-0.1)

    def test_crash_does_not_strand_pending_batches(self, lcs_compiled):
        # A dead worker poisons the whole pool.  The batch behind the
        # crashing one must be resubmitted on the fresh pool -- served
        # from the pool, charged no extra attempts -- instead of
        # failing serially behind the crash.
        batches = [
            (_lcs_batch([{**GOOD, "_inject_exit": True}]), lcs_compiled),
            (_lcs_batch([GOOD]), lcs_compiled),
            (_lcs_batch([{"x": "AAAA", "y": "AAAA"}]), lcs_compiled),
        ]
        executor = PoolExecutor(workers=1, job_timeout_s=30.0, max_retries=0)
        try:
            outcomes = executor.run_batches(batches)
        finally:
            executor.close()
        crashed, innocent, innocent2 = outcomes
        assert crashed.degraded and crashed.backend == "inline"
        assert crashed.attempts == 2  # 1 pool try + the inline run
        for outcome in (innocent, innocent2):
            assert outcome.backend == "pool"
            assert not outcome.degraded
            assert outcome.attempts == 1  # rode along for free
        assert innocent.results[0]["value"]["length"] == 5
        assert innocent2.results[0]["value"]["length"] == 4


class TestBackoff:
    def test_disabled_by_default(self):
        executor = PoolExecutor(workers=1)
        try:
            assert executor._backoff_delay(1) == 0.0
        finally:
            executor.close()

    def test_exponential_with_bounded_jitter(self):
        executor = PoolExecutor(workers=1, retry_backoff_s=0.1, jitter_seed=42)
        try:
            for failed in (1, 2, 3):
                step = 0.1 * 2 ** (failed - 1)
                delay = executor._backoff_delay(failed)
                assert 0.5 * step <= delay < step
        finally:
            executor.close()

    def test_jitter_is_seed_deterministic(self):
        a = PoolExecutor(workers=1, retry_backoff_s=0.1, jitter_seed=7)
        b = PoolExecutor(workers=1, retry_backoff_s=0.1, jitter_seed=7)
        try:
            assert [a._backoff_delay(n) for n in (1, 2)] == [
                b._backoff_delay(n) for n in (1, 2)
            ]
        finally:
            a.close()
            b.close()


class TestFactory:
    def test_zero_workers_selects_inline(self):
        assert isinstance(make_executor(0), InlineExecutor)

    def test_positive_workers_selects_pool(self):
        executor = make_executor(2)
        assert isinstance(executor, PoolExecutor)
        executor.close()
