"""Engine front door: queueing, backpressure, deadlines, metrics."""

import dataclasses
import time

import pytest

from repro.engine import BackpressureError, Engine, EngineConfig, make_job
from repro.engine.jobs import Job, JobValidationError


def _lcs_job(priority=0, deadline_s=None):
    return make_job(
        "lcs", {"x": "ACGTACGT", "y": "ACGGT"},
        priority=priority, deadline_s=deadline_s,
    )


class TestSubmission:
    def test_backpressure_when_queue_full(self):
        with Engine(EngineConfig(max_queue=2)) as engine:
            engine.submit(_lcs_job())
            engine.submit(_lcs_job())
            with pytest.raises(BackpressureError):
                engine.submit(_lcs_job())
            assert engine.metrics.counter("jobs_rejected") == 1
            # Draining frees the queue.
            assert len(engine.drain()) == 2
            engine.submit(_lcs_job())
            assert engine.queued == 1

    def test_submit_stamps_time(self):
        with Engine() as engine:
            stamped = engine.submit(_lcs_job())
            assert stamped.submitted_at > 0

    def test_every_job_field_survives_submit(self):
        """``submit`` rebuilds the job field by field: every field of
        ``Job`` -- one added later too, set here to a marker -- must be
        carried over; only the payload's stamps and the time are new."""
        known = {
            "job_id", "kernel", "payload", "priority", "deadline_s", "submitted_at"
        }
        markers = {
            field.name: object()
            for field in dataclasses.fields(Job)
            if field.name not in known
        }
        job = dataclasses.replace(_lcs_job(priority=3, deadline_s=7.5), **markers)
        for config in (EngineConfig(), EngineConfig(sentinels=True)):
            with Engine(config) as engine:
                stamped = engine.submit(job)
            assert type(stamped) is Job
            assert stamped.submitted_at > job.submitted_at
            for field in dataclasses.fields(Job):
                if field.name not in ("payload", "submitted_at"):
                    assert getattr(stamped, field.name) is getattr(job, field.name)
            assert job.payload.items() <= stamped.payload.items()
        assert stamped.payload["_sentinels"] is True

    def test_invalid_jobs_rejected_at_creation(self):
        with pytest.raises(JobValidationError):
            make_job("nope", {})
        with pytest.raises(JobValidationError):
            make_job("lcs", {"x": "ACGT"})  # missing y
        with pytest.raises(JobValidationError):
            make_job("chain", {"anchors": [[1, 2]]})  # not [x, y, w]

    @pytest.mark.parametrize(
        "kernel, payload",
        [
            ("chain", {"anchors": [1, 2, 3]}),  # used to escape as TypeError
            ("bsw", {"query": 5, "target": "ACGT"}),
            ("dtw", {"a": "xx", "b": [1]}),
            ("chain", {"anchors": [[1, 2, "x"]]}),
            # Used to fail inside the sweep: ValueError / OverflowError.
            ("dtw", {"a": [1.5, float("nan")], "b": [1]}),
            ("dtw", {"a": [float("inf")], "b": [1]}),
            ("chain", {"anchors": [[1, float("-inf"), 19]]}),
            # Out of (x, y) order the reference raises, and a sampled
            # validation would quarantine Chain for every tenant.
            ("chain", {"anchors": [[5, 6, 19], [1, 2, 19]]}),
        ],
    )
    def test_wrong_element_types_rejected_at_creation(self, kernel, payload):
        """Not accepted at submit to fail inside a worker."""
        with pytest.raises(JobValidationError, match="must be"):
            make_job(kernel, payload)

    @pytest.mark.parametrize("window", [-1, 0, "x", None, 2.5, True, 2**63])
    def test_chain_window_rejected_at_creation(self, window):
        """-1 used to run and bill ``cells: -8`` inline while shm read
        it as "no window given"; "x" / None escaped as raw ValueError /
        TypeError; 2.5 was truncated inline and pickled over shm; 2**63
        ran inline and faulted the whole drain in the slot encoder."""
        anchors = [[10 * i, 9 * i, 19] for i in range(1, 9)]
        with pytest.raises(JobValidationError, match="'n' must be an int >= 1"):
            make_job("chain", {"anchors": anchors, "n": window})

    def test_no_accepted_chain_payload_reports_negative_cells(self):
        from repro.engine.kernels import KERNELS

        for count in (1, 2, 8, 70):
            anchors = [[10 * i, 9 * i, 19] for i in range(1, count + 1)]
            for extra in ({}, {"n": 1}, {"n": 7}, {"n": 64}, {"n": 2**63 - 1}):
                job = make_job("chain", {"anchors": anchors, **extra})
                assert KERNELS["chain"].cells(job.payload) >= 0

    @pytest.mark.parametrize(
        "kernel, payload, key",
        [
            ("bsw", {"query": "ACGN", "target": "ACGT"}, "query"),
            ("pairhmm", {"read": "ACGT", "haplotype": "acgt"}, "haplotype"),
            ("lcs", {"x": "ACGT", "y": "hello"}, "y"),
        ],
    )
    def test_non_acgt_strings_rejected_at_creation(self, kernel, payload, key):
        """These used to be admitted, then dead-lettered by the sweep's
        ``non-DNA base`` ValueError."""
        with pytest.raises(
            JobValidationError, match=f"'{key}' must be a DNA string over ACGT"
        ):
            make_job(kernel, payload)

    def test_every_submitted_shape_still_validates(self):
        make_job("dtw", {"a": (1, 2.5), "b": [True, 3]})
        make_job("chain", {"anchors": [(1, 2, 19), [3, 4, 19.0]], "n": 4})
        make_job("chain", {"anchors": [[1, 2, 19], [1, 2, 7], [1, 3, 19]]})
        make_job("pairhmm", {"read": "ACGT", "haplotype": "AC"})


class TestDrain:
    def test_empty_drain_is_a_noop(self):
        with Engine() as engine:
            assert engine.drain() == []

    def test_results_in_submission_order(self):
        with Engine() as engine:
            jobs = [
                _lcs_job(priority=0),
                _lcs_job(priority=9),
                _lcs_job(priority=3),
            ]
            engine.submit_many(jobs)
            results = engine.drain()
            assert [r.job_id for r in results] == [j.job_id for j in jobs]
            assert all(r.ok for r in results)
            assert all(r.value["length"] == 5 for r in results)

    def test_deadline_zero_expires_immediately(self):
        with Engine() as engine:
            probe = engine.submit(_lcs_job(deadline_s=0))
            result = engine.drain()[0]
            assert not result.ok
            assert result.error == "deadline-expired"
            assert engine.metrics.counter("jobs_expired") == 1
            # Expiries are the caller's deadline, never dead-lettered.
            assert engine.dead_letters == []
            assert probe.deadline_s == 0.0

    def test_negative_or_nan_deadline_rejected_at_creation(self):
        with pytest.raises(JobValidationError):
            make_job("lcs", {"x": "ACGT", "y": "AC"}, deadline_s=-0.5)
        with pytest.raises(JobValidationError):
            make_job("lcs", {"x": "ACGT", "y": "AC"}, deadline_s=float("nan"))
        with pytest.raises(JobValidationError):
            make_job("lcs", {"x": "ACGT", "y": "AC"}, deadline_s="soon")

    def test_deadline_expired_jobs_fail_without_executing(self):
        with Engine() as engine:
            expired = engine.submit(_lcs_job(deadline_s=0.01))
            live = engine.submit(_lcs_job())
            time.sleep(0.05)
            results = {r.job_id: r for r in engine.drain()}
            assert not results[expired.job_id].ok
            assert results[expired.job_id].error == "deadline-expired"
            assert results[expired.job_id].batch_id is None
            assert results[live.job_id].ok
            assert engine.metrics.counter("jobs_expired") == 1

    def test_failed_job_does_not_poison_its_batch(self):
        with Engine() as engine:
            good = engine.submit(_lcs_job())
            bad = engine.submit(
                make_job("lcs", {"x": "ACGT", "y": "AC", "_inject_fail": True})
            )
            results = {r.job_id: r for r in engine.drain()}
            assert results[good.job_id].ok
            assert not results[bad.job_id].ok
            assert engine.metrics.counter("jobs_failed") == 1
            assert engine.metrics.counter("jobs_completed") == 1


class _RaisingExecutor:
    """An executor whose internals blow up mid-drain."""

    backend = "inline"

    def run_batches(self, items):
        raise RuntimeError("executor internals exploded")

    def close(self):
        pass


class _FlakyCompilePlan:
    """Duck-typed fault plan: the first compile attempt per kernel fails."""

    def __init__(self, failures=1):
        self.failures = failures

    def maybe_fail_compile(self, kernel, attempt):
        if attempt <= self.failures:
            raise RuntimeError(f"injected compile failure ({kernel} #{attempt})")


class TestCrashSafeDrain:
    def test_every_job_gets_an_envelope_when_internals_raise(self):
        with Engine() as engine:
            engine.executor = _RaisingExecutor()
            jobs = engine.submit_many([_lcs_job(), _lcs_job()])
            results = engine.drain()
            assert len(results) == len(jobs)
            assert [r.job_id for r in results] == [j.job_id for j in jobs]
            for result in results:
                assert not result.ok
                assert result.error.startswith("engine-fault: RuntimeError")
            assert engine.metrics.counter("drain_faults") == 1
            assert engine.metrics.counter("jobs_failed") == 2
            # Stranded jobs are parked for replay, and the queue is
            # empty again -- the engine stays usable.
            assert len(engine.dead_letters) == 2
            assert engine.queued == 0

    def test_compile_failure_fails_its_batch_not_the_drain(self):
        config = EngineConfig(fault_plan=_FlakyCompilePlan(failures=1))
        with Engine(config) as engine:
            engine.submit(_lcs_job())
            result = engine.drain()[0]
            assert not result.ok
            assert result.error.startswith("compile-failed: RuntimeError")
            assert engine.metrics.counter("compile_failed_batches") == 1
            # The cache holds no poisoned entry: the next drain
            # recompiles (attempt 2, which the plan lets through).
            engine.submit(_lcs_job())
            retried = engine.drain()[0]
            assert retried.ok
            assert retried.value["length"] == 5
            assert engine.cache.stats.compiles == 1


class TestValidationGuard:
    def test_corruption_caught_and_kernel_quarantined(self):
        with Engine(EngineConfig(validate_fraction=1.0)) as engine:
            bad = engine.submit(
                make_job("lcs", {"x": "ACGT", "y": "AC", "_inject_corrupt": True})
            )
            result = engine.drain()[0]
            assert not result.ok
            assert result.error == "validation-mismatch"
            assert engine.quarantined == {"lcs": "validation-mismatch"}
            assert engine.metrics.counter("validation_mismatches") == 1
            assert bad.job_id == result.job_id

            # Quarantined kernels are served by the software baseline.
            follow_up = engine.submit(_lcs_job())
            served = engine.drain()[0]
            assert served.ok
            assert served.backend == "reference"
            assert served.value["length"] == 5
            assert served.job_id == follow_up.job_id
            assert engine.metrics.counter("reference_jobs") == 1

            # Lifting the quarantine restores the compiled path.
            assert engine.lift_quarantine("lcs")
            assert not engine.lift_quarantine("lcs")
            engine.submit(_lcs_job())
            assert engine.drain()[0].backend == "inline"

    def test_clean_results_pass_validation(self):
        with Engine(EngineConfig(validate_fraction=1.0)) as engine:
            engine.submit(_lcs_job())
            assert engine.drain()[0].ok
            assert engine.metrics.counter("validation_checked") == 1
            assert engine.quarantined == {}

    def test_validation_off_by_default(self):
        with Engine() as engine:
            engine.submit(
                make_job("lcs", {"x": "ACGT", "y": "AC", "_inject_corrupt": True})
            )
            result = engine.drain()[0]
            assert result.ok  # the corruption sails through, unchecked
            assert engine.metrics.counter("validation_checked") == 0


class TestDeadLetters:
    def test_failed_jobs_park_and_replay_with_same_id(self):
        with Engine() as engine:
            bad = engine.submit(
                make_job("lcs", {"x": "ACGT", "y": "AC", "_inject_fail": True})
            )
            engine.drain()
            letters = engine.dead_letters
            assert [l.job.job_id for l in letters] == [bad.job_id]
            assert "injected" in letters[0].error

            replayed = engine.replay_dead_letters()
            assert [j.job_id for j in replayed] == [bad.job_id]
            assert engine.dead_letters == []  # drained into the queue
            assert engine.metrics.counter("dead_letters_replayed") == 1
            # The envelope for the replayed drain supersedes the old one.
            results = engine.drain()
            assert [r.job_id for r in results] == [bad.job_id]

    def test_dlq_disabled_with_zero_capacity(self):
        with Engine(EngineConfig(dlq_capacity=0)) as engine:
            engine.submit(
                make_job("lcs", {"x": "ACGT", "y": "AC", "_inject_fail": True})
            )
            engine.drain()
            assert engine.dead_letters == []
            assert engine.metrics.counter("dead_letters") == 0

    def test_replay_stops_at_backpressure(self):
        with Engine(EngineConfig(max_queue=1)) as engine:
            for _ in range(2):
                engine.submit(
                    make_job("lcs", {"x": "ACGT", "y": "AC", "_inject_fail": True})
                )
                engine.drain()
            assert len(engine.dead_letters) == 2
            replayed = engine.replay_dead_letters()
            assert len(replayed) == 1  # the queue only took one
            assert len(engine.dead_letters) == 1  # the rest stayed parked


class TestCacheAccounting:
    def test_one_compile_per_distinct_kernel(self):
        with Engine() as engine:
            for _ in range(4):
                engine.submit(_lcs_job())
            engine.drain()
            # Second drain: fully warm.
            for _ in range(4):
                engine.submit(_lcs_job())
            engine.drain()
            stats = engine.cache.stats
            assert stats.compiles == 1
            assert stats.misses == 1
            assert stats.hits == 7

    def test_results_carry_cache_hit_flags(self):
        with Engine() as engine:
            first = engine.submit(_lcs_job())
            second = engine.submit(_lcs_job())
            results = {r.job_id: r for r in engine.drain()}
            assert not results[first.job_id].cache_hit
            assert results[second.job_id].cache_hit


class TestMetrics:
    def test_snapshot_is_plain_data(self):
        import json

        with Engine() as engine:
            engine.submit(_lcs_job())
            engine.drain()
            snapshot = engine.snapshot()
        json.dumps(snapshot)  # must serialize without custom encoders
        assert snapshot["counters"]["jobs_submitted"] == 1
        assert snapshot["counters"]["batches_total"] == 1
        assert snapshot["counters"]["inline_batches"] == 1
        assert snapshot["cache"]["compiles"] == 1
        assert snapshot["histograms"]["queue_wait_s"]["count"] == 1
        assert snapshot["histograms"]["execute_s"]["count"] == 1
        assert snapshot["histograms"]["batch_occupancy"]["count"] == 1
        assert 0 < snapshot["derived"]["mean_batch_occupancy"] <= 1

    def test_timings_populated_per_result(self):
        with Engine() as engine:
            engine.submit(_lcs_job())
            result = engine.drain()[0]
            assert set(result.timings) == {
                "queue_wait_s", "compile_s", "execute_s",
            }
            assert result.backend == "inline"
            assert result.attempts == 1


class TestStaticVerification:
    """The guard verifier gates the compile seam (PR 3)."""

    def _corrupting(self, monkeypatch):
        """Patch the compile seam to emit an out-of-range input reg."""
        import dataclasses

        import repro.engine.service as service

        real = service.compile_program

        def corrupt(kernel, levels, dfg):
            compiled = real(kernel, levels, dfg)
            regs = dict(compiled.input_regs)
            first = next(iter(regs))
            regs[first] = 4096
            return dataclasses.replace(compiled, input_regs=regs)

        monkeypatch.setattr(service, "compile_program", corrupt)

    def test_illegal_program_rejected_before_cache(self, monkeypatch):
        self._corrupting(monkeypatch)
        with Engine() as engine:
            engine.submit(_lcs_job())
            engine.submit(_lcs_job())
            results = engine.drain()
            assert all(not result.ok for result in results)
            assert all(
                result.error.startswith("compile-failed: ProgramVerificationError")
                for result in results
            )
            # The batch fails as a unit; nothing poisons the cache.
            assert len(engine.cache) == 0
            assert engine.cache.stats.compile_failures == 1
            assert engine.metrics.counter("verifier_rejections") == 1
            assert engine.metrics.counter("compile_failed_batches") == 1
            # A later drain re-attempts the compile (no stale entry).
            engine.submit(_lcs_job())
            retry = engine.drain()[0]
            assert not retry.ok
            assert engine.metrics.counter("verifier_rejections") == 2

    def test_clean_programs_unaffected(self):
        with Engine() as engine:
            engine.submit(_lcs_job())
            assert engine.drain()[0].ok
            assert engine.metrics.counter("verifier_rejections") == 0


class TestSentinels:
    def test_sentinel_counters_folded_into_metrics(self):
        # elide_sentinels=False forces observation even though LCS is
        # certified sentinel-free, exercising the fold path (and the
        # certificate soundness cross-check, which must stay silent).
        with Engine(
            EngineConfig(sentinels=True, elide_sentinels=False)
        ) as engine:
            engine.submit(_lcs_job())
            result = engine.drain()[0]
            assert result.ok
            # The marker never leaks into the user-visible value.
            assert "_sentinels" not in result.value
            counters = engine.snapshot()["counters"]
            assert counters["sentinel_values_observed"] > 0
            assert counters["sentinel_int32_overflows"] == 0
            assert (
                engine.metrics.counter("static_certificate_violations") == 0
            )

    def test_certified_program_elides_observation_by_default(self):
        # LCS's certificate proves no armed hazard can fire, so the
        # default config skips the observe hook entirely.
        with Engine(EngineConfig(sentinels=True)) as engine:
            engine.submit(_lcs_job())
            assert engine.drain()[0].ok
            assert engine.metrics.counter("sentinel_values_observed") == 0
            assert engine.metrics.counter("static_sentinel_elisions") == 1
            assert engine.metrics.counter("static_programs_certified") == 1

    def test_sentinels_off_by_default(self):
        with Engine() as engine:
            engine.submit(_lcs_job())
            assert engine.drain()[0].ok
            assert engine.metrics.counter("sentinel_values_observed") == 0

    def test_results_identical_with_and_without_sentinels(self):
        with Engine() as engine:
            engine.submit(_lcs_job())
            plain = engine.drain()[0].value
        with Engine(EngineConfig(sentinels=True)) as engine:
            engine.submit(_lcs_job())
            watched = engine.drain()[0].value
        assert plain == watched


class TestProgramKeyMemo:
    """Each kernel's cache key is derived once per engine: a drain
    builds no DFG unless it has to compile."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.engine import service

        built = []

        def counting(kernel):
            dfg = original(kernel)
            built.append((kernel, dfg))
            return dfg

        original = service.build_dfg
        monkeypatch.setattr(service, "build_dfg", counting)
        return built

    @staticmethod
    def _drain(engine, kernel, jobs):
        payload = {"lcs": {"x": "ACGT", "y": "AGT"}, "dtw": {"a": [1, 2], "b": [2]}}
        for _ in range(jobs):
            engine.submit(make_job(kernel, dict(payload[kernel])))
        assert all(result.ok for result in engine.drain())

    def test_warm_engine_builds_each_kernel_once(self, builds):
        with Engine(EngineConfig(optimize_programs=True)) as engine:
            for _ in range(3):
                self._drain(engine, "lcs", 2)
                self._drain(engine, "dtw", 1)
            cache = engine.snapshot()["cache"]
        assert [kernel for kernel, _ in builds] == ["lcs", "dtw"]
        # One miss per kernel, every other job a hit.
        assert (cache["misses"], cache["hits"]) == (2, 7)

    def test_a_second_engine_builds_again(self, builds):
        for _ in range(2):
            with Engine() as engine:
                self._drain(engine, "lcs", 1)
                self._drain(engine, "lcs", 1)
        assert [kernel for kernel, _ in builds] == ["lcs", "lcs"]
        assert builds[0][1] is not builds[1][1]

    def test_recompile_after_eviction_builds_a_fresh_dfg(self, builds, monkeypatch):
        from repro.engine import service

        compiled_from = []
        compile_program = service.compile_program

        def recording(kernel, levels, dfg, *rest):
            compiled_from.append(dfg)
            return compile_program(kernel, levels, dfg, *rest)

        monkeypatch.setattr(service, "compile_program", recording)
        with Engine(EngineConfig(cache_capacity=1)) as engine:
            self._drain(engine, "lcs", 2)
            self._drain(engine, "dtw", 1)  # evicts lcs
            self._drain(engine, "lcs", 2)
            cache = engine.snapshot()["cache"]
        assert [kernel for kernel, _ in builds] == ["lcs", "dtw", "lcs"]
        # Each compile ran on the DFG built for it, never on a reused one.
        assert [id(dfg) for dfg in compiled_from] == [id(dfg) for _, dfg in builds]
        assert builds[0][1] is not builds[2][1]
        assert (cache["misses"], cache["hits"], cache["evictions"]) == (3, 2, 2)
