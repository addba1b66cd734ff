"""Engine-level recovery: dedupe, orphan resubmission, DLQ rehydration.

The scenario shape everywhere: run a journaled engine, ``crash()`` the
journal (kill -9 -- the in-memory queue evaporates, the page cache
survives), build a *fresh* engine over the same directory, and
``recover()``.  The recovered run must be indistinguishable from a
crash-free one: every accepted job yields exactly one envelope, no
completed job re-executes, dead letters come back parked.
"""

import pytest

from repro.durable import DurabilityConfig, load_journal_state
from repro.engine import Engine, EngineConfig, make_job

LCS = {"x": "ACGTACGT", "y": "ACGGTA"}


def engine_over(tmp_path, **overrides):
    defaults = dict(
        max_queue=64,
        workers=0,
        validate_fraction=0.0,
        durability=DurabilityConfig(
            dir_path=str(tmp_path / "wal"), fsync="never"
        ),
    )
    defaults.update(overrides)
    return Engine(EngineConfig(**defaults))


class TestRoundTrip:
    def test_orphans_resubmit_and_complete_after_a_crash(self, tmp_path):
        engine = engine_over(tmp_path)
        for _ in range(4):
            engine.submit(make_job("lcs", dict(LCS)))
        # Crash before draining: all four are orphans.
        engine.journal.crash()
        engine.close()

        engine = engine_over(tmp_path)
        report = engine.recover()
        assert report.accepted == 4
        assert report.orphans == 4
        assert report.orphans_resubmitted == 4
        results = engine.drain()
        engine.close()
        assert len(results) == 4
        assert all(result.ok for result in results)
        # The journal agrees: all terminal, none duplicated.
        state, _issues = load_journal_state(str(tmp_path / "wal"))
        assert len(state.orphans()) == 0
        assert state.duplicate_completions == 0

    def test_completed_jobs_are_never_reexecuted(self, tmp_path):
        engine = engine_over(tmp_path)
        for _ in range(6):
            engine.submit(make_job("lcs", dict(LCS)))
        first = engine.drain()
        assert len(first) == 6
        engine.journal.crash()
        engine.close()

        engine = engine_over(tmp_path)
        report = engine.recover()
        assert report.completed == 6
        assert report.completions_deduped == 6
        assert report.orphans_resubmitted == 0
        # Nothing to run again.
        assert engine.drain() == []
        engine.close()

    def test_recovered_orphans_keep_their_original_ids(self, tmp_path):
        engine = engine_over(tmp_path)
        submitted = [
            engine.submit(make_job("lcs", dict(LCS))) for _ in range(3)
        ]
        original_ids = {job.job_id for job in submitted}
        engine.journal.crash()
        engine.close()

        engine = engine_over(tmp_path)
        engine.recover()
        results = engine.drain()
        engine.close()
        assert {result.job_id for result in results} == original_ids

    def test_new_submissions_never_collide_with_recovered_ids(
        self, tmp_path
    ):
        engine = engine_over(tmp_path)
        submitted = [
            engine.submit(make_job("lcs", dict(LCS))) for _ in range(3)
        ]
        old_ids = {job.job_id for job in submitted}
        engine.journal.crash()
        engine.close()

        engine = engine_over(tmp_path)
        engine.recover()
        fresh = engine.submit(make_job("lcs", dict(LCS)))
        assert fresh.job_id not in old_ids
        results = engine.drain()
        engine.close()
        assert len(results) == 4
        assert len({result.job_id for result in results}) == 4

    def test_repeated_crash_cycles_stay_exactly_once(self, tmp_path):
        envelopes = {}
        engine = engine_over(tmp_path)
        accepted = 0
        for cycle in range(4):
            for _ in range(3):
                engine.submit(make_job("lcs", dict(LCS)))
                accepted += 1
            engine.journal.crash()
            engine.close()
            engine = engine_over(tmp_path)
            engine.recover()
            for result in engine.drain():
                assert result.job_id not in envelopes, "duplicate envelope"
                envelopes[result.job_id] = result
        engine.close()
        assert len(envelopes) == accepted
        state, _issues = load_journal_state(str(tmp_path / "wal"))
        assert state.duplicate_completions == 0
        assert len(state.orphans()) == 0


class TestDlqRehydration:
    def test_dead_letters_survive_the_crash(self, tmp_path):
        engine = engine_over(tmp_path, max_retries=0)
        engine.submit(
            make_job("lcs", dict(LCS, _inject_fail=True))
        )
        engine.submit(make_job("lcs", dict(LCS)))
        results = engine.drain()
        assert sum(1 for r in results if not r.ok) == 1
        assert len(engine.dead_letters) == 1
        engine.journal.crash()
        engine.close()

        engine = engine_over(tmp_path, max_retries=0)
        report = engine.recover()
        assert report.dead_lettered == 1
        assert report.dlq_rehydrated == 1
        letters = engine.dead_letters
        assert len(letters) == 1
        # The rehydrated letter still replays.
        replayed = engine.replay_dead_letters()
        assert len(replayed) == 1
        engine.drain()
        engine.close()


class TestEdges:
    def test_recover_without_journal_raises(self):
        engine = Engine(EngineConfig(max_queue=8, workers=0))
        with pytest.raises(ValueError):
            engine.recover()
        engine.close()

    def test_backlog_larger_than_queue_drains_mid_replay(self, tmp_path):
        engine = engine_over(tmp_path, max_queue=32)
        for _ in range(10):
            engine.submit(make_job("lcs", dict(LCS)))
        engine.journal.crash()
        engine.close()

        # Recover into a queue smaller than the orphan backlog: the
        # replay must drain to make room instead of dropping work.
        small = engine_over(tmp_path, max_queue=4)
        report = small.recover()
        results = list(report.drained)
        results.extend(small.drain())
        small.close()
        assert report.orphans == 10
        assert report.orphans_resubmitted == 10
        assert len(results) == 10

    def test_unjournaled_submission_is_not_accepted(self, tmp_path):
        # Write-ahead means write-ahead: if the accept record cannot
        # be journaled, the job must not enter the queue.  Every write
        # tears, so read-back exhausts its retries on the accept.
        from repro.durable.journal import JournalWriteError
        from repro.faults.disk import DiskFaultPlan

        config = DurabilityConfig(
            dir_path=str(tmp_path / "wal"),
            fsync="never",
            disk_faults=DiskFaultPlan(seed=0, torn_rate=1.0),
        )
        engine = engine_over(tmp_path, durability=config)
        with pytest.raises(JournalWriteError):
            engine.submit(make_job("lcs", dict(LCS)))
        assert engine.queued == 0
        assert engine.metrics.counter("jobs_rejected") == 1
        assert engine.drain() == []
        engine.close()
        state, _issues = load_journal_state(str(tmp_path / "wal"))
        assert len(state.accepted) == 0

    def test_recovery_counters_are_folded(self, tmp_path):
        engine = engine_over(tmp_path)
        for _ in range(3):
            engine.submit(make_job("lcs", dict(LCS)))
        engine.drain()
        engine.journal.crash()
        engine.close()

        engine = engine_over(tmp_path)
        engine.recover()
        counters = engine.snapshot()["counters"]
        engine.close()
        assert counters["durable_recoveries"] == 1
        assert counters["durable_completions_deduped"] == 3
        assert counters["durable_duplicate_completions"] == 0
