"""EngineShard: lifecycle, fault flags, and the jobs the router's
in-flight ledger says it owns (pending, stealing, kill orphans)."""

import pytest

from repro.cluster import ClusterConfig, ClusterRouter, SimClock
from repro.cluster.shard import SHARD_STATE_CODES, EngineShard
from repro.engine import BackpressureError, Engine, EngineConfig, make_job


def _shard(shard_id="s0", max_queue=8):
    engine = Engine(
        EngineConfig(workers=0, max_queue=max_queue), shard=shard_id
    )
    return EngineShard(shard_id, engine)


def _router(shards=1, max_queue=8):
    return ClusterRouter(
        ClusterConfig(
            shards=shards, engine=EngineConfig(workers=0, max_queue=max_queue)
        ),
        clock=SimClock(),
    )


def _job():
    return make_job("lcs", {"x": "ACGT", "y": "ACG"})


def _pending(router, shard_id):
    return router.snapshot()["shards"][shard_id]["pending"]


def _owner(router, job):
    return router._ledger[job.job_id].shard


def _orphaned(router):
    return [
        job_id
        for job_id, entry in router._ledger.items()
        if entry.shard is None
    ]


class TestWorkAndLedger:
    def test_submit_ledgers_and_drain_settles(self):
        with _router() as router:
            accepted = router.submit(_job())
            shard = router.shards["shard-0"]
            assert _owner(router, accepted) == "shard-0"
            assert _pending(router, "shard-0") == 1
            assert shard.queued == 1
            results = router.drain()
            assert [r.job_id for r in results] == [accepted.job_id]
            assert results[0].shard == "shard-0"
            assert _pending(router, "shard-0") == 0

    def test_backpressure_propagates(self):
        with _router(max_queue=1) as router:
            router.submit(_job())
            with pytest.raises(BackpressureError):
                router.submit(_job())

    def test_withdraw_takes_from_the_tail(self):
        # One program, three shards: the stealer takes the hot shard's
        # excess (2 of 4) from the tail of its queue.
        with _router(shards=3) as router:
            jobs = [router.submit(_job()) for _ in range(4)]
            hot = _owner(router, jobs[0])
            router._rebalance(router.round + 1)
            assert [_owner(router, job) for job in jobs[:2]] == [hot, hot]
            assert hot not in {_owner(router, job) for job in jobs[2:]}
            # Stolen jobs leave the donor's ledger: they are someone else's.
            assert _pending(router, hot) == 2
            assert router.shards[hot].queued == 2

    def test_withdraw_all_and_bounds(self):
        with _router(shards=2) as router:
            jobs = [router.submit(_job()) for _ in range(3)]
            shard = router.shards[_owner(router, jobs[0])]
            assert shard.engine.withdraw(0) == []
            for _ in range(2):  # two failed drains open its breaker
                shard.health.record_drain(False, 0.0)
            router._eject(shard, router.round + 1)
            assert shard.queued == 0
            assert _orphaned(router) == [job.job_id for job in jobs]
            results = router.drain()
            assert [r.job_id for r in results] == [job.job_id for job in jobs]
            assert all(r.ok and r.shard != shard.shard_id for r in results)


class TestKillAndLifecycle:
    def test_kill_orphans_pending_jobs(self):
        with _router(shards=2) as router:
            submitted = [router.submit(_job()) for _ in range(3)]
            victim = _owner(router, submitted[0])
            assert router.kill_shard(victim) == 3
            assert set(_orphaned(router)) == {
                job.job_id for job in submitted
            }
            shard = router.shards[victim]
            assert shard.state == "dead"
            assert shard.queued == 0  # a dead shard reports no load
            assert _pending(router, victim) == 0
            assert not shard.accepting(router.round + 1)
            assert _owner(router, router.submit(_job())) != victim

    def test_drained_jobs_are_not_orphaned(self):
        with _router(shards=2) as router:
            first = router.submit(_job())
            router.drain()
            assert first.job_id not in router._ledger
            survivor = router.submit(_job())
            victim = _owner(router, survivor)
            assert router.kill_shard(victim) == 1
            assert _orphaned(router) == [survivor.job_id]

    def test_graceful_leave_drains_backlog_first(self):
        shard = _shard()
        shard.engine.submit(_job())
        shard.begin_leave()
        assert shard.state == "draining"
        assert not shard.accepting(1)
        assert shard.drainable(1)
        assert not shard.finish_leave()  # backlog not empty yet
        shard.engine.drain()
        assert shard.finish_leave()
        assert shard.state == "left"

    def test_state_codes_cover_all_states(self):
        assert set(SHARD_STATE_CODES) == {"active", "draining", "left", "dead"}


class TestFaultFlags:
    def test_partition_blocks_then_heals(self):
        shard = _shard()
        try:
            shard.mark_partitioned(until_round=3)
            assert shard.partitioned(1) and shard.partitioned(2)
            assert not shard.accepting(2)
            assert not shard.drainable(2)
            assert not shard.partitioned(3)
            assert shard.accepting(3)
        finally:
            shard.close()

    def test_hang_delay_is_consumed_once(self):
        shard = _shard()
        try:
            shard.mark_hung(0.5)
            shard.mark_hung(0.2)  # max wins, no stacking
            assert shard.take_hang_delay() == 0.5
            assert shard.take_hang_delay() == 0.0
        finally:
            shard.close()

    def test_snapshot_gauges(self):
        with _router() as router:
            router.submit(_job())
            shard = router.shards["shard-0"]
            shard.mark_partitioned(until_round=5)
            snap = router.snapshot()["shards"]["shard-0"]
            assert snap["state"] == float(SHARD_STATE_CODES["active"])
            assert snap["queued"] == 1.0
            assert snap["pending"] == 1.0
            assert snap["partitioned"] == 1.0
            assert snap["dlq_depth"] == 0.0
            # Healed partitions read 0 again (round-dependent gauge).
            assert shard.snapshot(round_number=5)["partitioned"] == 0.0
