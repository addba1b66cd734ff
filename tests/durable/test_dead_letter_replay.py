"""Dead-letter replay over a journal stays exactly-once.

A replayed dead letter is re-admitted under its original id, so the
journal holds a second ``accept`` and, once the replay settles, a
second terminal record for that id.  The re-accept reopens the id
(:meth:`repro.durable.journal.JournalState.apply`): the replay's own
``complete`` is the id's first again, ``gendp-recover verify`` stays
clean, and a replay that succeeded is not re-parked by the next
process's recovery.
"""

from dataclasses import replace

import pytest

from repro.cli import recover_main
from repro.cluster import ClusterConfig, ClusterRouter
from repro.durable import DurabilityConfig, load_journal_state
from repro.engine import Engine, EngineConfig, make_job
from repro.faults import FaultPlan

LCS = {"x": "GATTACA", "y": "TACATACA"}

#: Seed 1 fails lcs's first compile attempt and passes its second, so
#: the dead letter's replay succeeds.
TRANSIENT_COMPILE = FaultPlan(seed=1, compile_fail_rate=0.5)


def build(tier, wal, fault_plan=None):
    engine = EngineConfig(workers=0, fault_plan=fault_plan)
    durability = DurabilityConfig(dir_path=wal, fsync="never")
    if tier == "engine":
        return Engine(replace(engine, durability=durability))
    return ClusterRouter(ClusterConfig(shards=2, engine=engine, durability=durability))


def settle(target):
    closure = getattr(target, "drain_until_settled", None)
    return closure() if closure else target.drain()


def fail_then_replay(tier, wal, payload, fault_plan=None):
    """One job that dead-letters, then one replay round; the results."""
    with build(tier, wal, fault_plan) as target:
        target.submit(make_job("lcs", payload))
        (first,) = settle(target)
        assert not first.ok
        assert [job.job_id for job in target.replay_dead_letters()] == [first.job_id]
        (second,) = settle(target)
    return first, second


@pytest.mark.parametrize("tier", ["engine", "router"])
def test_a_replay_that_fails_again_is_not_a_duplicate_completion(tmp_path, tier):
    wal = str(tmp_path / "wal")
    first, second = fail_then_replay(tier, wal, dict(LCS, _inject_fail=True))
    assert second.job_id == first.job_id and not second.ok
    state, _issues = load_journal_state(wal)
    assert state.duplicate_completions == 0
    assert not state.orphans()
    assert recover_main(["verify", wal]) == 0


@pytest.mark.parametrize("tier", ["engine", "router"])
def test_a_replay_that_succeeds_is_not_reparked_at_recovery(tmp_path, tier):
    wal = str(tmp_path / "wal")
    first, second = fail_then_replay(tier, wal, dict(LCS), TRANSIENT_COMPILE)
    assert first.error.startswith("compile-failed") and second.ok
    state, _issues = load_journal_state(wal)
    assert state.duplicate_completions == 0
    assert not state.dead
    with build(tier, wal) as fresh:
        report = fresh.recover()
        assert report.dlq_rehydrated == 0
        assert report.orphans == 0
        assert fresh.dead_letters == []
    assert recover_main(["verify", wal]) == 0
