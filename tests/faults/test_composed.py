"""Composed chaos: worker crash x shard kill x router kill -9 x disk faults.

Every other campaign attacks one layer.  This one hands the campaign
driver (:func:`repro.faults.drive`) a single target that carries all
four fault planes at once -- a 3-shard :class:`ClusterRouter` on a
``SimClock`` whose shard engines run a :class:`FaultPlan` (worker
crashes, per-job failures, silent corruption at 100 % validation), whose
router replays a :class:`ShardFaultPlan` (a scheduled kill plus seeded
partitions) and journals to a ledger under a :class:`DiskFaultPlan`
(torn and bit-flipped writes), while the driver's coin ``kill -9``s the
router between chunks -- and asserts exactly-once end to end.

Two semantics only the composed run shows, pinned here:

- **the shard-fault schedule re-arms per router generation.**  A
  restarted router starts again at round 0 with every shard alive, so
  ``kills=((2, 1),)`` (and the ``max_kills`` cap) apply to each
  generation that lives two rounds: seed 1 kills shard 1 *twice*, seed
  3 (restarted after four of its five chunks) never reaches a round 2.
- **availability, unlike exactly-once, does not compose for free.**  On
  seed 4 the kill (round 2) lands between two partitions (rounds 2 and
  3), the breaker ejects both partitioned shards and the first
  generation's ring is empty from round 4: 48 in-flight jobs settle as
  ``cluster-fault``, the last two chunks (64 jobs) are shed at submit,
  and only the restart after the final chunk brings the shards back.
  Still exactly-once -- nothing lost, nothing duplicated.
"""

import pytest

from repro.cluster import ClusterConfig, ClusterRouter, SimClock
from repro.durable import DurabilityConfig
from repro.engine import EngineConfig
from repro.faults import (
    ChaosConfig,
    DiskFaultPlan,
    FaultPlan,
    ShardFaultPlan,
    drive,
)
from repro.faults.campaign import decorated_jobs
from repro.obs.trace import validate_chrome_trace
from repro.slo.flight import FlightRecorder, blackbox_to_chrome_trace, load_blackbox

SEEDS = (1, 2, 3, 4)
PLANES = ("worker_crashes", "shards_killed", "restarts", "journal_faults")


def composed(seed, workers, wal, replay_rounds=0, **planes_off):
    """One composed run; *planes_off* zeroes a fault plane's rate."""
    rates = dict(crash_rate=0.04, kills=((2, 1),), torn_rate=0.05, restart=0.4)
    rates.update(planes_off)
    plan = FaultPlan(
        seed=seed, crash_rate=rates["crash_rate"], fail_rate=0.03, corrupt_rate=0.04
    )
    config = ClusterConfig(
        shards=3,
        engine=EngineConfig(workers=workers, fault_plan=plan, validate_fraction=1.0),
        fault_plan=ShardFaultPlan(seed=seed, kills=rates["kills"], partition_rate=0.05),
        durability=DurabilityConfig(
            dir_path=str(wal),
            disk_faults=DiskFaultPlan(
                seed=seed, torn_rate=rates["torn_rate"], bitflip_rate=rates["torn_rate"]
            ),
        ),
    )
    jobs = decorated_jobs(ChaosConfig(jobs=160, seed=seed), plan)
    clock, flight, routers = SimClock(), FlightRecorder(), []

    def next_generation():
        routers.append(ClusterRouter(config, clock=clock, flight=flight))
        return routers[-1]

    ledger, (state, final_states) = drive(
        next_generation,
        jobs,
        32,
        seed=seed,
        crash_rate=rates["restart"],
        replay_rounds=replay_rounds,
        finish=lambda router: (router.journal.load_state()[0], router.shard_states()),
    )
    engines = [shard.engine for r in routers for shard in r.shards.values()]
    boxes = sorted((wal / "blackbox").glob("blackbox-*-recovery.json"))
    return {
        "accepted": len(ledger.accepted),
        "envelopes": len(ledger.envelopes),
        "shed": ledger.shed_backpressure + ledger.shed_write_faults,
        "lost": ledger.lost,
        "duplicate_envelopes": ledger.duplicate_envelopes,
        "duplicate_completions": state.duplicate_completions,
        "final_orphans": len(state.orphans()),
        "corruption_escapes": ledger.corruption_escapes(),
        "closes": ledger.closes,
        "failed": ledger.failed,
        "failures": dict(ledger.failures_by_error()),
        "final_states": final_states,
        "shards_ejected": ledger.counters["cluster_shards_ejected"],
        # the four planes
        "worker_crashes": sum(e.metrics.counter("degraded_batches") for e in engines),
        "shards_killed": ledger.counters["cluster_shards_killed"],
        "restarts": len(ledger.recoveries),
        "journal_faults": ledger.counters["durable_writes_healed"]
        + ledger.counters["durable_corrupt_frames"],
        "replayed": ledger.counters["dead_letters_replayed"]
        + sum(e.metrics.counter("dead_letters_replayed") for e in engines),
    }, boxes


def assert_exactly_once(report):
    assert report["lost"] == 0
    assert report["duplicate_envelopes"] == 0
    assert report["duplicate_completions"] == 0
    assert report["final_orphans"] == 0
    assert report["corruption_escapes"] == 0
    assert report["closes"] and report["envelopes"] == report["accepted"]


@pytest.fixture(scope="module", params=[0, 1], ids=["workers=0", "workers=1"])
def runs(request, tmp_path_factory):
    """Every seed twice: ``(workers, {seed: (first, second, boxes)})``."""
    wal = tmp_path_factory.mktemp(f"composed{request.param}")
    results = {}
    for seed in SEEDS:
        first, boxes = composed(seed, request.param, wal / f"a{seed}")
        second, _ = composed(seed, request.param, wal / f"b{seed}")
        results[seed] = (first, second, boxes)
    return request.param, results


def test_composed_faults_are_exactly_once_and_deterministic(runs):
    workers, results = runs
    planes = PLANES if workers else PLANES[1:]  # crash markers need a worker
    all_planes_fired = 0
    for seed, (first, second, boxes) in results.items():
        assert first == second, f"seed {seed} is not deterministic"
        assert_exactly_once(first)
        all_planes_fired += all(first[plane] >= 1 for plane in planes)
        # Every restart left a black box the trace tooling replays.
        assert len(boxes) == first["restarts"]
        for path in boxes:
            trace = blackbox_to_chrome_trace(load_blackbox(str(path)))
            assert validate_chrome_trace(trace) == []
    # Not vacuous: every plane fired *in the same run* on most seeds.
    assert all_planes_fired >= 3


def test_schedule_rearms_per_generation_and_availability_does_not_compose(runs):
    _workers, results = runs
    reports = {seed: first for seed, (first, _second, _boxes) in results.items()}
    # One scheduled kill, fired once per router generation that reaches
    # round 2: twice on seed 1, never on seed 3.
    assert [reports[seed]["shards_killed"] for seed in SEEDS] == [2, 1, 0, 1]
    assert [reports[seed]["restarts"] for seed in SEEDS] == [3, 2, 4, 1]
    for seed in (1, 2, 3):
        assert reports[seed]["accepted"] == 160 and reports[seed]["shed"] == 0

    # Seed 4: shard 1 killed, shards 0 and 2 ejected -> an empty ring.
    outage = reports[4]
    assert (outage["shards_killed"], outage["shards_ejected"]) == (1, 2)
    assert (outage["accepted"], outage["shed"]) == (96, 64)
    assert outage["failed"] == 51
    assert outage["failures"] == {
        "cluster-fault": 48,
        "RuntimeError": 2,
        "validation-mismatch": 1,
    }
    # The restart after the last chunk re-armed every shard.
    assert set(outage["final_states"].values()) == {"active"}


@pytest.mark.parametrize(
    "plane, off",
    [
        ("worker_crashes", {"crash_rate": 0.0}),
        ("shards_killed", {"kills": ()}),
        ("restarts", {"restart": 0.0}),
        ("journal_faults", {"torn_rate": 0.0}),
    ],
)
def test_each_plane_is_needed_for_the_non_vacuity_bar(tmp_path, plane, off):
    # With one plane switched off its evidence is gone, so "all four
    # planes on >= 3 of 4 seeds" cannot hold; two seeds are enough to
    # show it.
    for seed in SEEDS[:2]:
        report, _ = composed(seed, 1, tmp_path / f"{plane}{seed}", **off)
        assert report[plane] == 0
        assert_exactly_once(report)


def test_dead_letter_replay_composes_with_the_journal(tmp_path):
    # Seed 4's outage parks its cluster-fault jobs in the router's DLQ;
    # the replay rounds re-admit them (and the shards' own letters)
    # under their original ids.  Each re-admission reopens its id in
    # the journal, so the replay's terminal record is not a duplicate.
    report, _ = composed(4, 0, tmp_path / "wal", replay_rounds=2)
    assert_exactly_once(report)
    assert report["replayed"] >= 48
    assert report["failed"] < 51
