"""ClusterRouter: routing, failover exactly-once, stealing, lifecycle."""

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, ClusterRouter, SimClock
from repro.cluster.router import MAX_STEAL_PER_ROUND, STEAL_RATIO
from repro.engine import BackpressureError, EngineConfig, make_job, service
from repro.engine.kernels import KERNELS
from repro.engine.metrics import COUNTERS
from repro.obs.trace import TraceRecorder
from repro.serve.transport import TransportConfig

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def _router(shards=4, max_queue=64, tracer=None):
    return ClusterRouter(
        ClusterConfig(
            shards=shards, engine=EngineConfig(workers=0, max_queue=max_queue)
        ),
        tracer=tracer,
        clock=SimClock(),
    )


def _job(salt=None):
    payload = {"x": "ACGT", "y": "ACG"}
    if salt is not None:
        payload["_affinity"] = salt
    return make_job("lcs", payload)


class TestRouting:
    def test_same_kernel_routes_to_same_shard(self):
        with _router() as router:
            owners = set()
            for _ in range(10):
                accepted = router.submit(_job())
                owners.add(router._ledger[accepted.job_id].shard)
            assert len(owners) == 1

    def test_affinity_token_subdivides_a_program(self):
        with _router(shards=8) as router:
            owners = set()
            for salt in range(64):
                accepted = router.submit(_job(salt=salt))
                owners.add(router._ledger[accepted.job_id].shard)
            assert len(owners) > 2

    def test_full_shard_falls_through_the_ring(self):
        with _router(shards=2, max_queue=2) as router:
            for _ in range(4):  # 2 per shard once the owner fills
                router.submit(_job())
            assert router.metrics.counter("cluster_route_fallbacks") > 0
            with pytest.raises(BackpressureError):
                router.submit(_job())

    def test_drain_returns_submission_order(self):
        with _router() as router:
            submitted = [router.submit(_job(salt=i)) for i in range(12)]
            results = router.drain()
            assert [r.job_id for r in results] == [
                j.job_id for j in submitted
            ]
            assert all(r.ok for r in results)
            assert all(r.shard for r in results)

    def test_route_span_carries_shard_and_trace(self):
        tracer = TraceRecorder()
        with _router(tracer=tracer) as router:
            router.submit(_job())
            router.drain()
        spans = tracer.spans()
        names = {span.name for span in spans}
        assert {"cluster:route", "shard:drain", "cluster:drain"} <= names
        route = next(s for s in spans if s.name == "cluster:route")
        assert route.args["shard"].startswith("shard-")
        shard_drain = next(s for s in spans if s.name == "shard:drain")
        assert shard_drain.args["shard"] == route.args["shard"]


class TestFailover:
    def test_kill_fails_over_exactly_once(self):
        with _router() as router:
            submitted = [router.submit(_job(salt=i)) for i in range(20)]
            victim = router._ledger[submitted[0].job_id].shard
            assert router.kill_shard(victim) > 0
            results = router.drain()
            # Every job settles with exactly one envelope, all ok.
            assert sorted(r.job_id for r in results) == sorted(
                j.job_id for j in submitted
            )
            assert all(r.ok for r in results)
            assert router.metrics.counter("cluster_jobs_resubmitted") > 0
            assert router.metrics.counter("cluster_duplicate_envelopes") == 0
            assert router.inflight == 0

    def test_killing_the_last_shard_is_refused(self):
        with _router(shards=1) as router:
            router.submit(_job())
            assert router.kill_shard("shard-0") == -1
            assert router.shards["shard-0"].state == "active"

    def test_unroutable_jobs_get_cluster_fault_envelopes(self):
        # Two shards; kill the victim, then jam the survivor's queue so
        # failover has nowhere to go: the orphan must still settle.
        with _router(shards=2, max_queue=4) as router:
            submitted = [router.submit(_job(salt=i)) for i in range(8)]
            owners = {router._ledger[j.job_id].shard for j in submitted}
            assert len(owners) == 2  # both shards hold work
            victim = sorted(owners)[0]
            router.kill_shard(victim)
            survivor = next(s for s in owners if s != victim)
            # Fill the survivor so adoption hits backpressure.
            while router.shards[survivor].queued < 4:
                router.shards[survivor].engine.submit(_job(salt=99))
            results = router.drain()
            by_id = {r.job_id: r for r in results}
            faulted = [
                r for r in by_id.values() if r.error and "cluster-fault" in r.error
            ]
            # Jobs beyond the survivor's capacity got the synthesized
            # envelope and parked in the router DLQ -- never dropped.
            assert router.metrics.counter("cluster_jobs_unroutable") == len(
                faulted
            )
            if faulted:
                assert len(router.dead_letters) == len(faulted)

    @pytest.mark.parametrize("shards", [2, 1])
    def test_raising_drain_fails_over_its_jobs(self, monkeypatch, shards):
        # The shard's drain pops its queue and then raises: the jobs
        # sit in no queue, so only the ledger can still fail them over.
        with _router(shards=shards) as router:
            submitted = [router.submit(_job()) for _ in range(6)]
            broken = next(s for s in router.shards.values() if s.queued)
            assert broken.queued == 6

            def drain():
                broken.engine.withdraw(None)
                raise RuntimeError("shard broke mid-drain")

            monkeypatch.setattr(broken.engine, "drain", drain)
            results = router.drain_until_settled()
            assert sorted(r.job_id for r in results) == sorted(
                j.job_id for j in submitted
            )
            assert router.inflight == 0
            assert router.metrics.counter("cluster_duplicate_envelopes") == 0
            assert router.snapshot()["shards"][broken.shard_id]["pending"] == 0
            if shards == 2:
                # Two raising drains open the breaker; the survivor
                # runs every job.
                assert all(r.ok and r.shard != broken.shard_id for r in results)
            else:
                # Nowhere left to fail over: the exactly-once floor.
                assert all("cluster-fault" in r.error for r in results)
                assert len(router.dead_letters) == len(submitted)

    def test_dead_letter_replay_reledgers(self):
        with _router(shards=2, max_queue=4) as router:
            for i in range(4):
                router.submit(_job(salt=i))
            router.drain()
            if router.dead_letters:
                replayed = router.replay_dead_letters()
                assert all(j.job_id in router._ledger for j in replayed)


class TestRebalancing:
    def test_hot_shard_sheds_onto_idle_ones(self):
        with _router(shards=4) as router:
            # All jobs share one program and no affinity token: one
            # shard owns the whole stream until the stealer spreads it.
            submitted = [router.submit(_job()) for _ in range(32)]
            results = router.drain()
            assert len(results) == len(submitted)
            assert router.metrics.counter("cluster_jobs_stolen") > 0
            shards_used = {r.shard for r in results}
            assert len(shards_used) > 1

    def test_stealing_respects_the_bound(self):
        assert (STEAL_RATIO, MAX_STEAL_PER_ROUND) == (2.0, 16)
        with _router(shards=4) as router:
            for _ in range(64):
                router.submit(_job())
            router.drain()
            # 64 jobs on one of four shards: the excess over the mean
            # (16) is 48, but one donor round sheds at most the cap.
            assert (
                router.metrics.counter("cluster_jobs_stolen")
                == MAX_STEAL_PER_ROUND
            )


class TestLifecycle:
    def test_join_adds_capacity(self):
        with _router(shards=2) as router:
            router.join()
            assert len(router.ring) == 3
            assert router.metrics.counter("cluster_shards_joined") == 3

    def test_graceful_leave_finishes_backlog(self):
        with _router(shards=2) as router:
            submitted = [router.submit(_job(salt=i)) for i in range(8)]
            leaver = router._ledger[submitted[0].job_id].shard
            router.leave(leaver)
            assert leaver not in router.ring
            results = router.drain()
            assert len(results) == len(submitted)
            assert router.shards[leaver].state == "left"
            assert router.metrics.counter("cluster_shards_left") == 1

    def test_snapshot_shape(self):
        with _router(shards=2) as router:
            router.submit(_job())
            router.drain()
            snap = router.snapshot()
            assert snap["cluster"]["shards_total"] == 2
            assert snap["cluster"]["shards_in_ring"] == 2
            assert set(snap["shards"]) == {"shard-0", "shard-1"}
            for gauges in snap["shards"].values():
                assert "health" in gauges and "state" in gauges
            for counter in COUNTERS["cluster"] + COUNTERS["durable"]:
                assert counter in snap["counters"]


class TestOneCompilePerCluster:
    """Shard engines share the router's program cache: a warm kernel
    compiles once per router, however many shards start or join."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        counts = Counter()
        compile_program = service.compile_program

        def counting(kernel, *args):
            counts[kernel] += 1
            return compile_program(kernel, *args)

        monkeypatch.setattr(service, "compile_program", counting)
        return counts

    @pytest.mark.parametrize("shards", [2, 3])
    def test_warm_kernels_compile_once(self, compiles, shards):
        warm = tuple(KERNELS)
        config = ClusterConfig(
            shards=shards,
            engine=EngineConfig(
                transport=TransportConfig(backend="inline", warm_kernels=warm)
            ),
        )
        with ClusterRouter(config, clock=SimClock()) as router:
            assert compiles == Counter(warm)
            router.join()
            assert compiles == Counter(warm)

            # Each shard counts its own lookups: the first compiled,
            # every later one hit the shared entries.
            caches = {
                shard_id: shard.engine.snapshot()["cache"]
                for shard_id, shard in router.shards.items()
            }
            assert caches["shard-0"]["misses"] == len(warm)
            assert caches["shard-0"]["hits"] == 0
            for shard_id in list(caches)[1:]:
                assert caches[shard_id]["misses"] == 0
                assert caches[shard_id]["hits"] == len(warm)

            owner = router._ledger[router.submit(_job()).job_id].shard
            assert all(result.ok for result in router.drain())
            for shard_id, shard in router.shards.items():
                hits = shard.engine.snapshot()["cache"]["hits"]
                grew = hits - caches[shard_id]["hits"]
                assert grew == (1 if shard_id == owner else 0)
            assert compiles == Counter(warm)


class TestCounterSchema:
    def test_cluster_counters_have_incr_sites(self):
        """Drift guard: every cluster-family counter has a real incr site."""
        blob = "\n".join(
            path.read_text()
            for path in sorted((SRC_ROOT / "cluster").rglob("*.py"))
        )
        missing = [
            name
            for name in COUNTERS["cluster"]
            if not re.search(rf"incr\(\s*[\"']{name}[\"']", blob)
        ]
        assert not missing, f"cluster counters without incr sites: {missing}"
