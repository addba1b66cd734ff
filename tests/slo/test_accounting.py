"""Per-tenant ledger: unit folds plus the serve reconciliation.

The acceptance scenario: a mixed-tenant serving run's ledger totals
must reconcile *exactly* with the engine's own job counters -- no
event lost, none double-billed.
"""

import asyncio

from repro.engine import Engine, EngineConfig
from repro.engine.metrics import COUNTERS
from repro.serve import ServeClient
from repro.serve.server import GendpServer, ServeConfig
from repro.slo.accounting import TenantLedger, estimate_cells

BSW = {"query": "ACGTACGTAC", "target": "ACGTTGCA"}
LCS = {"x": "ACGTACGT", "y": "ACGGTA"}


class _Result:
    def __init__(self, ok=True, execute_s=0.0):
        self.ok = ok
        self.timings = {"execute_s": execute_s} if execute_s else {}


class _Job:
    def __init__(self, kernel, payload):
        self.kernel = kernel
        self.payload = payload


class TestEstimateCells:
    def test_table_area_kernels(self):
        assert estimate_cells("bsw", BSW) == 10 * 8
        assert estimate_cells("lcs", LCS) == 8 * 6
        assert estimate_cells("pairhmm", {"read": "AC", "haplotype": "ACGT"}) == 8
        assert estimate_cells("dtw", {"a": [1, 2, 3], "b": [1, 2]}) == 6

    def test_chain_bills_the_windowed_scan(self):
        """What the engine sweeps, not the full n^2 table: each anchor
        looks back over at most ``n`` (default 64) predecessors."""
        anchors = [[i, i, 19] for i in range(5)]
        assert estimate_cells("chain", {"anchors": anchors}) == 10
        assert estimate_cells("chain", {"anchors": anchors, "n": 2}) == 7
        long = [[i, i, 19] for i in range(200)]
        assert estimate_cells("chain", {"anchors": long}) == 10_720
        assert estimate_cells("chain", {"anchors": long, "n": "wide"}) == 0

    def test_unknown_kernel_and_bad_payload_estimate_zero(self):
        assert estimate_cells("poa", {}) == 0
        assert estimate_cells("bsw", {}) == 0
        assert estimate_cells("bsw", {"query": None, "target": "A"}) == 0


class TestLedgerFolds:
    def test_admission_splits_quota_from_other_rejections(self):
        ledger = TenantLedger()
        ledger.record_admission("a", True)
        ledger.record_admission("a", False, reason="quota-exceeded")
        ledger.record_admission("a", False, reason="draining")
        usage = ledger.usage("a")
        assert usage["tenant_jobs_submitted"] == 1
        assert usage["tenant_rejections"] == 2
        assert usage["tenant_quota_rejections"] == 1

    def test_result_fold_bills_cells_only_on_success(self):
        ledger = TenantLedger()
        job = _Job("bsw", BSW)
        ledger.record_result("a", job, _Result(ok=True, execute_s=0.002))
        ledger.record_result("a", job, _Result(ok=False))
        usage = ledger.usage("a")
        assert usage["tenant_jobs_completed"] == 1
        assert usage["tenant_jobs_failed"] == 1
        assert usage["tenant_cells_computed"] == 80
        assert usage["tenant_compute_us"] == 2000

    def test_cells_billed_equal_cells_swept_on_a_mixed_stream(self):
        """ROADMAP 6c: the ledger and the engine count the same cells."""
        from types import SimpleNamespace

        from repro.engine import make_job
        from repro.engine.jobs import ENGINE_KERNELS
        from repro.faults.campaign import synthesize_stream

        stream = synthesize_stream(
            SimpleNamespace(jobs=40, seed=11, kernels=ENGINE_KERNELS)
        )
        assert {kernel for kernel, _ in stream} == set(ENGINE_KERNELS)
        ledger = TenantLedger()
        swept = 0
        with Engine(EngineConfig(max_queue=64)) as engine:
            jobs = {}
            for kernel, payload in stream:
                job = engine.submit(make_job(kernel, payload))
                jobs[job.job_id] = job
            for result in engine.drain():
                assert result.ok, result.error
                swept += result.value["cells"]
                ledger.record_result("t", jobs[result.job_id], result)
        assert swept > 0
        assert ledger.usage("t")["tenant_cells_computed"] == swept

    def test_transport_fold_ignores_nonpositive(self):
        ledger = TenantLedger()
        ledger.record_transport("a", 100)
        ledger.record_transport("a", 0)
        assert ledger.usage("a")["tenant_transport_bytes"] == 100

    def test_schema_is_complete_and_zeroed(self):
        ledger = TenantLedger()
        assert ledger.usage("fresh") == dict.fromkeys(COUNTERS["tenant"], 0)

    def test_totals_sum_across_tenants(self):
        ledger = TenantLedger()
        ledger.record_admission("a", True)
        ledger.record_admission("b", True)
        ledger.record_admission("b", True)
        assert ledger.totals()["tenant_jobs_submitted"] == 3

    def test_snapshot_section_and_prometheus_export(self):
        from repro.obs.export import prometheus_text
        from repro.obs.promcheck import check_exposition

        ledger = TenantLedger()
        ledger.record_admission("acme", True)
        ledger.record_admission("umbrella", False, reason="quota")
        text = prometheus_text(ledger.annotate({"counters": {}}))
        assert check_exposition(text) == []
        assert 'gendp_tenant_jobs_submitted{tenant="acme"} 1' in text
        assert (
            'gendp_tenant_quota_rejections{tenant="umbrella"} 1' in text
        )


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


def serving(tmp_path, serve_config=None):
    class _Serving:
        async def __aenter__(self):
            self.sock = str(tmp_path / "gendp.sock")
            self.engine = Engine(EngineConfig(max_queue=128))
            config = serve_config or ServeConfig()
            config = ServeConfig(
                **{**config.__dict__, "unix_socket": self.sock}
            )
            self.server = GendpServer(self.engine, config)
            await self.server.start()
            return self.server, self.engine, self.sock

        async def __aexit__(self, *exc_info):
            await self.server.stop()
            self.engine.close()

    return _Serving()


class TestServeReconciliation:
    def test_mixed_tenant_run_reconciles_with_engine_counters(
        self, tmp_path
    ):
        """The acceptance criterion, end to end over real sockets."""

        async def scenario():
            async with serving(tmp_path) as (server, engine, sock):
                async with await ServeClient.connect(
                    unix_socket=sock
                ) as client:
                    for index in range(6):
                        response = await client.submit(
                            "bsw", BSW, tenant="alpha"
                        )
                        assert response["ok"], response
                    for index in range(4):
                        response = await client.submit(
                            "lcs", LCS, tenant="beta"
                        )
                        assert response["ok"], response
                    # An execution failure still reconciles: an anchor
                    # weight the compiled program does not fold passes
                    # validation but fails inside the engine, after
                    # admission.
                    bad = await client.submit(
                        "chain", {"anchors": [[0, 0, 5]]}, tenant="beta"
                    )
                    assert not bad["ok"]
                    stats = await client.stats()
                ledger = server.ledger
                totals = ledger.totals()
                counters = engine.snapshot()["counters"]
                # Exact reconciliation, per the module contract.
                assert (
                    totals["tenant_jobs_completed"]
                    == counters["jobs_completed"]
                    == 10
                )
                assert (
                    totals["tenant_jobs_failed"]
                    == counters["jobs_failed"]
                    == 1
                )
                assert totals["tenant_jobs_submitted"] == 11
                # Per-tenant split is attributed, not pooled.
                alpha = ledger.usage("alpha")
                beta = ledger.usage("beta")
                assert alpha["tenant_jobs_completed"] == 6
                assert beta["tenant_jobs_completed"] == 4
                assert beta["tenant_jobs_failed"] == 1
                assert alpha["tenant_cells_computed"] == 6 * 80
                assert beta["tenant_cells_computed"] == 4 * 48
                # Transport bytes are exact NDJSON request+response
                # sums, so they are positive for every tenant seen.
                assert alpha["tenant_transport_bytes"] > 0
                assert beta["tenant_transport_bytes"] > 0
                # The stats surface carries the same section.
                assert stats["tenants"]["alpha"][
                    "tenant_jobs_completed"
                ] == 6

        run(scenario())

    def test_quota_rejections_are_billed_to_the_tenant(self, tmp_path):
        config = ServeConfig(default_rate=1.0, default_burst=2.0)

        async def scenario():
            async with serving(tmp_path, config) as (server, engine, sock):
                async with await ServeClient.connect(
                    unix_socket=sock
                ) as client:
                    rejected = 0
                    for _ in range(6):
                        response = await client.submit(
                            "bsw", BSW, tenant="greedy"
                        )
                        if not response["ok"]:
                            rejected += 1
                            assert "quota" in response["error"]
                    assert rejected > 0
                    usage = server.ledger.usage("greedy")
                    assert usage["tenant_quota_rejections"] == rejected
                    assert usage["tenant_rejections"] == rejected

        run(scenario())
