"""``gendp-serve`` end to end: protocol, quotas, drain, correlation.

Each test spins a real asyncio server over a Unix socket (ephemeral
path under pytest's tmp dir) with an inline-transport engine -- the
transport/ring machinery has its own tests; here the subject is the
serving tier itself.  ``asyncio.run`` keeps the suite synchronous, no
async test plugin needed.
"""

import asyncio
import io
import json
import logging
import time

import pytest

from repro.engine import Engine, EngineConfig
from repro.engine.metrics import COUNTERS
from repro.obs.logs import configure_json_logging
from repro.obs.trace import TraceRecorder, validate_chrome_trace
from repro.serve import ServeClient, TransportConfig
from repro.serve import server as server_module
from repro.serve.lines import LineWriter
from repro.serve.server import (
    DEFAULT_TENANT,
    GendpServer,
    ServeConfig,
)

BSW = {"query": "ACGTACGTAC", "target": "ACGTTGCA"}


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


def serving(tmp_path, serve_config=None, engine_config=None, tracer=None):
    """Async context manager: (server, socket path) with cleanup."""

    class _Serving:
        async def __aenter__(self):
            self.sock = str(tmp_path / "gendp.sock")
            self.engine = Engine(
                engine_config or EngineConfig(max_queue=128), tracer=tracer
            )
            config = serve_config or ServeConfig()
            config = ServeConfig(
                **{
                    **config.__dict__,
                    "unix_socket": self.sock,
                }
            )
            self.server = GendpServer(self.engine, config)
            await self.server.start()
            return self.server, self.sock

        async def __aexit__(self, *exc_info):
            await self.server.stop()
            self.engine.close()

    return _Serving()


def test_ping_and_stats(tmp_path):
    async def scenario():
        async with serving(tmp_path) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                pong = await client.ping()
                assert pong["ok"] and pong["op"] == "pong"
                assert pong["draining"] is False
                stats = await client.stats()
                assert stats["ok"]
                assert list(stats["counters"]) == list(COUNTERS["serve"])
                assert stats["counters"]["serve_connections"] == 1

    run(scenario())


def test_submit_returns_engine_results(tmp_path):
    async def scenario():
        async with serving(tmp_path) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                response = await client.submit("bsw", BSW, tenant="alpha")
                assert response["ok"], response
                assert response["kernel"] == "bsw"
                assert isinstance(response["value"]["score"], int)
                assert response["backend"] == "inline"
                # Identical to a direct engine run.
                from repro.engine import make_job

                with Engine(EngineConfig()) as ref:
                    ref.submit(make_job("bsw", dict(BSW)))
                    expected = ref.drain()[0].value
                assert response["value"] == expected

    run(scenario())


def test_batch_mixed_priorities_all_complete(tmp_path):
    async def scenario():
        async with serving(tmp_path) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                specs = [
                    {"kernel": "bsw", "payload": BSW, "priority": priority}
                    for priority in ("low", "high", "normal", "high")
                ]
                response = await client.submit_batch(specs, tenant="alpha")
                assert response["ok"], response
                assert len(response["results"]) == 4
                values = {
                    json.dumps(r["value"], sort_keys=True)
                    for r in response["results"]
                }
                assert len(values) == 1  # same payload, same answer

    run(scenario())


def test_quota_rejections_are_reported_not_queued(tmp_path):
    async def scenario():
        config = ServeConfig(tenant_quotas={"tight": (0.001, 2.0)})
        async with serving(tmp_path, serve_config=config) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                responses = await asyncio.gather(
                    *(
                        client.submit("bsw", BSW, tenant="tight")
                        for _ in range(5)
                    )
                )
                admitted = [r for r in responses if r.get("ok")]
                rejected = [r for r in responses if r.get("rejected")]
                assert len(admitted) == 2
                assert len(rejected) == 3
                assert {r["error"] for r in rejected} == {"quota-exceeded"}
                # Other tenants are unaffected.
                other = await client.submit("bsw", BSW, tenant="roomy")
                assert other["ok"]
                stats = await client.stats()
                assert stats["counters"]["serve_rejected_quota"] == 3

    run(scenario())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"default_rate": 0.0},
        {"default_burst": -1.0},
        {"tenant_quotas": {"t": (5.0, 0.0)}},
        {"tenant_quotas": {"t": (0.0, 5.0)}},
    ],
)
def test_impossible_quota_is_rejected_at_config_time(kwargs):
    # A bucket is built at a tenant's first request; without this check
    # the server starts and then fails every request of that tenant.
    with pytest.raises(ValueError, match="positive rate and burst"):
        ServeConfig(**kwargs)


def test_backpressure_rejects_past_max_pending(tmp_path):
    async def scenario():
        config = ServeConfig(max_pending=2)
        async with serving(tmp_path, serve_config=config) as (server, sock):
            # Freeze dispatch so admitted requests stay pending.
            server._dispatcher_task.cancel()
            try:
                await server._dispatcher_task
            except asyncio.CancelledError:
                pass
            async with await ServeClient.connect(unix_socket=sock) as client:
                stuck = [
                    asyncio.create_task(client.submit("bsw", BSW))
                    for _ in range(2)
                ]
                while server.pending < 2:
                    await asyncio.sleep(0.001)
                overflow = await client.submit("bsw", BSW)
                assert overflow.get("rejected")
                assert overflow["error"] == "backpressure"
                # Resume dispatch: the stuck requests complete.
                server._dispatcher_task = asyncio.create_task(
                    server._dispatcher()
                )
                done = await asyncio.gather(*stuck)
                assert all(r["ok"] for r in done)

    run(scenario())


def test_graceful_drain_completes_inflight_rejects_new(tmp_path):
    async def scenario():
        async with serving(tmp_path) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                inflight = asyncio.create_task(client.submit("bsw", BSW))
                while server.pending == 0:
                    await asyncio.sleep(0.001)
                server.request_shutdown()
                assert server.draining
                late = await client.submit("bsw", BSW)
                assert late.get("rejected") and late["error"] == "draining"
                finished = await inflight
                assert finished["ok"], finished
            await asyncio.wait_for(server._done.wait(), timeout=10)

    run(scenario())


def test_correlation_ids_and_serve_spans(tmp_path):
    tracer = TraceRecorder()

    async def scenario():
        transport = TransportConfig(
            backend="shm", workers=1, poll_interval_s=0.01
        )
        engine_config = EngineConfig(max_queue=64, transport=transport)
        async with serving(
            tmp_path, engine_config=engine_config, tracer=tracer
        ) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                response = await client.submit("bsw", BSW, tenant="alpha")
                assert response["ok"], response
                assert response["trace_id"] == tracer.trace_id

    run(scenario())
    document = tracer.to_chrome_trace()
    assert validate_chrome_trace(document) == []
    by_name = {}
    for event in document["traceEvents"]:
        by_name.setdefault(event["name"], []).append(event)
    for name in ("serve:accept", "serve:admit", "serve:dispatch"):
        assert name in by_name, sorted(by_name)
    # The admit event records the tenant; the worker span (shipped back
    # over the result ring) carries tenant + trace id end to end.
    admit_args = by_name["serve:admit"][0].get("args", {})
    assert admit_args.get("tenant") == "alpha"
    worker_spans = by_name.get("job:run", [])
    assert worker_spans, "worker span missing from trace"
    args = worker_spans[0].get("args", {})
    assert args.get("tenant") == "alpha"
    assert args.get("trace_id") == tracer.trace_id


def test_serve_counters_schema_is_stable(tmp_path):
    """The server pre-registers its whole family before any request."""

    async def scenario():
        async with serving(tmp_path) as (server, sock):
            counters = server.engine.metrics.snapshot()["counters"]
            for name in COUNTERS["serve"]:
                assert counters[name] == 0

    run(scenario())


def test_malformed_requests_get_errors_not_disconnects(tmp_path):
    async def scenario():
        async with serving(tmp_path) as (server, sock):
            reader, writer = await asyncio.open_unix_connection(sock)
            writer.write(b"this is not json\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            assert not response["ok"] and "bad request" in response["error"]

            writer.write(json.dumps({"op": "nope", "id": 1}).encode() + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            assert not response["ok"] and "unknown op" in response["error"]

            # Connection survived both; a good request still works.
            writer.write(
                json.dumps(
                    {"op": "submit", "kernel": "bsw", "payload": BSW, "id": 2}
                ).encode()
                + b"\n"
            )
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["ok"] and response["id"] == 2
            writer.close()
            await writer.wait_closed()

    run(scenario())


def test_default_tenant_used_when_unnamed(tmp_path):
    async def scenario():
        config = ServeConfig(tenant_quotas={DEFAULT_TENANT: (0.001, 1.0)})
        async with serving(tmp_path, serve_config=config) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                first = await client.submit("bsw", BSW)
                second = await client.submit("bsw", BSW)
                assert first["ok"]
                assert second.get("rejected")  # default tenant's bucket

    run(scenario())


LCS = {"x": "ACGTACGT", "y": "ACGGTA"}


def test_batch_with_an_invalid_entry_answers_per_entry(tmp_path):
    async def scenario():
        async with serving(tmp_path) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                response = await client.submit_batch(
                    [
                        {"kernel": "lcs", "payload": LCS},
                        {"kernel": "lcs", "payload": LCS},
                        {"kernel": "nope"},
                    ],
                    tenant="alpha",
                )
                stats = await client.stats()
        assert response["ok"] is False and response["op"] == "batch"
        good, also_good, bad = response["results"]
        assert good["ok"] and also_good["ok"], response
        assert good["value"] == also_good["value"]
        assert bad["ok"] is False
        assert bad["error"].startswith("bad job:") and "nope" in bad["error"]
        # Only the two valid jobs were admitted and billed.
        assert stats["counters"]["serve_admitted"] == 2
        assert stats["counters"]["serve_errors"] == 1
        usage = stats["tenants"]["alpha"]
        assert usage["tenant_jobs_submitted"] == 2
        assert usage["tenant_jobs_completed"] == 2
        assert usage["tenant_jobs_failed"] == 0

    run(scenario())


def test_batch_entry_that_is_not_an_object_is_a_clean_error(tmp_path):
    async def scenario():
        async with serving(tmp_path) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                return await client.submit_batch(
                    [{"kernel": "lcs", "payload": LCS}, "notadict"]
                )

    response = run(scenario())
    good, bad = response["results"]
    assert good["ok"], response
    assert bad == {"ok": False, "error": "bad job: a job must be a JSON object"}


@pytest.mark.parametrize("marker", ["_inject_corrupt", "_inject_fail", "_trace"])
def test_engine_private_payload_keys_are_bad_jobs(tmp_path, marker):
    """A client used to be able to corrupt results (``_inject_corrupt``
    answered ok with a wrong score), fail jobs, or kill shm workers
    (``_inject_exit``) through the payload."""

    async def scenario():
        config = ServeConfig(tenant_quotas={"alpha": (0.001, 1.0)})
        async with serving(tmp_path, serve_config=config) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                response = await client.submit_batch(
                    [{"kernel": "bsw", "payload": dict(BSW, **{marker: True})}],
                    tenant="alpha",
                )
                valid = await client.submit("bsw", BSW, tenant="alpha")
                stats = await client.stats()
        assert response["results"] == [
            {"ok": False, "error": f"bad job: payload key {marker!r} is engine-private"}
        ]
        # The bucket's one token and the tenant's bill went to the valid job.
        assert valid["ok"], valid
        assert stats["counters"]["serve_errors"] == 1
        assert stats["counters"]["serve_admitted"] == 1
        assert stats["tenants"]["alpha"]["tenant_jobs_submitted"] == 1

    run(scenario())


def test_invalid_submit_consumes_no_quota_token(tmp_path):
    async def scenario():
        config = ServeConfig(tenant_quotas={"tight": (0.001, 1.0)})
        async with serving(tmp_path, serve_config=config) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                invalid = await client.submit(
                    "lcs", {"x": "ACGT"}, tenant="tight"
                )
                valid = await client.submit("lcs", LCS, tenant="tight")
                stats = await client.stats()
        assert invalid["ok"] is False and invalid["error"].startswith("bad job:")
        assert "rejected" not in invalid
        # The one token in the bucket went to the valid job.
        assert valid["ok"], valid
        assert stats["counters"]["serve_rejected_quota"] == 0
        assert stats["tenants"]["tight"]["tenant_jobs_submitted"] == 1

    run(scenario())


# ----------------------------------------------------------------------
# batch formation: a batch closes when arrivals pause, at max_batch, or
# FLUSH_INTERVAL_S after its first job.  Timings are stretched through
# the module constants so a slow host cannot flip an outcome.


def _dispatch_spans(tracer):
    return [span for span in tracer.spans() if span.name == "serve:dispatch"]


def _pace(monkeypatch, gap_s, cap_s):
    monkeypatch.setattr(server_module, "GATHER_GAP_S", gap_s)
    monkeypatch.setattr(server_module, "FLUSH_INTERVAL_S", cap_s)


def test_a_burst_within_the_gap_is_one_dispatch(tmp_path, monkeypatch):
    _pace(monkeypatch, gap_s=0.2, cap_s=5.0)
    tracer = TraceRecorder()

    async def scenario():
        async with serving(tmp_path, tracer=tracer) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                responses = await asyncio.gather(
                    *(client.submit("lcs", LCS) for _ in range(8))
                )
                assert all(r["ok"] for r in responses), responses
                return server.engine.metrics.counter("serve_dispatches")

    assert run(scenario()) == 1
    (span,) = _dispatch_spans(tracer)
    assert span.args["jobs"] == 8 and span.args["closed"] == "gap"
    assert span.args["gather_ms"] >= 200.0


def test_spaced_requests_do_not_wait_for_the_cap(tmp_path, monkeypatch):
    _pace(monkeypatch, gap_s=0.001, cap_s=5.0)
    tracer = TraceRecorder()

    async def scenario():
        async with serving(tmp_path, tracer=tracer) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                waits = []
                for _ in range(3):
                    started = time.perf_counter()
                    assert (await client.submit("lcs", LCS))["ok"]
                    waits.append(time.perf_counter() - started)
                    await asyncio.sleep(0.02)
                return waits, server.engine.metrics.counter("serve_dispatches")

    waits, dispatches = run(scenario())
    assert dispatches == 3
    assert max(waits) < 1.0, waits  # the 5 s cap never held one back
    assert [span.args["closed"] for span in _dispatch_spans(tracer)] == ["gap"] * 3


def test_a_steady_stream_closes_at_max_batch(tmp_path, monkeypatch):
    _pace(monkeypatch, gap_s=0.2, cap_s=5.0)
    tracer = TraceRecorder()

    async def scenario():
        config = ServeConfig(max_batch=4)
        async with serving(tmp_path, serve_config=config, tracer=tracer) as (
            server,
            sock,
        ):
            async with await ServeClient.connect(unix_socket=sock) as client:
                responses = await asyncio.gather(
                    *(client.submit("lcs", LCS) for _ in range(10))
                )
                assert all(r["ok"] for r in responses), responses

    run(scenario())
    spans = _dispatch_spans(tracer)
    assert [span.args["jobs"] for span in spans] == [4, 4, 2]
    assert [span.args["closed"] for span in spans] == ["full", "full", "gap"]


def test_a_steady_stream_closes_at_the_cap(tmp_path, monkeypatch):
    _pace(monkeypatch, gap_s=0.2, cap_s=0.1)
    tracer = TraceRecorder()

    async def scenario():
        async with serving(tmp_path, tracer=tracer) as (server, sock):
            async with await ServeClient.connect(unix_socket=sock) as client:
                # One arrival every 10 ms never leaves a 200 ms gap.
                requests = []
                for _ in range(30):
                    requests.append(
                        asyncio.create_task(client.submit("lcs", LCS))
                    )
                    await asyncio.sleep(0.01)
                responses = await asyncio.gather(*requests)
                assert all(r["ok"] for r in responses), responses

    run(scenario())
    first = _dispatch_spans(tracer)[0]
    assert first.args["closed"] == "deadline"
    assert 100.0 <= first.args["gather_ms"] < 200.0
    assert first.args["jobs"] < 30


def test_priority_order_within_a_batch(tmp_path, monkeypatch):
    _pace(monkeypatch, gap_s=0.2, cap_s=5.0)
    packed = []

    async def scenario():
        async with serving(tmp_path) as (server, sock):
            pack = server.engine.batcher.pack

            def recording(jobs):
                batches = pack(jobs)
                packed.append(
                    [(job.priority, job.job_id) for b in batches for job in b.jobs]
                )
                return batches

            server.engine.batcher.pack = recording
            async with await ServeClient.connect(unix_socket=sock) as client:
                responses = await asyncio.gather(
                    *(
                        client.submit("lcs", LCS, priority=priority)
                        for priority in ("low", "high", "normal", "high", "low")
                    )
                )
                assert all(r["ok"] for r in responses), responses

    run(scenario())
    (order,) = packed  # one dispatch, one drain
    priorities = [priority for priority, _ in order]
    assert priorities == sorted(priorities, reverse=True)
    # Arrival order breaks ties, as in a direct engine drain.
    for level in set(priorities):
        ids = [job_id for priority, job_id in order if priority == level]
        assert ids == sorted(ids)


def test_a_drain_that_raises_answers_its_batch_and_dispatch_goes_on(tmp_path):
    async def scenario():
        async with serving(tmp_path) as (server, sock):
            engine = server.engine
            drain = engine.drain
            faults = []

            def failing_once():
                if not faults:
                    faults.append(engine.withdraw())
                    raise RuntimeError("drain exploded")
                return drain()

            engine.drain = failing_once
            async with await ServeClient.connect(unix_socket=sock) as client:
                first = await client.submit("lcs", LCS, tenant="alpha")
                second = await client.submit("lcs", LCS, tenant="alpha")
                stats = await client.stats()
            assert not server._dispatcher_task.done()
            return first, second, stats

    first, second, stats = run(scenario())
    assert first["ok"] is False
    assert first["error"] == "drain-fault: RuntimeError: drain exploded"
    assert second["ok"], second
    usage = stats["tenants"]["alpha"]
    assert usage["tenant_jobs_completed"] == 1
    assert usage["tenant_jobs_failed"] == 1


def test_log_records_carry_the_request_correlation_ids(tmp_path):
    """A quota rejection is logged with its request's trace id and
    tenant, and no job id (nothing was admitted); a drain fault speaks
    for a whole batch, so it carries the trace id alone."""
    tracer = TraceRecorder()
    stream = io.StringIO()
    logger = logging.getLogger(server_module.__name__)
    handler = configure_json_logging(stream=stream, logger_name=logger.name)

    async def scenario():
        config = ServeConfig(tenant_quotas={"tight": (0.001, 1.0)})
        async with serving(tmp_path, serve_config=config, tracer=tracer) as (
            server,
            sock,
        ):
            engine = server.engine
            drain = engine.drain
            faults = []

            def failing_once():
                if not faults:
                    faults.append(engine.withdraw())
                    raise RuntimeError("drain exploded")
                return drain()

            engine.drain = failing_once
            async with await ServeClient.connect(unix_socket=sock) as client:
                faulted = await client.submit("lcs", LCS, tenant="tight")
                rejected = await client.submit("lcs", LCS, tenant="tight")
            assert faulted["error"].startswith("drain-fault")
            assert rejected["error"] == "quota-exceeded"

    try:
        run(scenario())
    finally:
        logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
        logger.propagate = True
    records = {}
    for line in stream.getvalue().splitlines():
        record = json.loads(line)
        records.setdefault(record["message"], []).append(record)
    (rejection,) = records["request rejected"]
    assert rejection["trace_id"] == tracer.trace_id
    assert rejection["tenant"] == "tight"
    assert "job_id" not in rejection
    (fault,) = records["dispatch drain fault"]
    assert fault["trace_id"] == tracer.trace_id
    assert "tenant" not in fault
    assert "job_id" not in fault


def test_lines_coalesce_per_loop_turn_and_drain_above_high_water():
    """A connection's lines queued in one loop turn leave in one write;
    a line queued above the transport's high-water mark waits for
    ``drain()``."""

    class Transport:
        size = 0

        def get_write_buffer_limits(self):
            return 16, 64

        def get_write_buffer_size(self):
            return self.size

    class Writer:
        def __init__(self):
            self.transport = Transport()
            self.writes = []
            self.drains = 0

        def write(self, data):
            self.writes.append(data)

        def is_closing(self):
            return False

        async def drain(self):
            self.drains += 1

    async def scenario():
        writer = Writer()
        responses = LineWriter(writer)
        await responses.send(b"a\n")
        await responses.send(b"b\n")
        assert writer.writes == []
        await asyncio.sleep(0)
        assert writer.writes == [b"a\nb\n"]
        assert writer.drains == 0
        writer.transport.size = 65
        await responses.send(b"c\n")
        assert writer.drains == 1
        await asyncio.sleep(0)
        assert writer.writes == [b"a\nb\n", b"c\n"]

    run(scenario())
