"""End-to-end engine tracing: span lifecycle and correlation ids."""

from collections import Counter

import pytest

from repro.engine import Engine, EngineConfig, make_job
from repro.obs.trace import TraceRecorder, validate_chrome_trace


def _lcs_job(**payload_extra):
    payload = {"x": "ACGT", "y": "AC"}
    payload.update(payload_extra)
    return make_job("lcs", payload)


def _span_names(tracer):
    return Counter(span.name for span in tracer.spans())


class TestLifecycleSpans:
    def test_inline_drain_covers_submit_to_drain(self):
        tracer = TraceRecorder()
        with Engine(EngineConfig(validate_fraction=1.0), tracer=tracer) as engine:
            jobs = engine.submit_many([_lcs_job() for _ in range(3)])
            results = engine.drain()
        assert all(result.ok for result in results)
        names = _span_names(tracer)
        assert names["job:submit"] == 3
        assert names["job:queue"] == 3
        assert names["batch:compile"] == 1
        assert names["batch:execute"] == 1
        assert names["job:run"] == 3
        assert names["job:validate"] == 3
        assert names["engine:drain"] == 1

        # Per-job ids line up across the lifecycle.
        submit_ids = {
            span.args["job_id"]
            for span in tracer.spans()
            if span.name == "job:submit"
        }
        run_ids = {
            span.args["job_id"]
            for span in tracer.spans()
            if span.name == "job:run"
        }
        assert submit_ids == run_ids == {job.job_id for job in jobs}

        # Worker spans carry the recorder's trace id.
        for span in tracer.spans():
            if span.name == "job:run":
                assert span.args["trace_id"] == tracer.trace_id
                assert span.args["in_pool"] is False

    def test_trace_exports_valid_chrome_json(self):
        tracer = TraceRecorder()
        with Engine(tracer=tracer) as engine:
            engine.submit(_lcs_job())
            engine.drain()
        document = tracer.to_chrome_trace()
        assert validate_chrome_trace(document) == []
        assert document["otherData"]["trace_id"] == tracer.trace_id

    def test_batch_ids_consistent_between_compile_and_execute(self):
        tracer = TraceRecorder()
        with Engine(tracer=tracer) as engine:
            engine.submit_many([_lcs_job() for _ in range(2)])
            engine.submit(make_job("bsw", {"query": "ACGT", "target": "ACG"}))
            engine.drain()
        compile_ids = [
            span.args["batch_id"]
            for span in tracer.spans()
            if span.name == "batch:compile"
        ]
        execute_ids = [
            span.args["batch_id"]
            for span in tracer.spans()
            if span.name == "batch:execute"
        ]
        assert len(compile_ids) == 2  # one per kernel batch
        assert sorted(compile_ids) == sorted(execute_ids)

    def test_compile_span_reports_cache_hits(self):
        tracer = TraceRecorder()
        with Engine(tracer=tracer) as engine:
            engine.submit(_lcs_job())
            engine.drain()
            engine.submit(_lcs_job())
            engine.drain()
        compiles = [
            span for span in tracer.spans() if span.name == "batch:compile"
        ]
        assert compiles[0].args["cache_misses"] == 1
        assert compiles[1].args["cache_hits"] == 1
        assert all(span.args["ok"] for span in compiles)


class TestEventMarkers:
    def test_expired_job_emits_event(self):
        tracer = TraceRecorder()
        with Engine(tracer=tracer) as engine:
            job = engine.submit(
                make_job("lcs", {"x": "ACGT", "y": "AC"}, deadline_s=0)
            )
            result = engine.drain()[0]
        assert not result.ok
        expired = [
            span for span in tracer.spans() if span.name == "job:expired"
        ]
        assert len(expired) == 1
        assert expired[0].args["job_id"] == job.job_id
        names = _span_names(tracer)
        assert names["job:run"] == 0  # never executed

    def test_quarantine_emits_event_and_reference_marker(self):
        tracer = TraceRecorder()
        with Engine(
            EngineConfig(validate_fraction=1.0), tracer=tracer
        ) as engine:
            engine.submit(_lcs_job(_inject_corrupt=True))
            engine.drain()
            engine.submit(_lcs_job())
            served = engine.drain()[0]
        assert served.backend == "reference"
        quarantined = [
            span
            for span in tracer.spans()
            if span.name == "kernel:quarantined"
        ]
        assert len(quarantined) == 1
        assert quarantined[0].args["kernel"] == "lcs"
        assert quarantined[0].args["reason"] == "validation-mismatch"
        assert _span_names(tracer)["job:reference"] == 1


@pytest.mark.usefixtures("every_batch_on_the_ring")
class TestWorkerPropagation:
    def test_pool_workers_ship_spans_back(self):
        tracer = TraceRecorder()
        config = EngineConfig(workers=2)
        with Engine(config, tracer=tracer) as engine:
            engine.submit_many([_lcs_job() for _ in range(4)])
            results = engine.drain()
        assert all(result.ok for result in results)
        runs = [span for span in tracer.spans() if span.name == "job:run"]
        assert len(runs) == 4
        assert all(span.args["trace_id"] == tracer.trace_id for span in runs)
        # They ran in shm workers: the spans crossed the result ring
        # in pickle-format slots.
        assert all(span.args["in_pool"] is True for span in runs)
        assert {result.backend for result in results} == {"shm"}
        # Result envelopes come back clean: the shipped spans are popped.
        for result in results:
            assert "_trace_spans" not in result.value

    def test_trace_payload_stamp_is_not_leaked(self):
        tracer = TraceRecorder()
        with Engine(tracer=tracer) as engine:
            job = engine.submit(_lcs_job())
            assert job.payload["_trace"]["trace_id"] == tracer.trace_id
            assert job.payload["_trace"]["job_id"] == job.job_id
            result = engine.drain()[0]
        assert result.ok
        assert "_trace" not in result.value


class TestNoTracer:
    def test_engine_without_tracer_adds_no_stamp(self):
        with Engine() as engine:
            job = engine.submit(_lcs_job())
            assert "_trace" not in job.payload
            result = engine.drain()[0]
        assert result.ok
        assert "_trace_spans" not in result.value
