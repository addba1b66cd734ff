"""Flight recorder: ring mechanics, taps, and the black-box contract.

The acceptance scenarios: a seeded crash-recovery run must leave a
black box beside the journal that replays cleanly through the Chrome
trace tooling, and two identical seeded runs must produce
byte-identical *canonical* dumps.
"""

import json
import logging

import pytest

from repro.durable import DurabilityConfig
from repro.engine import Engine, EngineConfig
from repro.engine.jobs import Job, advance_job_ids
from repro.engine.metrics import COUNTERS, MetricsRegistry
from repro.obs.logs import get_logger
from repro.obs.trace import TraceRecorder, validate_chrome_trace
from repro.slo.flight import (
    BLACKBOX_VERSION,
    FlightRecorder,
    blackbox_to_chrome_trace,
    canonical_blackbox,
    load_blackbox,
)

LCS = {"x": "ACGTACGT", "y": "ACGGTA"}


class _Ticker:
    """Deterministic clock: each read advances by one."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


class TestRing:
    def test_capacity_bounds_the_ring_and_counts_drops(self):
        recorder = FlightRecorder(capacity=3, clock=_Ticker())
        for index in range(5):
            recorder.note("event", index=index)
        assert len(recorder) == 3
        assert recorder.dropped == 2
        kept = [entry["args"]["index"] for entry in recorder.entries()]
        assert kept == [2, 3, 4]  # oldest evicted first
        assert recorder.metrics.counter("flight_entries_recorded") == 5

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_note_drops_none_valued_args(self):
        recorder = FlightRecorder(clock=_Ticker())
        recorder.note("event", keep=1, drop=None)
        assert recorder.entries()[0]["args"] == {"keep": 1}

    def test_counters_fold_records_only_deltas(self):
        recorder = FlightRecorder(clock=_Ticker())
        recorder.note_counters({"a": 5, "b": 0})
        recorder.note_counters({"a": 5, "b": 0})  # no change: no entry
        recorder.note_counters({"a": 7, "b": 2})
        entries = [e for e in recorder.entries() if e["kind"] == "counters"]
        assert len(entries) == 2
        assert entries[0]["args"] == {"a": 5}
        assert entries[1]["args"] == {"a": 2, "b": 2}

    def test_schema_counters_initialized_to_zero(self):
        registry = MetricsRegistry()
        FlightRecorder(metrics=registry)
        assert registry.counters == dict.fromkeys(COUNTERS["flight"], 0)


class TestTaps:
    def test_log_handler_taps_warnings_not_info(self):
        recorder = FlightRecorder(clock=_Ticker())
        handler = recorder.attach_log_handler("repro.slo.testtap")
        logger = get_logger("repro.slo.testtap")
        try:
            logger.warning("queue depth high")
            logger.info("routine chatter")
        finally:
            logging.getLogger("repro.slo.testtap").removeHandler(handler)
        logs = [e for e in recorder.entries() if e["kind"] == "log"]
        assert len(logs) == 1
        assert logs[0]["args"]["level"] == "WARNING"
        assert "queue depth high" in logs[0]["args"]["message"]

    def test_tracer_head_sampling_keeps_every_nth_span(self):
        recorder = FlightRecorder(clock=_Ticker())
        tracer = TraceRecorder(
            clock=_Ticker(), flight=recorder, flight_sample=0.25
        )
        for index in range(8):
            start = tracer.now()
            tracer.add_span(f"s{index}", start, start + 0.5)
        spans = [e for e in recorder.entries() if e["kind"] == "span"]
        # Deterministic accumulator, not a RNG: exactly every 4th.
        assert [s["name"] for s in spans] == ["s3", "s7"]

    def test_tracer_full_sampling_mirrors_all_spans(self):
        recorder = FlightRecorder(clock=_Ticker())
        tracer = TraceRecorder(clock=_Ticker(), flight=recorder)
        for index in range(3):
            start = tracer.now()
            tracer.add_span(f"s{index}", start, start + 0.5)
        spans = [e for e in recorder.entries() if e["kind"] == "span"]
        assert len(spans) == 3
        assert spans[0]["args"]["cat"] == "engine"


class TestDumps:
    def test_trip_without_directory_stays_in_memory(self):
        recorder = FlightRecorder(clock=_Ticker())
        assert recorder.trip("sentinel", kernel="bsw") is None
        assert recorder.dumps_written == 0
        assert recorder.metrics.counter("flight_trips") == 1
        # The trip itself is forensic evidence.
        names = [entry["name"] for entry in recorder.entries()]
        assert "trip:sentinel" in names

    def test_dump_writes_sequence_numbered_files(self, tmp_path):
        recorder = FlightRecorder(dir_path=str(tmp_path), clock=_Ticker())
        recorder.note("before", n=1)
        first = recorder.trip("dlq-push", kernel="bsw")
        second = recorder.trip("breaker-open", kernel="lcs")
        assert first.endswith("blackbox-001-dlq-push.json")
        assert second.endswith("blackbox-002-breaker-open.json")
        document = load_blackbox(first)
        assert document["version"] == BLACKBOX_VERSION
        assert document["reason"] == "dlq-push"
        assert document["context"] == {"kernel": "bsw"}
        assert document["dump_seq"] == 1

    def test_reason_is_sanitized_in_filenames(self, tmp_path):
        recorder = FlightRecorder(dir_path=str(tmp_path), clock=_Ticker())
        path = recorder.trip("weird/reason with spaces")
        assert path.endswith("blackbox-001-weird-reason-with-spaces.json")

    def test_max_dumps_suppresses_a_crash_loop(self, tmp_path):
        recorder = FlightRecorder(
            dir_path=str(tmp_path), max_dumps=2, clock=_Ticker()
        )
        paths = [recorder.trip("fault") for _ in range(5)]
        assert sum(1 for path in paths if path) == 2
        assert recorder.dumps_written == 2
        assert recorder.metrics.counter("flight_trips") == 5
        assert recorder.metrics.counter("flight_dumps_written") == 2
        assert recorder.metrics.counter("flight_dumps_suppressed") == 3
        assert len(list(tmp_path.glob("blackbox-*.json"))) == 2

    def test_load_blackbox_rejects_non_blackbox_json(self, tmp_path):
        path = tmp_path / "not-a-box.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError):
            load_blackbox(str(path))


class TestCanonicalStrip:
    def test_strips_exactly_the_documented_wall_clock_fields(self):
        recorder = FlightRecorder(clock=_Ticker())
        recorder.note("milestone", label="x")
        recorder.record_span(
            "batch", "engine", 10.0, 12.0, {"kernel": "bsw", "jobs": 4}
        )
        document = recorder.blackbox("test", detail=1)
        canonical = canonical_blackbox(document)
        assert "wall_clock_unix" not in canonical
        assert "clock_s" not in canonical
        for entry in canonical["entries"]:
            assert "t" not in entry
            assert "start" not in entry.get("args", {})
            assert "end" not in entry.get("args", {})
        # Deterministic payload survives the strip.
        span = [e for e in canonical["entries"] if e["kind"] == "span"][0]
        assert span["args"]["kernel"] == "bsw"
        assert span["args"]["jobs"] == 4
        assert canonical["reason"] == "test"
        assert canonical["context"] == {"detail": 1}


def _run_crash_recovery(tmp_path, run_dir):
    """One seeded crash-recovery campaign; returns the dump path.

    Job ids are pinned explicitly (the module-global id counter has
    advanced differently in every in-process run) so two campaigns are
    byte-identical at the journal level too.
    """
    base = tmp_path / run_dir
    durability = DurabilityConfig(
        dir_path=str(base / "wal"), fsync="never"
    )
    config = EngineConfig(
        max_queue=64,
        workers=0,
        validate_fraction=0.0,
        durability=durability,
    )
    engine = Engine(config)
    for job_id in range(1000, 1004):
        engine.submit(
            Job(job_id=job_id, kernel="lcs", payload=dict(LCS))
        )
    # kill -9: the queue evaporates, the journal survives.
    engine.journal.crash()
    engine.close()

    flight = FlightRecorder(clock=_Ticker())
    flight.note("process-start", role="recovery")
    engine = Engine(config, flight=flight)
    report = engine.recover()
    assert report.orphans_resubmitted == 4
    results = engine.drain()
    engine.close()
    assert len(results) == 4 and all(result.ok for result in results)
    dumps = sorted((base / "wal" / "blackbox").glob("blackbox-*.json"))
    assert len(dumps) == 1
    assert dumps[0].name == "blackbox-001-recovery.json"
    return dumps[0]


class TestCrashRecoveryAcceptance:
    def test_recovery_dump_replays_in_the_trace_tooling(self, tmp_path):
        """Acceptance: the black box a seeded kill leaves behind feeds
        straight into the Chrome-trace pipeline with zero defects."""
        path = _run_crash_recovery(tmp_path, "run")
        document = load_blackbox(str(path))
        assert document["reason"] == "recovery"
        # The recovery report travels in the trigger context.
        assert document["context"]["accepted"] == 4
        assert document["context"]["orphans_resubmitted"] == 4
        trace = blackbox_to_chrome_trace(document)
        assert validate_chrome_trace(trace) == []
        assert trace["otherData"]["blackbox_reason"] == "recovery"
        assert trace["traceEvents"], "post-mortem timeline must not be empty"

    def test_two_seeded_runs_dump_byte_identical_canonical_boxes(
        self, tmp_path
    ):
        """Acceptance: determinism modulo the documented wall-clock
        fields -- nothing else may differ between identical runs."""
        boxes = []
        for run_dir in ("a", "b"):
            advance_job_ids(10_000)  # same id space for both runs
            path = _run_crash_recovery(tmp_path, run_dir)
            canonical = canonical_blackbox(load_blackbox(str(path)))
            boxes.append(json.dumps(canonical, sort_keys=True))
        assert boxes[0] == boxes[1]
        # And the strip mattered: the raw boxes do carry wall clocks.
        raw = load_blackbox(
            str(tmp_path / "a" / "wal" / "blackbox"
                / "blackbox-001-recovery.json")
        )
        assert "wall_clock_unix" in raw


class TestEngineIntegration:
    def test_engine_trips_flight_on_dlq_push(self, tmp_path):
        flight = FlightRecorder(
            dir_path=str(tmp_path), clock=_Ticker()
        )
        config = EngineConfig(
            max_queue=16, workers=0, validate_fraction=0.0
        )
        with Engine(config, flight=flight) as engine:
            engine.submit(
                Job(
                    job_id=5000,
                    kernel="chain",
                    payload={"anchors": [[0, 0, "w"]]},
                )
            )
            engine.drain()
            snapshot = engine.snapshot()
        assert flight.metrics.counter("flight_trips") >= 1
        assert flight.dumps_written >= 1
        # The engine folds flight health into its own scrape.
        assert snapshot["counters"]["flight_dumps_written"] >= 1
        assert snapshot["flight"]["dumps_written"] >= 1.0
        # The counters fold ran before the trip, so the box carries
        # the engine's counter state at the moment of failure.
        document = load_blackbox(
            str(sorted(tmp_path.glob("blackbox-*.json"))[0])
        )
        kinds = {entry["kind"] for entry in document["entries"]}
        assert "counters" in kinds

    def test_engine_inherits_flight_into_attached_tracer(self):
        flight = FlightRecorder(clock=_Ticker())
        tracer = TraceRecorder(clock=_Ticker())
        config = EngineConfig(
            max_queue=16, workers=0, validate_fraction=0.0
        )
        with Engine(config, tracer=tracer, flight=flight) as engine:
            engine.submit(
                Job(job_id=6000, kernel="lcs", payload=dict(LCS))
            )
            engine.drain()
        assert tracer.flight is flight
        spans = [e for e in flight.entries() if e["kind"] == "span"]
        assert spans, "engine spans must reach the flight ring"
