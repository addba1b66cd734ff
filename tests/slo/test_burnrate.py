"""Multi-window multi-burn-rate evaluation under a simulated clock.

The acceptance scenario lives here: a synthetic latency burn must fire
the fast window within one probe interval of the burn starting, and
the fired/resolved alert sequence must be byte-identical across two
runs of the same replay.
"""

import json

import pytest

from repro.cluster import SimClock
from repro.engine.metrics import COUNTERS, MetricsRegistry
from repro.slo.burnrate import (
    DEFAULT_WINDOWS,
    BurnWindow,
    SLOEngine,
    synthesize_burn_replay,
)
from repro.slo.objectives import DEFAULT_OBJECTIVES, SLObjective

LATENCY = DEFAULT_OBJECTIVES[0]  # job-latency: execute_s <= 0.5s @ 0.99


def replay_engine(records, **kwargs):
    """Feed a replay stream into a fresh evaluator; returns it."""
    engine = SLOEngine(**kwargs)
    for record in records:
        engine.observe(record["snapshot"], at=record["t"])
    return engine


class TestWindowValidation:
    def test_rejects_nonpositive_windows(self):
        with pytest.raises(ValueError):
            BurnWindow(name="w", window_s=0, probe_s=1, max_burn=1)
        with pytest.raises(ValueError):
            BurnWindow(name="w", window_s=10, probe_s=0, max_burn=1)

    def test_rejects_probe_longer_than_window(self):
        with pytest.raises(ValueError):
            BurnWindow(name="w", window_s=10, probe_s=20, max_burn=1)

    def test_rejects_duplicate_objective_names(self):
        with pytest.raises(ValueError):
            SLOEngine(objectives=(LATENCY, LATENCY))

    def test_default_windows_page_fast_and_ticket_slow(self):
        fast, slow = DEFAULT_WINDOWS
        assert fast.window_s < slow.window_s
        assert fast.max_burn > slow.max_burn


class TestBurnDetection:
    def test_healthy_replay_never_fires(self):
        records = synthesize_burn_replay(mode="healthy", healthy_ticks=10)
        engine = replay_engine(records)
        assert engine.alerts == []
        assert not engine.burning

    def test_burn_fires_within_one_fast_window_evaluation(self):
        """The acceptance criterion: a hard latency burn is detected
        within one fast-probe interval of the burn starting."""
        records = synthesize_burn_replay(
            healthy_ticks=6, burn_ticks=6, tick_s=10.0
        )
        burn_start = records[6]["t"]  # first burning tick's timestamp
        engine = replay_engine(records)
        fired = [a for a in engine.alerts if a.state == "fired"]
        assert fired, "burn was never detected"
        fast = DEFAULT_WINDOWS[0]
        first = min(a.at for a in fired)
        # Ticks are 10 s apart and the fast probe is 25 s: the very
        # next evaluation after the probe window fills with errors
        # must page.
        assert first - burn_start <= fast.probe_s + 10.0
        assert any(a.window == "fast" for a in fired)
        assert engine.burning

    def test_probe_window_gates_stale_burns(self):
        """A burst that stopped before the probe window must not page:
        the long window still remembers it, the probe proves recovery."""
        window = BurnWindow(
            name="fast", window_s=300.0, probe_s=25.0, max_burn=14.4
        )
        engine = SLOEngine(objectives=(LATENCY,), windows=(window,))
        bounds = [0.5, 5.0]
        good, total = 0, 0

        def tick(t, new_good, new_bad):
            nonlocal good, total
            good += new_good
            total += new_good + new_bad
            snapshot = {
                "histograms": {
                    "execute_s": {
                        "count": total,
                        "buckets": [
                            [bounds[0], good],
                            [bounds[1], total - good],
                            ["inf", 0],
                        ],
                    }
                }
            }
            return engine.observe(snapshot, at=t)

        # One hard error burst...
        tick(10.0, 50, 0)
        tick(20.0, 0, 50)
        # ...then full recovery long enough for the probe to clear.
        fired_later = []
        for step in range(3, 12):
            fired_later.extend(tick(step * 10.0, 50, 0))
        # The probe window (last 25 s) is clean at the end even though
        # the 300 s window still contains the burst.
        assert not engine.burning
        assert all(a.state == "resolved" for a in fired_later)

    def test_burn_resolves_after_recovery(self):
        records = synthesize_burn_replay(healthy_ticks=6, burn_ticks=6)
        engine = replay_engine(records)
        assert engine.burning
        # Resume healthy traffic: cumulative counts keep growing with
        # only good events until both windows clear.
        last = records[-1]["snapshot"]["histograms"]["execute_s"]
        good_floor = last["buckets"][0][1]
        total = last["count"]
        t = records[-1]["t"]
        for step in range(1, 160):
            total += 50
            good_floor += 50
            snapshot = {
                "histograms": {
                    "execute_s": {
                        "count": total,
                        "buckets": [
                            [0.5, good_floor],
                            [5.0, total - good_floor],
                            ["inf", 0],
                        ],
                    }
                }
            }
            engine.observe(snapshot, at=t + step * 10.0)
            if not engine.burning:
                break
        assert not engine.burning
        states = [a.state for a in engine.alerts]
        assert "resolved" in states
        counters = engine.metrics
        assert counters.counter("slo_windows_burning") == 0
        assert counters.counter("slo_alerts_fired") == counters.counter(
            "slo_alerts_resolved"
        )


class TestDeterminism:
    def test_alert_sequence_identical_across_two_runs(self):
        """Second acceptance half: same replay, same alert sequence,
        byte for byte."""
        records = synthesize_burn_replay(healthy_ticks=6, burn_ticks=6)
        runs = []
        for _ in range(2):
            engine = replay_engine(records)
            runs.append(
                json.dumps(
                    [alert.to_dict() for alert in engine.alerts],
                    sort_keys=True,
                )
            )
        assert runs[0] == runs[1]
        assert json.loads(runs[0]), "sequence must be non-empty"

    def test_synthesize_burn_replay_is_pure(self):
        a = synthesize_burn_replay()
        b = synthesize_burn_replay()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_sim_clock_drives_observation_times(self):
        clock = SimClock(start=0.0)
        engine = SLOEngine(objectives=(LATENCY,), clock=clock)
        clock.advance(42.0)
        engine.observe({"histograms": {}})
        history = engine._history[LATENCY.name]
        assert history.samples[-1][0] == pytest.approx(42.0)


class TestExportSurface:
    def test_status_document_shape(self):
        records = synthesize_burn_replay()
        engine = replay_engine(records)
        status = engine.status()
        assert status["burning"] is True
        assert status["evaluations"] == len(records)
        by_name = {doc["name"]: doc for doc in status["objectives"]}
        assert by_name["job-latency"]["burning"] is True
        windows = {w["window"] for w in by_name["job-latency"]["windows"]}
        assert windows == {"fast", "slow"}

    def test_annotate_overwrites_never_double_counts(self):
        registry = MetricsRegistry()
        engine = SLOEngine(objectives=(LATENCY,), metrics=registry)
        engine.observe({"histograms": {}}, at=1.0)
        engine.observe({"histograms": {}}, at=2.0)
        # The shared-registry scrape path: counters are already in the
        # snapshot; annotate must overwrite, not add.
        snapshot = registry.snapshot()
        annotated = engine.annotate(snapshot)
        assert annotated["counters"]["slo_evaluations"] == 2
        assert "slo" in annotated

    def test_export_section_renders_prometheus_clean(self):
        from repro.obs.export import prometheus_text
        from repro.obs.promcheck import check_exposition

        engine = replay_engine(synthesize_burn_replay())
        text = prometheus_text(engine.annotate({"counters": {}}))
        assert check_exposition(text) == []
        assert 'gendp_slo_burning{objective="job-latency"} 1' in text

    def test_counters_schema_initialized_to_zero(self):
        engine = SLOEngine()
        assert engine.metrics.counters == dict.fromkeys(COUNTERS["slo"], 0)

    def test_flight_recorder_trips_on_fire(self):
        class FakeFlight:
            def __init__(self):
                self.trips = []

            def trip(self, reason, **context):
                self.trips.append((reason, context))

        flight = FakeFlight()
        engine = SLOEngine(flight=flight)
        for record in synthesize_burn_replay():
            engine.observe(record["snapshot"], at=record["t"])
        assert flight.trips
        assert all(reason == "slo-burn" for reason, _ in flight.trips)
        assert flight.trips[0][1]["objective"] == "job-latency"
