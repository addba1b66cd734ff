"""Shard health: windows, degradation, ejection, rejoin probes.

The knobs are module constants: a window of 16 rounds, degraded at a
0.5 error or slow-round share, slow above 1.0 s, ejected after 2
consecutive failures, rejoin probe after a cooldown of 2 rounds.
"""

from repro.cluster.health import (
    EJECT_THRESHOLD,
    HEALTH_CODES,
    HEALTH_WINDOW,
    REJOIN_COOLDOWN,
    SLOW_ROUND_S,
    ShardHealth,
)
from repro.engine.breaker import BREAKER_CODES


def test_constants_are_the_documented_values():
    assert (HEALTH_WINDOW, EJECT_THRESHOLD, REJOIN_COOLDOWN, SLOW_ROUND_S) == (
        16,
        2,
        2,
        1.0,
    )


class TestClassification:
    def test_fresh_shard_is_healthy(self):
        health = ShardHealth()
        assert health.classification == "healthy"
        assert not health.ejected

    def test_error_rate_degrades(self):
        health = ShardHealth()
        health.record_drain(True, 0.01)
        health.record_drain(False, 0.01)
        health.record_drain(True, 0.01)
        assert health.classification == "healthy"  # 1/3 < 0.5
        health.record_drain(False, 0.01)
        assert health.error_rate == 0.5
        assert health.classification == "degraded"

    def test_slow_rounds_degrade(self):
        health = ShardHealth()
        health.record_drain(True, SLOW_ROUND_S)  # at the bound: not slow
        assert health.slow_rate == 0.0
        for _ in range(3):
            health.record_drain(True, 1.5)
        assert health.slow_rate == 0.75
        assert health.classification == "degraded"
        # Successes kept the breaker closed: degraded, not ejected.
        assert not health.ejected

    def test_window_is_bounded(self):
        health = ShardHealth()
        health.record_drain(False, 0.0)
        for _ in range(HEALTH_WINDOW - 1):
            health.record_drain(True, 0.0)
        assert health.error_rate == 1 / HEALTH_WINDOW
        # One more round pushes the failure out of the window.
        health.record_drain(True, 0.0)
        assert health.error_rate == 0.0
        assert health.mean_latency_s == 0.0


class TestEjection:
    def test_consecutive_failures_eject(self):
        health = ShardHealth()
        assert not health.record_drain(False, 0.0)
        assert health.record_drain(False, 0.0)  # this one opens
        assert health.ejected
        assert health.classification == "ejected"

    def test_missed_heartbeats_eject(self):
        health = ShardHealth()
        health.beat()
        assert health.missed_beats == 0
        health.miss(2)
        assert health.miss(3)
        assert health.ejected
        assert health.missed_beats == 2

    def test_success_resets_the_streak(self):
        health = ShardHealth()
        health.record_drain(False, 0.0)
        health.record_drain(True, 0.0)
        assert not health.record_drain(False, 0.0)
        assert not health.ejected

    def test_rejoin_after_cooldown(self):
        health = ShardHealth()
        health.record_drain(False, 0.0)
        health.record_drain(False, 0.0)
        assert health.ejected
        # Cooldown counts down in allow() calls (one per drain round);
        # the call that exhausts it is the half-open rejoin probe.
        assert not health.allow()
        assert health.allow()  # the rejoin probe
        assert health.probing
        health.record_drain(True, 0.0)
        assert not health.ejected
        assert health.classification != "ejected"


class TestSnapshot:
    def test_snapshot_is_numeric_and_schema_stable(self):
        health = ShardHealth()
        health.beat()
        health.record_drain(True, 0.02)
        snap = health.snapshot()
        assert set(snap) == {
            "health",
            "breaker_state",
            "error_rate",
            "slow_rate",
            "mean_latency_s",
            "missed_beats",
        }
        assert all(isinstance(value, float) for value in snap.values())
        assert snap["health"] == float(HEALTH_CODES["healthy"])
        assert snap["breaker_state"] == float(BREAKER_CODES["closed"])

    def test_snapshot_reflects_ejection(self):
        health = ShardHealth()
        health.record_drain(False, 0.0)
        health.record_drain(False, 0.0)
        snap = health.snapshot()
        assert snap["health"] == float(HEALTH_CODES["ejected"])
        assert snap["breaker_state"] == float(BREAKER_CODES["open"])
