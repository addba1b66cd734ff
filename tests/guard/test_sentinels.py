"""Numerical sentinels: hazard counting and kernel arming."""

from repro.guard.sentinels import (
    PAIRHMM_UNDERFLOW_FLOOR,
    SENTINEL_FIELDS,
    Sentinel,
    make_sentinel,
)


class TestObservation:
    def test_int32_overflow_counted(self):
        sentinel = Sentinel()
        sentinel.observe((1 << 31) - 1)  # exactly on the rail: fine
        sentinel.observe(1 << 31)  # one past: overflow
        sentinel.observe(-(1 << 31))  # exactly the min rail: fine
        sentinel.observe(-(1 << 31) - 1)
        assert sentinel.values_observed == 4
        assert sentinel.int32_overflows == 2
        assert sentinel.triggered

    def test_lane_saturation_counted(self):
        sentinel = Sentinel(lane_bits=8)
        sentinel.observe(127)
        sentinel.observe(128)
        sentinel.observe(-128)
        sentinel.observe(-129)
        assert sentinel.lane_saturations == 2
        assert sentinel.int32_overflows == 0

    def test_underflow_counted_at_floor(self):
        sentinel = Sentinel(underflow_floor=PAIRHMM_UNDERFLOW_FLOOR)
        sentinel.observe(PAIRHMM_UNDERFLOW_FLOOR + 1)
        sentinel.observe(PAIRHMM_UNDERFLOW_FLOOR)  # at the floor counts
        sentinel.observe(PAIRHMM_UNDERFLOW_FLOOR - 5)
        assert sentinel.underflows == 2

    def test_untriggered_by_default(self):
        sentinel = Sentinel()
        sentinel.observe(42)
        assert not sentinel.triggered


class TestSnapshotMerge:
    def test_snapshot_schema_is_stable(self):
        assert tuple(Sentinel().snapshot()) == SENTINEL_FIELDS

    def test_merge_adds_counts(self):
        a, b = Sentinel(), Sentinel()
        a.observe(1 << 40)
        b.observe(1 << 40)
        b.observe(0)
        a.merge(b.snapshot())
        assert a.values_observed == 3
        assert a.int32_overflows == 2


class TestKernelArming:
    def test_bsw_watches_lanes(self):
        assert make_sentinel("bsw").lane_bits == 8

    def test_pairhmm_watches_underflow(self):
        assert make_sentinel("pairhmm").underflow_floor == PAIRHMM_UNDERFLOW_FLOOR

    def test_others_scalar_only(self):
        sentinel = make_sentinel("dtw")
        assert sentinel.lane_bits is None and sentinel.underflow_floor is None

    def test_kernels_without_an_engine_row_watch_the_rails_only(self):
        for kernel in ("poa", "bellman_ford", "nope"):
            assert make_sentinel(kernel) == Sentinel()
