"""DiskFaultPlan: seeded disk-fault schedules for the journal."""

import errno

import pytest

from repro.faults.disk import DISK_FAULT_KINDS, DiskFaultPlan


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            DiskFaultPlan(torn_rate=1.5)
        with pytest.raises(ValueError):
            DiskFaultPlan(bitflip_rate=-0.1)
        with pytest.raises(ValueError):
            DiskFaultPlan(short_fsync_rate=2.0)

    def test_per_write_rates_cannot_exceed_one_combined(self):
        with pytest.raises(ValueError):
            DiskFaultPlan(torn_rate=0.6, bitflip_rate=0.6)

    def test_byte_budget_must_be_non_negative(self):
        with pytest.raises(ValueError):
            DiskFaultPlan(enospc_after_bytes=-1)

    def test_inert_plan_is_disabled(self):
        assert not DiskFaultPlan().enabled
        assert DiskFaultPlan(torn_rate=0.1).enabled
        assert DiskFaultPlan(enospc_after_bytes=100).enabled


class TestDeterminism:
    def test_schedule_is_a_pure_function_of_seed_and_index(self):
        a = DiskFaultPlan(seed=5, torn_rate=0.2, bitflip_rate=0.2)
        b = DiskFaultPlan(seed=5, torn_rate=0.2, bitflip_rate=0.2)
        assert [a.fault_for_write(i) for i in range(200)] == [
            b.fault_for_write(i) for i in range(200)
        ]

    def test_different_seeds_give_different_schedules(self):
        a = DiskFaultPlan(seed=1, torn_rate=0.3, bitflip_rate=0.3)
        b = DiskFaultPlan(seed=2, torn_rate=0.3, bitflip_rate=0.3)
        assert [a.fault_for_write(i) for i in range(200)] != [
            b.fault_for_write(i) for i in range(200)
        ]

    def test_rates_are_roughly_honoured(self):
        plan = DiskFaultPlan(seed=0, torn_rate=0.25, bitflip_rate=0.25)
        kinds = [plan.fault_for_write(i) for i in range(2000)]
        torn = kinds.count("torn") / len(kinds)
        flipped = kinds.count("bitflip") / len(kinds)
        assert 0.18 < torn < 0.32
        assert 0.18 < flipped < 0.32

    def test_kind_names_match_the_schema(self):
        plan = DiskFaultPlan(seed=0, torn_rate=0.5, bitflip_rate=0.5)
        kinds = {plan.fault_for_write(i) for i in range(100)}
        assert kinds <= set(DISK_FAULT_KINDS) | {None}


class TestTornWrites:
    def test_torn_length_is_strictly_shorter_than_the_frame(self):
        plan = DiskFaultPlan(seed=3, torn_rate=1.0)
        for index in range(100):
            for size in (2, 10, 64, 4096):
                assert 0 <= plan.torn_length(index, size) < size

    def test_single_byte_frames_tear_to_nothing(self):
        plan = DiskFaultPlan(seed=3, torn_rate=1.0)
        assert plan.torn_length(0, 1) == 0
        assert plan.torn_length(0, 0) == 0


class TestBitFlips:
    def test_exactly_one_bit_differs(self):
        plan = DiskFaultPlan(seed=9, bitflip_rate=1.0)
        frame = bytes(range(64))
        for index in range(50):
            flipped = plan.flip(index, frame)
            assert len(flipped) == len(frame)
            diff = sum(
                bin(a ^ b).count("1") for a, b in zip(frame, flipped)
            )
            assert diff == 1

    def test_empty_frame_survives(self):
        plan = DiskFaultPlan(seed=9, bitflip_rate=1.0)
        assert plan.flip(0, b"") == b""


class TestSpaceAndSync:
    def test_enospc_fires_past_the_budget(self):
        plan = DiskFaultPlan(enospc_after_bytes=100)
        plan.check_space(0, 100)  # exactly at budget: fine
        with pytest.raises(OSError) as excinfo:
            plan.check_space(50, 51)
        assert excinfo.value.errno == errno.ENOSPC

    def test_zero_budget_never_fires(self):
        DiskFaultPlan().check_space(10**9, 10**9)

    def test_fsync_lies_deterministically(self):
        plan = DiskFaultPlan(seed=4, short_fsync_rate=0.5)
        lies = [plan.fsync_lies(i) for i in range(100)]
        assert lies == [plan.fsync_lies(i) for i in range(100)]
        assert any(lies) and not all(lies)

    def test_honest_plan_never_lies(self):
        plan = DiskFaultPlan(seed=4)
        assert not any(plan.fsync_lies(i) for i in range(100))
