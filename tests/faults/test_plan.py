"""FaultPlan: deterministic draws, payload decoration, validation."""

import pytest

from repro.faults import FAULT_KINDS, FaultPlan, InjectedCompileError
from repro.faults.plan import unit_draw


class TestUnitDraw:
    def test_pure_function_of_arguments(self):
        assert unit_draw(9, "job", 3) == unit_draw(9, "job", 3)
        assert unit_draw(9, "job", 3) != unit_draw(9, "job", 4)
        assert unit_draw(8, "job", 3) != unit_draw(9, "job", 3)

    def test_in_unit_interval(self):
        draws = [unit_draw(0, "job", i) for i in range(500)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # Sanity: the draws actually spread out.
        assert min(draws) < 0.05 and max(draws) > 0.95


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(hang_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(compile_fail_rate=2.0)

    def test_per_job_rates_must_sum_below_one(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=0.5, hang_rate=0.3, corrupt_rate=0.3)
        # compile_fail_rate is per-attempt, not per-job: excluded from the sum.
        FaultPlan(crash_rate=0.5, fail_rate=0.5, compile_fail_rate=1.0)

    def test_shape_knobs_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(hang_delay_s=0)
        with pytest.raises(ValueError):
            FaultPlan(burst_every=-1)
        with pytest.raises(ValueError):
            FaultPlan(burst_factor=0)

    def test_enabled_flag(self):
        assert not FaultPlan().enabled
        assert FaultPlan(crash_rate=0.1).enabled
        assert FaultPlan(compile_fail_rate=0.1).enabled
        assert FaultPlan(burst_every=2).enabled


class TestPerJobFaults:
    def test_fault_for_is_deterministic(self):
        plan = FaultPlan(seed=9, crash_rate=0.2, hang_rate=0.2, fail_rate=0.2)
        clone = FaultPlan(seed=9, crash_rate=0.2, hang_rate=0.2, fail_rate=0.2)
        kinds = [plan.fault_for(i) for i in range(200)]
        assert kinds == [clone.fault_for(i) for i in range(200)]
        assert any(kinds)  # something fired at these rates

    def test_all_kinds_reachable(self):
        plan = FaultPlan(
            seed=0, crash_rate=0.25, hang_rate=0.25,
            corrupt_rate=0.25, fail_rate=0.25,
        )
        kinds = {plan.fault_for(i) for i in range(400)}
        assert kinds == set(FAULT_KINDS)

    def test_zero_rates_never_fault(self):
        plan = FaultPlan(seed=123)
        assert all(plan.fault_for(i) is None for i in range(100))

    def test_decorate_copies_and_marks(self):
        plan = FaultPlan(seed=0, crash_rate=1.0)
        original = {"x": "ACGT", "y": "AC"}
        decorated, kind = plan.decorate(0, original)
        assert kind == "crash"
        assert decorated is not original
        assert decorated["_inject_exit"] is True
        assert "_inject_exit" not in original

    def test_decorate_passthrough_when_clean(self):
        plan = FaultPlan(seed=0)
        payload = {"x": "ACGT", "y": "AC"}
        decorated, kind = plan.decorate(0, payload)
        assert kind is None
        assert decorated is payload  # no copy when nothing injected

    def test_decorate_markers_per_kind(self):
        markers = {
            "crash": "_inject_exit",
            "hang": "_inject_delay_s",
            "corrupt": "_inject_corrupt",
            "fail": "_inject_fail",
        }
        for kind, marker in markers.items():
            plan = FaultPlan(seed=0, hang_delay_s=3.5, **{f"{kind}_rate": 1.0})
            decorated, drawn = plan.decorate(7, {})
            assert drawn == kind
            assert marker in decorated
        assert FaultPlan(
            seed=0, hang_rate=1.0, hang_delay_s=3.5
        ).decorate(7, {})[0]["_inject_delay_s"] == 3.5


class TestCompileFaults:
    def test_rate_one_always_raises(self):
        plan = FaultPlan(compile_fail_rate=1.0)
        with pytest.raises(InjectedCompileError):
            plan.maybe_fail_compile("lcs", 1)

    def test_rate_zero_never_raises(self):
        FaultPlan().maybe_fail_compile("lcs", 1)

    def test_attempts_reroll_independently(self):
        plan = FaultPlan(seed=0, compile_fail_rate=0.5)
        verdicts = []
        for attempt in range(1, 30):
            try:
                plan.maybe_fail_compile("bsw", attempt)
                verdicts.append(True)
            except InjectedCompileError:
                verdicts.append(False)
        assert True in verdicts and False in verdicts


class TestBursts:
    def test_every_nth_chunk_bursts(self):
        plan = FaultPlan(burst_every=2, burst_factor=3)
        factors = [plan.burst_factor_for(i) for i in range(6)]
        assert factors == [1, 3, 1, 3, 1, 3]

    def test_disabled_by_default(self):
        plan = FaultPlan()
        assert all(plan.burst_factor_for(i) == 1 for i in range(4))
