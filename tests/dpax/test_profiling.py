"""Opt-in simulator profiling: per-PE accounting and invariants."""

import dataclasses
import random

import pytest

from repro.dfg.graph import Opcode
from repro.dpax.machine import DPAxMachine
from repro.dpax.pe import PEConfig, PEStats
from repro.dpax.pe_array import PEArray
from repro.dpax.storage import StorageError
from repro.isa.compute import CUInstruction, Imm, Reg, SlotOp, VLIWInstruction
from repro.isa.control import halt, li, reg, set_unit
from repro.kernels.chain import Anchor
from repro.mapping import kernels2d
from repro.mapping.sliding1d import run_chain
from repro.mapping.wavefront2d import run_wavefront
from repro.obs import profile as profiling
from repro.obs.profile import (
    ALU_SLOTS_PER_BUNDLE,
    PEProfile,
    ProfileReport,
    STALL_REASONS,
)
from repro.obs.trace import validate_chrome_trace
from repro.seq.alphabet import encode, random_sequence
from tests.dpax import test_failure_injection as failures
from tests.dpax.test_loop import CAP, build, state

#: One bundle: r0 += 1.
BUMP = VLIWInstruction(
    cu0=CUInstruction(kind="tree", dest=Reg(0), right=SlotOp(Opcode.ADD, (Reg(0), Imm(1))))
)


@pytest.fixture(scope="module")
def profiled_bsw():
    rng = random.Random(7)
    run = run_wavefront(
        kernels2d.bsw_wavefront_spec(),
        target=encode(random_sequence(12, rng)),
        stream=encode(random_sequence(16, rng)),
        profile=True,
    )
    assert run.finished
    return run


def test_profiled_run_matches_unprofiled(profiled_bsw):
    rng = random.Random(7)
    plain = run_wavefront(
        kernels2d.bsw_wavefront_spec(),
        target=encode(random_sequence(12, rng)),
        stream=encode(random_sequence(16, rng)),
    )
    assert plain.profile is None
    assert plain.cycles == profiled_bsw.cycles
    assert plain.cells == profiled_bsw.cells


def test_stall_reasons_are_known(profiled_bsw):
    breakdown = profiled_bsw.profile.stall_breakdown()
    assert set(breakdown) <= set(STALL_REASONS)
    assert all(count > 0 for count in breakdown.values())


def test_way_histogram_sums_to_bundles(profiled_bsw):
    report = profiled_bsw.profile
    histogram = report.way_histogram()
    assert sum(histogram.values()) == report.bundles
    assert report.bundles > 0
    # Ways per bundle are bounded by the 2-way issue width.
    assert set(histogram) <= {0, 1, 2}
    assert report.ways_issued == sum(
        ways * count for ways, count in histogram.items()
    )


def test_fifo_histogram_counts_sampled_cycles(profiled_bsw):
    report = profiled_bsw.profile
    (array,) = report.arrays
    assert sum(report.fifo_depth_histogram().values()) == array.sampled_cycles
    assert array.sampled_cycles == profiled_bsw.cycles


def test_slot_utilization_bounds(profiled_bsw):
    report = profiled_bsw.profile
    utilization = report.vliw_slot_utilization()
    assert 0.0 < utilization <= 1.0
    assert utilization == pytest.approx(
        report.alu_ops / (report.bundles * ALU_SLOTS_PER_BUNDLE)
    )
    assert 0.0 < report.way_occupancy() <= 1.0


def test_chrome_trace_export(profiled_bsw):
    document = profiled_bsw.profile.to_chrome_trace()
    assert validate_chrome_trace(document) == []
    events = document["traceEvents"]
    compute = [event for event in events if event["name"] == "compute"]
    assert compute
    # Cycle-denominated durations; segments are coalesced, not per cycle.
    assert all(event["dur"] >= 1 for event in compute)
    assert len(compute) < profiled_bsw.cycles


def test_report_to_dict_and_render(profiled_bsw):
    document = profiled_bsw.profile.to_dict()
    assert document["bundles"] == profiled_bsw.profile.bundles
    assert document["per_pe"]
    text = profiled_bsw.profile.render()
    assert "VLIW slot util" in text
    assert "bundles executed" in text


def test_enable_profiling_is_idempotent():
    array = PEArray()
    profile = array.enable_profiling()
    assert array.enable_profiling() is profile
    machine = DPAxMachine(integer_arrays=2, fp_arrays=0)
    tile = machine.enable_profiling()
    assert machine.enable_profiling() is tile
    assert len(tile.arrays) == 2


def test_machine_profiling_via_chain():
    rng = random.Random(3)
    anchors = []
    x = y = 0
    for _ in range(12):
        x += rng.randint(1, 60)
        y += rng.randint(1, 60)
        anchors.append(Anchor(x, y))
    run = run_chain(anchors, total_pes=8, pes_per_array=4, profile=True)
    assert run.finished
    assert isinstance(run.profile, ProfileReport)
    assert run.profile.bundles > 0
    assert len(run.profile.arrays) >= 1
    plain = run_chain(anchors, total_pes=8, pes_per_array=4)
    assert plain.profile is None
    assert plain.result.scores == run.result.scores


def test_empty_profile_is_all_zero():
    profile = PEProfile(array_index=0, pe_index=0)
    assert profile.way_occupancy == 0.0
    assert profile.slot_utilization == 0.0
    report = ProfileReport(arrays=[])
    assert report.vliw_slot_utilization() == 0.0
    assert report.way_histogram() == {}


def test_timeline_truncation_cap(monkeypatch):
    monkeypatch.setattr(profiling, "MAX_TIMELINE", 4)
    array = PEArray(pe_count=1)
    profile = array.enable_profiling().pes[0]
    # Alternate states so no coalescing happens: each set opens a
    # one-bundle window that the next cycle runs.
    array.load_pe(0, [set_unit(0, 1), li(reg(1), 0)] * 5 + [set_unit(0, 1), halt()], [BUMP])
    array.load_array_control([set_unit(0, 1), halt()])
    assert array.run(100) == (12, True)
    assert len(profile.segments()) == 4
    assert profile.timeline_truncated
    # Accounting keeps going after the timeline stops.
    assert profile.bundles == 6
    assert profile.idle_cycles == 6


# ----------------------------------------------------------------------
# the profile against the PEs' own statistics


def baseline(array):
    """What a profile attached now must not count."""
    return array.control_stalls, [dataclasses.replace(pe.stats) for pe in array.pes]


def assert_consistent(array, base=(0, None)):
    """*array*'s profile counts exactly the stats' growth since *base*:
    bundles, ALU ops, idle cycles and stalls; the way histogram sums to
    the bundles; the timeline covers each counted cycle once, after
    *base* and in order; the FIFO histogram sums to the sampled cycles."""
    control_stalls, before = base
    profile = array.profiler
    assert sum(profile.control_stalls.values()) == array.control_stalls - control_stalls
    assert sum(profile.fifo_depths.values()) == profile.sampled_cycles
    for pe, pe_profile, old in zip(array.pes, profile.pes, before or [PEStats()] * len(array.pes)):
        stats = pe.stats
        assert pe_profile.bundles == stats.compute_bundles - old.compute_bundles
        assert pe_profile.alu_ops == stats.alu_ops - old.alu_ops
        assert pe_profile.idle_cycles == stats.compute_idle - old.compute_idle
        assert sum(pe_profile.stalls.values()) == stats.control_stalls - old.control_stalls
        assert sum(pe_profile.way_histogram.values()) == pe_profile.bundles
        segments = pe_profile.segments()
        assert not pe_profile.timeline_truncated
        cycles = [cycle for _, first, last in segments for cycle in range(first, last + 1)]
        assert cycles == sorted(set(cycles))
        assert all(old.cycles < cycle <= stats.cycles for cycle in cycles)
        assert len(cycles) == pe_profile.bundles + pe_profile.idle_cycles
        busy = sum(last - first + 1 for state, first, last in segments if state == "compute")
        assert busy == pe_profile.bundles


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_profiler_attached_late_counts_only_later_cycles(seed):
    machine = build(seed, profiled=False)
    assert not machine.run(30).finished
    bases = [baseline(array) for array in machine.arrays]
    machine.enable_profiling()
    result = machine.run(CAP)
    assert result.finished
    for array, base in zip(machine.arrays, bases):
        assert array.profiler.sampled_cycles == result.cycles
        assert_consistent(array, base)


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_two_profiled_runs_accumulate(seed):
    split, whole = build(seed, profiled=True), build(seed, profiled=True)
    first = split.run(30)
    halfway = [(array.profiler.report().to_dict(), baseline(array)) for array in split.arrays]
    second = split.run(CAP)
    assert second.finished and first.cycles + second.cycles == whole.run(CAP).cycles
    for array, (counted, (control_stalls, before)) in zip(split.arrays, halfway):
        totals = array.profiler.report().to_dict()

        def grown(counter):
            pairs = zip(array.pes, before)
            return sum(getattr(pe.stats, counter) - getattr(old, counter) for pe, old in pairs)

        assert totals["bundles"] == counted["bundles"] + grown("compute_bundles")
        assert totals["alu_ops"] == counted["alu_ops"] + grown("alu_ops")
        stalls = array.control_stalls - control_stalls + grown("control_stalls")
        stalls_counted = sum(counted["stall_breakdown"].values())
        assert sum(totals["stall_breakdown"].values()) == stalls_counted + stalls
        assert array.profiler.sampled_cycles == first.cycles + second.cycles
        assert_consistent(array)
    # Runs that cross a call boundary continue, as in one call.
    assert state(split.arrays) == state(whole.arrays)


def test_a_run_that_raises_leaves_the_profile_consistent():
    array = failures.TestFaultInsideTheLoop.faulting_array()
    array.enable_profiling()
    with pytest.raises(StorageError):
        array.run(1000)
    assert_consistent(array)
    # PE0 ran every cycle; the faulting one never reached the sample.
    assert array.profiler.sampled_cycles == array.pes[0].stats.cycles - 1 == 36


def test_a_bundle_that_raises_counts_its_cycle_but_no_mark():
    bad = VLIWInstruction(
        cu0=CUInstruction(kind="tree", dest=Reg(8), right=SlotOp(Opcode.ADD, (Reg(0), Imm(1))))
    )
    array = PEArray(pe_config=PEConfig(rf_size=8), pe_count=1)
    array.enable_profiling()
    array.load_pe(0, [set_unit(0, 1), halt()], [bad])
    array.load_array_control([set_unit(0, 1), halt()])
    for cycles in (2, 3):  # and again, from where the fault left it
        with pytest.raises(StorageError, match="RF write out of range: 8"):
            array.run(10)
        assert array.pes[0].stats.cycles == cycles
        assert array.profiler.pes[0].segments() == [["idle", 1, 1]]
        assert_consistent(array)
    # A new program runs on: its timeline skips the two faulted cycles.
    array.load_pe(0, [set_unit(0, 1), halt()], [BUMP])
    array.load_array_control([set_unit(0, 1), halt()])
    assert array.run(10)[1]
    assert array.profiler.pes[0].segments()[1][1] == 4
    assert_consistent(array)
