"""Tests for the processing element: control + compute threads."""

import pytest

from repro.dfg.graph import Opcode
from repro.dpax.pe import PE, PEConfig, wrap32
from repro.dpax.storage import Fifo, PortQueue
from repro.isa.compute import CUInstruction, Imm, Reg, SlotOp, VLIWInstruction
from repro.isa.control import (
    ControlOp,
    IN_PORT,
    OUT_PORT,
    FIFO_PORT,
    addi,
    branch,
    halt,
    li,
    mv,
    reg,
    set_unit,
    spm,
)


def run_pe(pe, cycles=1000):
    pe.started = True
    for _ in range(cycles):
        pe.step()
        if pe.done:
            break
    return pe


def add_bundle(dest, a, b):
    return VLIWInstruction(
        cu0=CUInstruction(
            kind="tree", dest=Reg(dest), right=SlotOp(Opcode.ADD, (Reg(a), Reg(b)))
        )
    )


class TestWrap32:
    def test_positive_wrap(self):
        assert wrap32((1 << 31)) == -(1 << 31)

    def test_identity_in_range(self):
        assert wrap32(12345) == 12345
        assert wrap32(-12345) == -12345


class TestControlThread:
    def test_li_and_mv(self):
        pe = PE(0)
        pe.load([li(reg(1), 42), mv(reg(2), reg(1)), halt()], [])
        run_pe(pe)
        assert pe.rf.read(2) == 42

    def test_address_arithmetic_and_branch_loop(self):
        # Sum 0..4 into a2 via a backward branch.
        from repro.mapping.builder import ControlBuilder

        b = ControlBuilder()
        b.label("top")
        b.add(2, 2, 1)  # a2 += a1
        b.addi(1, 1, 1)  # a1 += 1
        b.branch(ControlOp.BLT, 1, 3, "top")  # while a1 < a3
        b.halt()
        pe = PE(0)
        pe.aregs[3] = 5
        pe.load(b.finish(), [])
        run_pe(pe)
        assert pe.aregs[1] == 5
        assert pe.aregs[2] == 0 + 1 + 2 + 3 + 4

    def test_spm_indirect_addressing(self):
        pe = PE(0)
        pe.load(
            [
                li(spm(7), 99),
                li(reg(0), 0),
                addi(1, 1, 7),  # a1 = 7
                mv(reg(2), spm(1, indirect=True)),
                halt(),
            ],
            [],
        )
        run_pe(pe)
        assert pe.rf.read(2) == 99

    def test_in_port_stall_until_data(self):
        pe = PE(0)
        pe.load([mv(reg(1), IN_PORT), halt()], [])
        pe.started = True
        pe.step()
        assert pe.stats.control_stalls == 1
        pe.in_queue.push(5)
        pe.step()
        pe.step()
        assert pe.rf.read(1) == 5

    def test_out_port_writes_downstream(self):
        pe = PE(0)
        downstream = PortQueue(4)
        pe.out_target = downstream
        pe.load([li(reg(1), 7), mv(OUT_PORT, reg(1)), halt()], [])
        run_pe(pe)
        assert downstream.pop() == 7

    def test_fifo_roundtrip(self):
        fifo = Fifo()
        pe = PE(0)
        pe.fifo_read = fifo
        pe.fifo_write = fifo
        pe.load([li(FIFO_PORT, 11), mv(reg(1), FIFO_PORT), halt()], [])
        run_pe(pe)
        assert pe.rf.read(1) == 11


class TestComputeThread:
    def test_set_runs_bundles(self):
        pe = PE(0)
        pe.load(
            [li(reg(0), 3), li(reg(1), 4), set_unit(0, 1), halt()],
            [add_bundle(2, 0, 1)],
        )
        run_pe(pe)
        assert pe.rf.read(2) == 7

    def test_two_way_vliw_executes_both(self):
        bundle = VLIWInstruction(
            cu0=CUInstruction(
                kind="tree", dest=Reg(2), right=SlotOp(Opcode.ADD, (Reg(0), Imm(1)))
            ),
            cu1=CUInstruction(
                kind="tree", dest=Reg(3), right=SlotOp(Opcode.SUB, (Reg(0), Imm(1)))
            ),
        )
        pe = PE(0)
        pe.load([li(reg(0), 10), set_unit(0, 1), halt()], [bundle])
        run_pe(pe)
        assert pe.rf.read(2) == 11 and pe.rf.read(3) == 9

    def test_bundle_reads_see_the_pre_bundle_register_file(self):
        # {cu0: r1 = r0+1 | cu1: r2 = r1+1}: both CUs issue together, so
        # cu1 reads the r1 from before the bundle -- no forwarding, as
        # the verifier, the optimizer and the engine's cell all assume.
        from repro.dpmap.codegen import execute_way

        bundle = VLIWInstruction(
            cu0=CUInstruction(
                kind="tree", dest=Reg(1), right=SlotOp(Opcode.ADD, (Reg(0), Imm(1)))
            ),
            cu1=CUInstruction(
                kind="tree", dest=Reg(2), right=SlotOp(Opcode.ADD, (Reg(1), Imm(1)))
            ),
        )
        pe = PE(0)
        pe.load(
            [li(reg(0), 10), li(reg(1), 100), set_unit(0, 1), halt()], [bundle]
        )
        run_pe(pe)
        before = {0: 10, 1: 100}
        expected = [execute_way(way, before) for way in bundle.ways]
        assert [pe.rf.read(1), pe.rf.read(2)] == expected == [11, 101]

    def test_control_fences_on_rf_while_compute_busy(self):
        pe = PE(0)
        pe.load(
            [
                li(reg(0), 1),
                li(reg(1), 2),
                set_unit(0, 1),
                mv(reg(4), reg(2)),  # must wait for the ADD result
                halt(),
            ],
            [add_bundle(2, 0, 1)],
        )
        run_pe(pe)
        assert pe.rf.read(4) == 3
        assert pe.stats.control_stalls >= 0  # fence may or may not hit

    def test_set_target_window(self):
        pe = PE(0)
        bundles = [add_bundle(2, 0, 1), add_bundle(3, 2, 2)]
        pe.load(
            [li(reg(0), 5), li(reg(1), 5), set_unit(1, 1), halt()], bundles
        )
        # Only the second bundle runs: r3 = r2 + r2 = 0.
        run_pe(pe)
        assert pe.rf.read(2) == 0
        assert pe.rf.read(3) == 0

    def test_set_out_of_range_raises(self):
        pe = PE(0)
        pe.load([set_unit(0, 5)], [add_bundle(2, 0, 1)])
        pe.started = True
        with pytest.raises(Exception):
            pe.step()

    def test_match_table_plumbed(self):
        bundle = VLIWInstruction(
            cu0=CUInstruction(
                kind="tree",
                dest=Reg(2),
                left=SlotOp(Opcode.MATCH_SCORE, (Reg(0), Reg(1))),
            )
        )
        pe = PE(0, PEConfig(match_table=lambda a, b: 42 if a == b else -1))
        pe.load([li(reg(0), 2), li(reg(1), 2), set_unit(0, 1), halt()], [bundle])
        run_pe(pe)
        assert pe.rf.read(2) == 42

    def test_int_datapath_wraps(self):
        bundle = VLIWInstruction(
            cu0=CUInstruction(
                kind="tree",
                dest=Reg(1),
                right=SlotOp(Opcode.ADD, (Reg(0), Reg(0))),
            )
        )
        pe = PE(0)
        pe.load([li(reg(0), (1 << 30)), set_unit(0, 1), halt()], [bundle])
        run_pe(pe)
        assert pe.rf.read(1) == -(1 << 31)

    def test_fp_datapath_keeps_floats(self):
        pe = PE(0, PEConfig(datapath="fp"))
        pe.load([li(reg(0), 3), halt()], [])
        run_pe(pe)
        assert pe.rf.read(0) == 3
