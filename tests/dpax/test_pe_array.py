"""Tests for the PE array: systolic wiring and array control."""

import pytest

from repro.dfg.graph import Opcode
from repro.dpax.pe_array import PEArray
from repro.isa.compute import CUInstruction, Imm, Reg, SlotOp, VLIWInstruction
from repro.isa.control import (
    ControlOp,
    FIFO_PORT,
    IN_PORT,
    OUT_PORT,
    areg,
    halt,
    ibuf,
    li,
    mv,
    obuf,
    reg,
    set_unit,
)
from repro.mapping.builder import ControlBuilder


def run_array(array, cycles=5000):
    array.run(cycles)
    return array


class TestWiring:
    def test_default_chain(self):
        array = PEArray()
        assert array.pes[0].out_target is array.pes[1].in_queue
        assert array.pes[-1].out_target is array.tail_queue
        assert array.pes[0].fifo_read is array.fifo
        assert array.pes[-1].fifo_write is array.fifo

    def test_single_pe_array(self):
        array = PEArray(pe_count=1)
        assert array.pes[0].out_target is array.tail_queue


class TestRun:
    def test_reports_cycles_and_completion(self):
        array = PEArray()
        array.load_pe(0, [li(reg(0), 1), halt()], [])
        array.load_array_control([set_unit(0, 1), halt()])
        cycles, finished = array.run(100)
        assert finished and array.done
        assert cycles == 2 == array.pes[0].stats.cycles  # set, then li | halt

    def test_cycle_cap_is_reported_not_raised(self):
        array = PEArray()
        array.load_pe(0, [mv(reg(0), IN_PORT), halt()], [])  # starves
        array.load_array_control([set_unit(0, 1), halt()])
        assert array.run(50) == (50, False)


class TestArrayControl:
    def test_set_starts_pe(self):
        array = PEArray()
        array.load_pe(0, [halt()], [])
        array.load_array_control([set_unit(0, 1), halt()])
        run_array(array)
        assert array.pes[0].started

    def test_ibuf_to_pe_to_obuf_pipeline(self):
        # Array feeds 4 words through all 4 PEs (each increments via its
        # compute unit), then collects into the output buffer.
        array = PEArray()
        array.ibuf.preload([10, 20, 30, 40])

        increment = VLIWInstruction(
            cu0=CUInstruction(
                kind="tree",
                dest=Reg(0),
                right=SlotOp(Opcode.ADD, (Reg(0), Imm(1))),
            )
        )
        for position in range(4):
            b = ControlBuilder()
            b.li(areg(1), 4)
            b.label("top")
            b.mv(reg(0), IN_PORT)
            b.set_unit(0, 1)
            b.mv(OUT_PORT, reg(0))
            b.addi(0, 0, 1)
            b.branch(ControlOp.BLT, 0, 1, "top")
            b.halt()
            array.load_pe(position, b.finish(), [increment])

        b = ControlBuilder()
        for pe_index in range(4):
            b.set_unit(pe_index, 1)
        b.li(areg(1), 4)
        b.label("push")
        b.mv(OUT_PORT, ibuf(0, indirect=True))
        b.addi(0, 0, 1)
        b.branch(ControlOp.BLT, 0, 1, "push")
        b.li(areg(2), 0)
        b.label("pop")
        b.mv(obuf(2, indirect=True), IN_PORT)
        b.addi(2, 2, 1)
        b.addi(3, 3, 1)
        b.branch(ControlOp.BLT, 3, 1, "pop")
        b.halt()
        array.load_array_control(b.finish())

        run_array(array)
        assert array.done
        # Each word passed 4 incrementing PEs.
        assert array.obuf.dump(0, 4) == [14, 24, 34, 44]

    def test_fifo_preload_by_array(self):
        array = PEArray()
        array.load_pe(0, [mv(reg(1), FIFO_PORT), halt()], [])
        array.load_array_control([li(FIFO_PORT, 77), set_unit(0, 1), halt()])
        run_array(array)
        assert array.pes[0].rf.read(1) == 77

    def test_stats_merge(self):
        array = PEArray()
        array.load_pe(0, [li(reg(0), 1), halt()], [])
        array.load_array_control([set_unit(0, 1), halt()])
        run_array(array)
        stats = array.merged_pe_stats()
        assert stats.control_executed >= 2
