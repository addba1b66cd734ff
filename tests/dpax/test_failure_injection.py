"""Failure-injection tests: malformed programs must fail loudly.

A simulator that silently absorbs broken programs hides codegen bugs;
these tests pin down the error behavior of every guard rail.
"""

import pytest

from repro.dpax.pe import PE, PEConfig
from repro.dpax.pe_array import PEArray
from repro.dpax.storage import StorageError
from repro.isa.compute import CUInstruction, Imm, Reg, SlotOp, VLIWInstruction
from repro.dfg.graph import Opcode
from repro.isa.control import (
    ControlOp,
    IN_PORT,
    OUT_PORT,
    branch,
    halt,
    li,
    mv,
    reg,
    set_unit,
    spm,
)


def start(pe):
    pe.started = True
    return pe


class TestControlFailures:
    def test_branch_out_of_program_raises(self):
        pe = start(PE(0))
        pe.load([branch(ControlOp.BEQ, 0, 0, -5), halt()], [])
        with pytest.raises(StorageError):
            pe.step()

    def test_rf_index_out_of_range(self):
        pe = start(PE(0, PEConfig(rf_size=4)))
        pe.load([li(reg(9), 1), halt()], [])
        with pytest.raises(StorageError):
            pe.step()

    def test_spm_indirect_out_of_range(self):
        pe = start(PE(0, PEConfig(spm_size=8)))
        pe.aregs[1] = 99
        pe.load([mv(reg(0), spm(1, indirect=True)), halt()], [])
        with pytest.raises(StorageError):
            pe.step()

    def test_unwired_out_port_raises(self):
        pe = start(PE(0))  # no out_target wired
        pe.load([li(reg(0), 1), mv(OUT_PORT, reg(0)), halt()], [])
        pe.step()
        with pytest.raises(StorageError):
            pe.step()

    def test_unwired_fifo_raises(self):
        from repro.isa.control import FIFO_PORT

        pe = start(PE(0))
        pe.load([mv(reg(0), FIFO_PORT), halt()], [])
        with pytest.raises(StorageError):
            pe.step()

    def test_invalid_program_rejected_at_load(self):
        from repro.isa.control import ControlInstruction

        pe = PE(0)
        with pytest.raises(ValueError):
            pe.load([ControlInstruction(ControlOp.MV, dest=reg(0))], [])


class TestComputeFailures:
    def test_set_past_program_end(self):
        pe = start(PE(0))
        bundle = VLIWInstruction(
            cu0=CUInstruction(
                kind="tree", dest=Reg(0), right=SlotOp(Opcode.ADD, (Reg(0), Imm(1)))
            )
        )
        pe.load([set_unit(0, 2), halt()], [bundle])
        with pytest.raises(StorageError):
            pe.step()

    def test_rf_operand_out_of_range_raises_when_the_bundle_runs(self):
        # Register bounds are decided at decode time, but a bundle that
        # never issues must not fail the load: the fault surfaces on the
        # cycle the bundle runs, after the reads that precede it.
        pe = start(PE(0, PEConfig(rf_size=8)))
        bundle = VLIWInstruction(
            cu0=CUInstruction(
                kind="tree", dest=Reg(1), right=SlotOp(Opcode.ADD, (Reg(0), Reg(2)))
            ),
            cu1=CUInstruction(
                kind="tree", dest=Reg(3), right=SlotOp(Opcode.ADD, (Reg(0), Reg(9)))
            ),
        )
        pe.load([set_unit(0, 1), halt()], [bundle])
        pe.step()  # the set itself is fine
        with pytest.raises(StorageError, match="RF read out of range: 9"):
            pe.step()
        assert pe.stats.cycles == 2 and pe.stats.compute_bundles == 0
        assert (pe.rf.reads, pe.rf.writes) == (3, 0)

    def test_rf_destination_out_of_range_raises_when_the_bundle_runs(self):
        pe = start(PE(0, PEConfig(rf_size=8)))
        bundle = VLIWInstruction(
            cu0=CUInstruction(
                kind="tree", dest=Reg(1), right=SlotOp(Opcode.ADD, (Reg(0), Imm(5)))
            ),
            cu1=CUInstruction(
                kind="tree", dest=Reg(8), right=SlotOp(Opcode.ADD, (Reg(0), Imm(1)))
            ),
        )
        pe.load([set_unit(0, 1), halt()], [bundle])
        pe.step()
        with pytest.raises(StorageError, match="RF write out of range: 8"):
            pe.step()
        assert (pe.rf.reads, pe.rf.writes) == (2, 1)
        assert pe.rf.read(1) == 5  # the way before the fault committed

    def test_invalid_bundle_rejected_at_load(self):
        pe = PE(0)
        with pytest.raises(ValueError):
            pe.load([halt()], [VLIWInstruction()])


class TestDeadlockDetection:
    def test_starved_pe_reports_unfinished(self):
        # A PE waiting forever on an empty port: the run loop's cycle
        # cap turns the deadlock into a diagnosable outcome.
        array = PEArray()
        array.load_pe(0, [mv(reg(0), IN_PORT), halt()], [])
        array.load_array_control([set_unit(0, 1), halt()])
        for _ in range(200):
            array.step()
        assert not array.done
        assert array.pes[0].stats.control_stalls > 100

    def test_full_queue_backpressure_does_not_lose_data(self):
        # Producer pushes more than the queue holds while nobody pops:
        # it stalls rather than dropping words.
        array = PEArray()
        producer_program = [li(reg(0), 7)] + [
            mv(OUT_PORT, reg(0)) for _ in range(40)
        ] + [halt()]
        array.load_pe(0, producer_program, [])
        array.load_array_control([set_unit(0, 1), halt()])
        for _ in range(300):
            array.step()
        # PE1 never started; PE0 is stalled with a full queue.
        assert len(array.pes[1].in_queue) == array.pes[1].in_queue.capacity
        assert not array.pes[0].done
        assert array.pes[0].stats.control_stalls > 0
