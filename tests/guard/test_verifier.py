"""Static verifier: clean programs pass, corrupted programs are caught."""

import dataclasses

import pytest

from repro.dfg.graph import Opcode
from repro.diagnostics import Severity
from repro.dpmap.codegen import compile_cell
from repro.engine.cache import compile_program
from repro.engine.runners import build_dfg
from repro.guard.diff import DIFF_KERNELS, compile_kernel_programs
from repro.guard.verifier import (
    MachineLimits,
    ProgramVerificationError,
    check_control_program,
    check_instructions,
    check_program,
)
from repro.isa.compute import CUInstruction, Imm, Reg, SlotOp, VLIWInstruction
from repro.isa.control import (
    ControlOp,
    Loc,
    Space,
    addi,
    areg,
    branch,
    li,
    mv,
    set_unit,
    spm,
)


def _rules(result):
    return {violation.rule for violation in result.violations}


class TestCleanPrograms:
    def test_every_kernel_program_verifies(self):
        for kernel in DIFF_KERNELS:
            for name, program in compile_kernel_programs(kernel).named_cells():
                result = check_program(program, name=name)
                assert result.ok, [str(v) for v in result.violations]

    def test_compiled_engine_payload_verifies(self):
        compiled = compile_program("bsw", 2, build_dfg("bsw"))
        assert check_program(compiled).ok

    def test_result_is_truthy_when_clean(self):
        result = check_program(compile_cell(build_dfg("dtw")))
        assert result and result.ok
        result.raise_if_violations()  # no-op when clean


class TestCorruptedPrograms:
    def test_out_of_range_input_register(self):
        program = compile_cell(build_dfg("bsw"))
        program.input_regs[next(iter(program.input_regs))] = 4096
        result = check_program(program)
        assert not result.ok
        assert "rf-input-out-of-range" in _rules(result)

    def test_mutated_opcode_breaks_arity(self):
        program = compile_cell(build_dfg("dtw"))
        bundle = program.instructions[0]
        way = bundle.ways[0]
        slot = way.left if way.left is not None else way.right
        # Swap the slot's opcode for one of a different arity, keeping
        # the operands -- the classic bit-flipped-opcode corruption.
        wrong = Opcode.COPY if len(slot.operands) != 1 else Opcode.ADD
        corrupt_way = dataclasses.replace(
            way, left=SlotOp(wrong, slot.operands), right=None, root=None
        )
        program.instructions[0] = dataclasses.replace(bundle, cu0=corrupt_way, cu1=None)
        result = check_program(program)
        assert not result.ok
        assert "arity-mismatch" in _rules(result)

    def test_mul_smuggled_into_tree_slot(self):
        program = compile_cell(build_dfg("dtw"))
        bundle = program.instructions[0]
        way = bundle.ways[0]
        corrupt_way = dataclasses.replace(
            way,
            left=SlotOp(Opcode.MUL, (Reg(0), Reg(1))),
            right=None,
            root=None,
        )
        program.instructions[0] = dataclasses.replace(bundle, cu0=corrupt_way, cu1=None)
        result = check_program(program)
        assert "mul-in-tree-slot" in _rules(result)

    def test_read_before_write(self):
        program = compile_cell(build_dfg("dtw"))
        bundle = program.instructions[0]
        way = bundle.ways[0]
        # Reference a register no input and no earlier bundle defines.
        corrupt_way = dataclasses.replace(
            way, left=SlotOp(Opcode.ADD, (Reg(60), Reg(61))), right=None, root=None
        )
        program.instructions[0] = dataclasses.replace(bundle, cu0=corrupt_way, cu1=None)
        result = check_program(program)
        assert "read-before-write" in _rules(result)

    def test_immediate_outside_rails(self):
        program = compile_cell(build_dfg("dtw"))
        bundle = program.instructions[0]
        way = bundle.ways[0]
        input_reg = next(iter(program.input_regs.values()))
        corrupt_way = dataclasses.replace(
            way,
            left=SlotOp(Opcode.ADD, (Reg(input_reg), Imm(1 << 40))),
            right=None,
            root=None,
        )
        program.instructions[0] = dataclasses.replace(bundle, cu0=corrupt_way, cu1=None)
        result = check_program(program)
        assert "immediate-out-of-range" in _rules(result)

    def test_raise_if_violations_is_structured(self):
        program = compile_cell(build_dfg("bsw"))
        program.input_regs[next(iter(program.input_regs))] = 4096
        result = check_program(program, name="bsw")
        with pytest.raises(ProgramVerificationError) as excinfo:
            result.raise_if_violations()
        error = excinfo.value
        assert error.violations  # structured records, not a bare string
        record = error.violations[0].to_dict()
        assert record["rule"] == "rf-input-out-of-range"
        assert "bsw" in str(error)

    def test_simd_lane_tightens_immediate_rails(self):
        from repro.isa.compute import CUInstruction, VLIWInstruction

        bundle = VLIWInstruction(
            cu0=CUInstruction(
                kind="tree",
                dest=Reg(1),
                left=SlotOp(Opcode.ADD, (Reg(0), Imm(1 << 20))),
            )
        )
        # Fine at full scalar width, out of rails per 8-bit lane.
        assert not check_instructions([bundle], {"x": 0}, {"y": 1})
        lanes = MachineLimits(simd_lanes=4)
        violations = check_instructions([bundle], {"x": 0}, {"y": 1}, limits=lanes)
        assert any(v.rule == "immediate-out-of-range" for v in violations)


class TestCheckInstructions:
    def test_output_never_written(self):
        program = compile_cell(build_dfg("dtw"))
        violations = check_instructions(
            program.instructions,
            program.input_regs,
            dict(program.output_regs, phantom=63),
        )
        assert any(v.rule == "output-never-written" for v in violations)


class TestControlPrograms:
    def test_clean_control_program(self):
        instructions = [
            li(Loc(Space.ADDR, 0), 0),
            mv(Loc(Space.REG, 3), Loc(Space.SPM, 10)),
            mv(Loc(Space.OUT), Loc(Space.REG, 3)),
            branch(ControlOp.BNE, 0, 1, -2),
            set_unit(0, 4),
        ]
        assert not check_control_program(instructions, compute_length=8)

    def test_spm_and_rf_bounds(self):
        instructions = [mv(Loc(Space.REG, 999), Loc(Space.SPM, 99999))]
        rules = {v.rule for v in check_control_program(instructions)}
        assert "rf-bound" in rules and "spm-bound" in rules

    def test_port_direction(self):
        instructions = [
            mv(Loc(Space.IN), Loc(Space.REG, 0)),  # IN is read-only
            mv(Loc(Space.REG, 0), Loc(Space.OUT)),  # OUT is write-only
        ]
        rules = {v.rule for v in check_control_program(instructions)}
        assert rules == {"port-direction"}

    def test_branch_and_set_ranges(self):
        instructions = [
            branch(ControlOp.BEQ, 0, 1, 99),  # jumps past the end
            set_unit(6, 4),  # 6..9 exceeds an 8-bundle program
        ]
        rules = {v.rule for v in check_control_program(instructions, compute_length=8)}
        assert "branch-out-of-range" in rules
        assert "set-range-out-of-range" in rules

    def test_address_register_bounds(self):
        instructions = [li(Loc(Space.ADDR, 99), 0)]
        rules = {v.rule for v in check_control_program(instructions)}
        assert "address-register-out-of-range" in rules


class TestComputedSpmOffsets:
    """The interval extension: indirect accesses the direct checks miss."""

    def test_indirect_write_past_scratchpad_is_error(self):
        # a0 = spm_size (one past the end), then write s[a0]: every
        # reachable address is out of bounds, but the direct `spm-bound`
        # check sees only the areg *name* and stays silent.
        instructions = [
            li(areg(0), 4096),
            mv(spm(0, indirect=True), Loc(Space.REG, 0)),
        ]
        violations = check_control_program(instructions)
        rules = {v.rule for v in violations}
        assert "spm-indirect-out-of-bounds" in rules
        assert all(v.severity == Severity.ERROR for v in violations)

    def test_indirect_read_of_unwritten_window_warns(self):
        # Reads s[a0] with a0 = 100 while the only write lands at s0.
        instructions = [
            li(areg(0), 100),
            li(spm(0), 7),
            mv(Loc(Space.REG, 1), spm(0, indirect=True)),
        ]
        violations = check_control_program(instructions)
        assert any(
            v.rule == "spm-read-before-write"
            and v.severity == Severity.WARNING
            for v in violations
        )

    def test_indirect_loop_within_bounds_is_clean(self):
        # A scripted loop walking s[a0] over a window it also writes.
        instructions = [
            li(areg(0), 0),
            li(areg(1), 8),
            li(spm(0, indirect=True), 0),
            mv(Loc(Space.REG, 2), spm(0, indirect=True)),
            addi(0, 0, 1),
            branch(ControlOp.BNE, 0, 1, -3),
        ]
        assert not check_control_program(instructions)


class TestSimdLaneDefinedness:
    """Sub-lane read-before-write: SHR16 sign smear is not lane data."""

    @staticmethod
    def _bundle(way):
        return VLIWInstruction(cu0=way)

    def test_lane_wise_read_of_shr16_smear_is_flagged(self):
        unpack = CUInstruction(
            kind="tree",
            dest=Reg(2),
            left=SlotOp(Opcode.SHR16, (Reg(0),)),
        )
        consume = CUInstruction(
            kind="tree",
            dest=Reg(3),
            left=SlotOp(Opcode.ADD, (Reg(2), Imm(1))),
        )
        bundles = [self._bundle(unpack), self._bundle(consume)]
        # Scalar mode: whole-register tracking sees r2 written -- clean.
        assert not check_instructions(bundles, {"x": 0}, {"y": 3})
        lanes = MachineLimits(simd_lanes=4)
        violations = check_instructions(bundles, {"x": 0}, {"y": 3}, limits=lanes)
        flagged = [v for v in violations if v.rule == "simd-lane-undefined"]
        assert flagged and flagged[0].bundle == 1

    def test_pack_after_unpack_restores_all_lanes(self):
        # SHL16(SHR16(x)) repacks the surviving half over defined zeros:
        # every lane of r3 is defined again, so the consumer is clean.
        unpack = CUInstruction(
            kind="tree",
            dest=Reg(2),
            left=SlotOp(Opcode.SHR16, (Reg(0),)),
        )
        repack = CUInstruction(
            kind="tree",
            dest=Reg(3),
            left=SlotOp(Opcode.SHL16, (Reg(2),)),
        )
        consume = CUInstruction(
            kind="tree",
            dest=Reg(4),
            left=SlotOp(Opcode.ADD, (Reg(3), Imm(1))),
        )
        bundles = [self._bundle(w) for w in (unpack, repack, consume)]
        lanes = MachineLimits(simd_lanes=4)
        assert not check_instructions(bundles, {"x": 0}, {"y": 4}, limits=lanes)

    def test_scalar_mode_is_unchanged(self):
        for kernel in DIFF_KERNELS:
            for name, program in compile_kernel_programs(kernel).named_cells():
                assert check_program(program, name=name).ok
