"""Static ISA verification of compiled programs.

DPMap's output is only useful if it is *legal for the machine*: a
VLIW bundle that puts a 4-input comparison on the 2-input right ALU,
reads a register the program never wrote, or addresses past the
register file would execute "fine" in a permissive functional model
while the hardware it models mis-executes or faults.  This module
machine-encodes the DPAx constraints (Sections 4.2-4.4, Table 4) and
checks every program against them, reporting structured
:class:`Violation` records instead of asserting -- so callers can
reject, log, count, or surface them in job error envelopes.

Three entry points:

- :func:`check_program` -- any compute program carrying
  ``instructions`` / ``input_regs`` / ``output_regs`` (both
  :class:`~repro.dpmap.codegen.CellProgram` and the engine's picklable
  :class:`~repro.engine.cache.CompiledProgram` qualify);
- :func:`check_instructions` -- the raw bundle list plus register maps;
- :func:`check_control_program` -- Table 3 control streams: scratchpad
  / register direct-address bounds, address-register bounds, branch
  and ``set`` ranges, port directionality (``in`` is read-only,
  ``out`` is write-only at PE scope), and computed-offset scratchpad
  windows via the static layer's address-register interval analysis.

In SIMD-lane mode (``MachineLimits.simd_lanes > 1``) the
read-before-write analysis additionally refines to *sub-lanes*: the
pack shifts move register halves, so a register can be partially
defined, and a lane-wise opcode reading sign-smeared lanes is flagged
(``simd-lane-undefined``).

The limits themselves live in one place per layer --
:mod:`repro.isa.compute` for the CU shape, :mod:`repro.dpax.pe` for
storage sizes -- so the verifier can never drift from the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datapath import DEFAULT_RF_SIZE, INT32_MAX, INT32_MIN
from repro.dfg.graph import FOUR_INPUT_OPCODES, OPCODE_ARITY, Opcode
from repro.diagnostics import Diagnostic, Severity
from repro.isa.compute import (
    CUInstruction,
    Imm,
    LEFT_ALU_MAX_OPERANDS,
    MUL_MAX_OPERANDS,
    Reg,
    RIGHT_ALU_MAX_OPERANDS,
    SlotOp,
    TREE_ALU_SLOTS,
    VLIW_WAYS,
    VLIWInstruction,
)
from repro.isa.control import (
    BRANCH_OPS,
    ControlInstruction,
    ControlOp,
    Loc,
    Space,
)

#: Opcodes that never appear in a compute slot (control-flow artifacts).
_NON_COMPUTE = frozenset({Opcode.NOP, Opcode.HALT})


@dataclass(frozen=True)
class MachineLimits:
    """The machine shape a program is verified against.

    Defaults are the paper's DPAx configuration; mappings that size a
    larger register file (e.g. the single-PE POA program's 96-entry
    RF) pass their own limits.
    """

    rf_size: int = DEFAULT_RF_SIZE
    spm_size: int = 2048
    address_registers: int = 16
    #: 1 = scalar int32; 4 = four 8-bit saturating lanes.  Immediates
    #: broadcast to every lane, so they must fit one lane.
    simd_lanes: int = 1

    @property
    def imm_bounds(self) -> Tuple[int, int]:
        if self.simd_lanes == 1:
            return INT32_MIN, INT32_MAX
        bits = 32 // self.simd_lanes
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


#: Verifier findings are :class:`repro.diagnostics.Diagnostic` records
#: (severity defaults to ``ERROR`` -- an illegal program is never
#: advisory), so ``gendp-lint`` and the verifier share one schema.
Violation = Diagnostic


class ProgramVerificationError(ValueError):
    """A program failed static verification; carries the violations."""

    def __init__(self, violations: Sequence[Violation], name: str = "program"):
        self.violations: Tuple[Violation, ...] = tuple(violations)
        summary = "; ".join(str(v) for v in self.violations[:3])
        extra = len(self.violations) - 3
        if extra > 0:
            summary += f" (+{extra} more)"
        super().__init__(f"{name} failed static verification: {summary}")


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of one static check; truthy when the program is legal."""

    violations: Tuple[Violation, ...]
    name: str = "program"

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def raise_if_violations(self) -> "VerificationResult":
        if self.violations:
            raise ProgramVerificationError(self.violations, name=self.name)
        return self


# ----------------------------------------------------------------------
# compute (VLIW) programs


def _check_slot(
    slot: SlotOp,
    max_operands: int,
    where: Dict[str, object],
    out: List[Violation],
) -> None:
    opcode = slot.opcode
    if opcode in _NON_COMPUTE:
        out.append(
            Violation(
                rule="non-compute-opcode",
                message=f"{opcode.value} is not executable in an ALU slot",
                **where,
            )
        )
        return
    arity = OPCODE_ARITY.get(opcode)
    if arity is None:
        out.append(
            Violation(
                rule="unknown-opcode",
                message=f"opcode {opcode!r} has no defined arity",
                **where,
            )
        )
        return
    if len(slot.operands) != arity:
        out.append(
            Violation(
                rule="arity-mismatch",
                message=(
                    f"{opcode.value} expects {arity} operands, "
                    f"got {len(slot.operands)}"
                ),
                **where,
            )
        )
    if arity > max_operands:
        out.append(
            Violation(
                rule="slot-operand-overflow",
                message=(
                    f"{opcode.value} needs {arity} operands but the slot "
                    f"wires only {max_operands}"
                ),
                **where,
            )
        )


def _slot_reads(slot: Optional[SlotOp]) -> List[int]:
    if slot is None:
        return []
    return [op.index for op in slot.operands if isinstance(op, Reg)]


def _slot_imms(slot: Optional[SlotOp]) -> List[int]:
    if slot is None:
        return []
    return [op.value for op in slot.operands if isinstance(op, Imm)]


#: Cross-lane pack/unpack shifts: the only opcodes allowed to read a
#: partially-defined register in SIMD-lane mode.  They move register
#: halves deliberately; every other opcode operates lane-wise and
#: would consume garbage lanes.
_PACK_SHIFTS = frozenset({Opcode.SHL16, Opcode.SHR16})


def _undefined_lanes(mask: int, lanes: int) -> List[int]:
    return [lane for lane in range(lanes) if not mask & (1 << lane)]


def _shifted_mask(opcode: Opcode, mask: int, lanes: int) -> int:
    """Defined-lane mask after a 16-bit pack shift.

    ``SHL16`` fills the low half with zeros (defined) and promotes the
    old low half; ``SHR16`` demotes the old high half and smears the
    sign bit across the new high half -- sign smear is not lane data,
    so those lanes come out undefined.
    """
    half = lanes // 2
    full = (1 << lanes) - 1
    if opcode is Opcode.SHL16:
        return ((mask << half) & full) | ((1 << half) - 1)
    return mask >> half


def _slot_lane_mask(
    slot: Optional[SlotOp],
    masks: Dict[int, int],
    lanes: int,
    where: Dict[str, object],
    out: List[Violation],
) -> Optional[int]:
    """Defined-lane bitmask of one ALU slot's output (bit i = lane i).

    Immediates broadcast to every lane, so they are fully defined;
    untracked registers default to fully defined (``read-before-write``
    already covers never-written registers -- this pass only adds the
    sub-lane refinement).
    """
    if slot is None:
        return None
    full = (1 << lanes) - 1
    operand_masks = [
        full if isinstance(op, Imm) else masks.get(op.index, full)
        for op in slot.operands
    ]
    if slot.opcode in _PACK_SHIFTS:
        mask = operand_masks[0] if operand_masks else full
        return _shifted_mask(slot.opcode, mask, lanes)
    result = full
    for op, mask in zip(slot.operands, operand_masks):
        if isinstance(op, Reg) and mask != full:
            out.append(
                Violation(
                    rule="simd-lane-undefined",
                    message=(
                        f"{slot.opcode.value} reads r{op.index} whose "
                        f"lane(s) {_undefined_lanes(mask, lanes)} are "
                        f"undefined in {lanes}-lane mode (a pack shift "
                        "left them holding sign smear, not lane data)"
                    ),
                    **where,
                )
            )
        result &= mask
    return result


def _check_lane_definedness(
    instructions: Sequence[VLIWInstruction],
    input_regs: Dict[str, int],
    limits: MachineLimits,
    out: List[Violation],
) -> None:
    """SIMD sub-lane extension of the read-before-write analysis.

    The scalar pass tracks whole registers; in lane mode a register
    can be *partially* defined -- ``SHR16`` moves only the high half
    of its operand into the low half of its result and sign-smears the
    rest.  This pass tracks which lanes of each register hold real
    data (inputs arrive fully packed) and flags any lane-wise opcode
    reading lanes nothing defined.  Evaluation mirrors the functional
    model (mul slot, else leaf slots then tree root), and as in the
    scalar pass reads see the pre-bundle register image.
    """
    lanes = limits.simd_lanes
    full = (1 << lanes) - 1
    masks: Dict[int, int] = {
        index: full
        for index in input_regs.values()
        if 0 <= index < limits.rf_size
    }
    for bundle_index, bundle in enumerate(instructions):
        writes: Dict[int, int] = {}
        for way_index, way in enumerate(bundle.ways):
            where = {"bundle": bundle_index, "way": f"cu{way_index}"}
            if way.kind == "mul":
                result = _slot_lane_mask(way.mul, masks, lanes, where, out)
            else:
                left = _slot_lane_mask(way.left, masks, lanes, where, out)
                right = _slot_lane_mask(way.right, masks, lanes, where, out)
                if way.root is None:
                    result = left if way.left is not None else right
                elif way.root in _PACK_SHIFTS:
                    mask = full if left is None else left
                    result = _shifted_mask(way.root, mask, lanes)
                else:
                    result = full
                    for leaf, leaf_mask in (("left", left), ("right", right)):
                        if leaf_mask is None:
                            continue
                        if leaf_mask != full:
                            out.append(
                                Violation(
                                    rule="simd-lane-undefined",
                                    message=(
                                        f"{way.root.value} root consumes "
                                        f"the {leaf} leaf output with "
                                        "undefined lane(s) "
                                        f"{_undefined_lanes(leaf_mask, lanes)}"
                                        f" in {lanes}-lane mode"
                                    ),
                                    **where,
                                )
                            )
                        result &= leaf_mask
            if 0 <= way.dest.index < limits.rf_size:
                writes[way.dest.index] = full if result is None else result
        masks.update(writes)


def _check_way(
    way: CUInstruction,
    bundle_index: int,
    label: str,
    limits: MachineLimits,
    out: List[Violation],
) -> None:
    where = {"bundle": bundle_index, "way": label}
    if way.kind == "mul":
        if way.mul is None or way.mul.opcode is not Opcode.MUL:
            out.append(
                Violation(
                    rule="malformed-mul-way",
                    message="mul way must carry exactly a MUL slot op",
                    **where,
                )
            )
        else:
            _check_slot(way.mul, MUL_MAX_OPERANDS, where, out)
        for slot in (way.left, way.right):
            if slot is not None:
                out.append(
                    Violation(
                        rule="mul-way-tree-slot",
                        message="mul way must leave the tree slots empty",
                        **where,
                    )
                )
        if way.root is not None:
            out.append(
                Violation(
                    rule="mul-way-tree-slot",
                    message="mul way must leave the root empty",
                    **where,
                )
            )
        return
    if way.kind != "tree":
        out.append(
            Violation(
                rule="unknown-way-kind",
                message=f"CU way kind {way.kind!r} is not tree or mul",
                **where,
            )
        )
        return
    if way.left is None and way.right is None:
        out.append(
            Violation(
                rule="empty-tree-way",
                message="tree way must populate at least one leaf ALU",
                **where,
            )
        )
        return
    if way.mul is not None:
        out.append(
            Violation(
                rule="mul-in-tree-way",
                message="tree way must not also drive the multiplier",
                **where,
            )
        )
    if way.left is not None:
        _check_slot(way.left, LEFT_ALU_MAX_OPERANDS, where, out)
        if way.left.opcode is Opcode.MUL:
            out.append(
                Violation(
                    rule="mul-in-tree-slot",
                    message="MUL runs on the standalone multiplier, "
                    "not a tree ALU",
                    **where,
                )
            )
    if way.right is not None:
        _check_slot(way.right, RIGHT_ALU_MAX_OPERANDS, where, out)
        if way.right.opcode in FOUR_INPUT_OPCODES:
            out.append(
                Violation(
                    rule="four-input-op-on-right-alu",
                    message=(
                        f"{way.right.opcode.value} needs the 4-input "
                        "datapath; only the left ALU has it"
                    ),
                    **where,
                )
            )
        if way.right.opcode is Opcode.MUL:
            out.append(
                Violation(
                    rule="mul-in-tree-slot",
                    message="MUL runs on the standalone multiplier, "
                    "not a tree ALU",
                    **where,
                )
            )
    if way.root is not None:
        if way.root in FOUR_INPUT_OPCODES or way.root is Opcode.MUL:
            out.append(
                Violation(
                    rule="illegal-root-opcode",
                    message=(
                        f"{way.root.value} cannot be the tree root "
                        "(2-input ALU only)"
                    ),
                    **where,
                )
            )
        else:
            root_arity = OPCODE_ARITY[way.root]
            if root_arity == 2 and (way.left is None or way.right is None):
                out.append(
                    Violation(
                        rule="root-missing-leaf",
                        message="a 2-input root needs both leaf outputs",
                        **where,
                    )
                )
            if root_arity == 1 and way.left is None:
                out.append(
                    Violation(
                        rule="root-missing-leaf",
                        message="a 1-input root reads the left leaf output",
                        **where,
                    )
                )
    occupied = sum(
        1 for slot in (way.left, way.right) if slot is not None
    ) + (1 if way.root is not None else 0)
    if occupied > TREE_ALU_SLOTS:
        out.append(
            Violation(
                rule="tree-alu-overflow",
                message=(
                    f"way occupies {occupied} ALU slots; the 2-level tree "
                    f"has {TREE_ALU_SLOTS}"
                ),
                **where,
            )
        )


def check_instructions(
    instructions: Sequence[VLIWInstruction],
    input_regs: Dict[str, int],
    output_regs: Dict[str, int],
    limits: Optional[MachineLimits] = None,
) -> List[Violation]:
    """Every CU-shape, register-bound and dataflow violation in order."""
    limits = limits or MachineLimits()
    out: List[Violation] = []
    imm_lo, imm_hi = limits.imm_bounds

    # Input register map: in-bounds and collision-free.
    seen: Dict[int, str] = {}
    for name, index in sorted(input_regs.items()):
        if not 0 <= index < limits.rf_size:
            out.append(
                Violation(
                    rule="rf-input-out-of-range",
                    message=(
                        f"input {name!r} at r{index}; register file holds "
                        f"{limits.rf_size} entries"
                    ),
                )
            )
        if index in seen:
            out.append(
                Violation(
                    rule="input-register-collision",
                    message=(
                        f"inputs {seen[index]!r} and {name!r} share r{index}"
                    ),
                )
            )
        else:
            seen[index] = name

    written = {
        index for index in input_regs.values() if 0 <= index < limits.rf_size
    }
    for bundle_index, bundle in enumerate(instructions):
        ways = list(bundle.ways)
        if not ways:
            out.append(
                Violation(
                    rule="empty-bundle",
                    message="VLIW bundle issues no CU way",
                    bundle=bundle_index,
                )
            )
            continue
        if len(ways) > VLIW_WAYS:
            out.append(
                Violation(
                    rule="vliw-way-overflow",
                    message=f"bundle issues {len(ways)} ways; PE has "
                    f"{VLIW_WAYS} CUs",
                    bundle=bundle_index,
                )
            )
        labels = ["cu0", "cu1"] + [
            f"cu{i}" for i in range(2, len(ways))
        ]
        dests: Dict[int, str] = {}
        for way, label in zip(ways, labels):
            where = {"bundle": bundle_index, "way": label}
            _check_way(way, bundle_index, label, limits, out)
            # Destination: one RF write port per CU.
            if not 0 <= way.dest.index < limits.rf_size:
                out.append(
                    Violation(
                        rule="rf-write-out-of-range",
                        message=(
                            f"dest r{way.dest.index}; register file holds "
                            f"{limits.rf_size} entries"
                        ),
                        **where,
                    )
                )
            if way.dest.index in dests:
                out.append(
                    Violation(
                        rule="same-bundle-write-conflict",
                        message=(
                            f"r{way.dest.index} written by {dests[way.dest.index]} "
                            f"and {label} in one cycle (one RF write port "
                            "per CU)"
                        ),
                        **where,
                    )
                )
            else:
                dests[way.dest.index] = label
            # Operand reads: in-bounds and defined before use.  Reads
            # see the pre-bundle RF image (both CUs issue together), so
            # "written" updates only after the whole bundle is checked.
            for slot in (way.left, way.right, way.mul):
                for reg_index in _slot_reads(slot):
                    if not 0 <= reg_index < limits.rf_size:
                        out.append(
                            Violation(
                                rule="rf-read-out-of-range",
                                message=(
                                    f"reads r{reg_index}; register file "
                                    f"holds {limits.rf_size} entries"
                                ),
                                **where,
                            )
                        )
                    elif reg_index not in written:
                        out.append(
                            Violation(
                                rule="read-before-write",
                                message=(
                                    f"reads r{reg_index} before any input "
                                    "or earlier bundle wrote it"
                                ),
                                **where,
                            )
                        )
                for imm in _slot_imms(slot):
                    if not imm_lo <= imm <= imm_hi:
                        out.append(
                            Violation(
                                rule="immediate-out-of-range",
                                message=(
                                    f"immediate {imm} outside "
                                    f"[{imm_lo}, {imm_hi}] "
                                    f"({limits.simd_lanes}-lane mode)"
                                ),
                                **where,
                            )
                        )
        written.update(
            index for index in dests if 0 <= index < limits.rf_size
        )

    if limits.simd_lanes > 1:
        _check_lane_definedness(instructions, input_regs, limits, out)

    for name, index in sorted(output_regs.items()):
        if not 0 <= index < limits.rf_size:
            out.append(
                Violation(
                    rule="rf-output-out-of-range",
                    message=(
                        f"output {name!r} at r{index}; register file holds "
                        f"{limits.rf_size} entries"
                    ),
                )
            )
        elif index not in written:
            out.append(
                Violation(
                    rule="output-never-written",
                    message=f"output {name!r} reads r{index}, which no "
                    "bundle writes",
                )
            )
    return out


def check_program(
    program: object,
    limits: Optional[MachineLimits] = None,
    name: Optional[str] = None,
) -> VerificationResult:
    """Statically verify any compute program-shaped object.

    Works on :class:`~repro.dpmap.codegen.CellProgram` and the engine's
    :class:`~repro.engine.cache.CompiledProgram` alike -- anything with
    ``instructions``, ``input_regs`` and ``output_regs``.
    """
    label = name or getattr(program, "kernel", None) or "program"
    violations = check_instructions(
        list(program.instructions),
        dict(program.input_regs),
        dict(program.output_regs),
        limits,
    )
    return VerificationResult(violations=tuple(violations), name=str(label))


# ----------------------------------------------------------------------
# control (Table 3) programs


def _check_loc(
    loc: Loc,
    role: str,
    index: int,
    limits: MachineLimits,
    out: List[Violation],
) -> None:
    if loc.indirect:
        if not 0 <= loc.index < limits.address_registers:
            out.append(
                Violation(
                    rule="address-register-out-of-range",
                    message=(
                        f"{role} indirects through a{loc.index}; decoder has "
                        f"{limits.address_registers} address registers"
                    ),
                    bundle=index,
                )
            )
        return
    if loc.space is Space.REG and not 0 <= loc.index < limits.rf_size:
        out.append(
            Violation(
                rule="rf-bound",
                message=f"{role} addresses r{loc.index}; register file "
                f"holds {limits.rf_size} entries",
                bundle=index,
            )
        )
    if loc.space is Space.SPM and not 0 <= loc.index < limits.spm_size:
        out.append(
            Violation(
                rule="spm-bound",
                message=f"{role} addresses s{loc.index}; scratchpad holds "
                f"{limits.spm_size} words",
                bundle=index,
            )
        )
    if loc.space is Space.ADDR and not 0 <= loc.index < limits.address_registers:
        out.append(
            Violation(
                rule="address-register-out-of-range",
                message=(
                    f"{role} addresses a{loc.index}; decoder has "
                    f"{limits.address_registers} address registers"
                ),
                bundle=index,
            )
        )


def check_control_program(
    instructions: Sequence[ControlInstruction],
    limits: Optional[MachineLimits] = None,
    compute_length: Optional[int] = None,
) -> List[Violation]:
    """Static bounds/port checks for a Table 3 control stream.

    Checks direct scratchpad / register-file / address-register
    addressing against the storage sizes, branch offsets against the
    program extent, ``set`` launch ranges against *compute_length*
    (when known), and port directionality: ``in`` is a read-only
    stream, ``out`` write-only.
    """
    limits = limits or MachineLimits()
    out: List[Violation] = []
    length = len(instructions)
    for index, instruction in enumerate(instructions):
        op = instruction.op
        for role, loc in (("dest", instruction.dest), ("src", instruction.src)):
            if loc is None:
                continue
            _check_loc(loc, role, index, limits, out)
        if instruction.dest is not None and instruction.dest.space is Space.IN:
            out.append(
                Violation(
                    rule="port-direction",
                    message="`in` is a read-only port; it cannot be a "
                    "destination",
                    bundle=index,
                )
            )
        if instruction.src is not None and instruction.src.space is Space.OUT:
            out.append(
                Violation(
                    rule="port-direction",
                    message="`out` is a write-only port; it cannot be a "
                    "source",
                    bundle=index,
                )
            )
        for role, areg_index in (
            ("rd", instruction.rd),
            ("rs1", instruction.rs1),
            ("rs2", instruction.rs2),
        ):
            if areg_index is None:
                continue
            if not 0 <= areg_index < limits.address_registers:
                out.append(
                    Violation(
                        rule="address-register-out-of-range",
                        message=(
                            f"{role}=a{areg_index}; decoder has "
                            f"{limits.address_registers} address registers"
                        ),
                        bundle=index,
                    )
                )
        if op in BRANCH_OPS and instruction.offset is not None:
            target = index + instruction.offset
            if not 0 <= target < length:
                out.append(
                    Violation(
                        rule="branch-out-of-range",
                        message=(
                            f"branch to instruction {target}; program has "
                            f"{length} instructions"
                        ),
                        bundle=index,
                    )
                )
        if (
            op is ControlOp.SET
            and compute_length is not None
            and instruction.target is not None
            and instruction.count is not None
        ):
            end = instruction.target + instruction.count
            if instruction.target < 0 or end > compute_length:
                out.append(
                    Violation(
                        rule="set-range-out-of-range",
                        message=(
                            f"set launches compute [{instruction.target}, "
                            f"{end}); program has {compute_length} bundles"
                        ),
                        bundle=index,
                    )
                )

    # Computed (indirect) scratchpad offsets.  The direct checks above
    # see only literal indices; an indirect access walks wherever its
    # address register points.  The static layer's interval analysis
    # bounds every address register at every instruction, turning "this
    # access can only land past the scratchpad" into an error and "no
    # write window can reach this read window" into a warning (windows
    # are joined over all paths, so loops stay sound).
    from repro.static.hazards import control_spm_diagnostics

    out.extend(
        diagnostic
        for diagnostic in control_spm_diagnostics(instructions, limits.spm_size)
        if diagnostic.severity >= Severity.WARNING
    )
    return out
