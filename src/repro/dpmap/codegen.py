"""Compute-instruction emission from a DPMap result.

Turns the mapped components of a cell's objective function into the
2-way VLIW program the PE's compute thread executes: one CU way per
component, bundled per the list schedule.  Also produces the register
allocation -- which RF address holds each DFG input and each spilled
intermediate -- which the control-program generators and the simulator
share.

The emitted program is verified against the DFG interpreter by
:func:`verify_program` (and by tests): executing the VLIW program on an
RF image preloaded with the cell inputs must reproduce the DFG's
outputs bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dfg.graph import (
    FOUR_INPUT_OPCODES,
    OPCODE_ARITY,
    DataFlowGraph,
    Opcode,
    _apply,
)
from repro.dpmap.mapper import DPMapResult, run_dpmap
from repro.dpmap.mgraph import Component, MappingGraph, Source
from repro.isa.compute import CUInstruction, Imm, Operand, Reg, SlotOp, VLIWInstruction


class RegisterOverflowError(ValueError):
    """A program's register allocation exceeds the PE register file."""


@dataclass
class CellProgram:
    """A cell update compiled to VLIW compute instructions.

    ``input_regs`` maps DFG input names to RF addresses the control
    thread must fill before issuing the program; ``output_regs`` maps
    DFG output names to the RF addresses holding results afterwards.
    """

    mapping: DPMapResult
    instructions: List[VLIWInstruction]
    input_regs: Dict[str, int]
    output_regs: Dict[str, int]
    #: node id -> RF address, for every RF-written node
    node_regs: Dict[int, int] = field(default_factory=dict)

    @property
    def register_count(self) -> int:
        """RF entries the program touches (for RF sizing)."""
        used = set(self.input_regs.values()) | set(self.node_regs.values())
        return max(used) + 1 if used else 0

    def content_hash(self) -> str:
        """Digest of the full instruction encoding and register maps.

        Unlike :meth:`repro.dfg.graph.DataFlowGraph.content_hash`
        (which identifies the *computation*), this identifies the
        *emitted program*: two programs for the same DFG that differ
        in any slot, operand, bundling or register assignment -- an
        optimized program versus its unoptimized original, say --
        hash differently.
        """
        return program_content_hash(
            self.instructions, self.input_regs, self.output_regs
        )


def program_content_hash(
    instructions: Sequence[VLIWInstruction],
    input_regs: Dict[str, int],
    output_regs: Dict[str, int],
) -> str:
    """SHA-256 over a program's exact instruction encoding.

    ``VLIWInstruction.text()`` is an unambiguous rendering of every
    slot, opcode, operand and root flag, so the digest covers the full
    encoding; the register maps pin down the load/store contract.
    Shared by :meth:`CellProgram.content_hash` and the engine's
    :class:`~repro.engine.cache.CompiledProgram` so both layers agree
    on program identity.
    """
    parts = [bundle.text() for bundle in instructions]
    parts.append(
        "in:" + ",".join(f"{k}={v}" for k, v in sorted(input_regs.items()))
    )
    parts.append(
        "out:" + ",".join(f"{k}={v}" for k, v in sorted(output_regs.items()))
    )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def compile_cell(dfg: DataFlowGraph, strict: bool = False) -> CellProgram:
    """Map *dfg* with DPMap (2-level CU) and emit its VLIW program.

    With ``strict=True`` the emitted program is additionally checked by
    the static ISA verifier (:mod:`repro.guard.verifier`) and a
    :class:`~repro.guard.verifier.ProgramVerificationError` carrying
    structured violations is raised if it is illegal for the machine.
    """
    mapping = run_dpmap(dfg, levels=2)
    return emit(mapping, strict=strict)


def emit(mapping: DPMapResult, strict: bool = False) -> CellProgram:
    """Emit VLIW instructions from a 2-level DPMap result."""
    if mapping.stats.levels != 2:
        raise ValueError("instruction emission targets the 2-level CU only")
    graph = mapping.graph

    # Register allocation: inputs first, then every RF-written node.
    input_regs = {name: index for index, name in enumerate(mapping.dfg.inputs)}
    next_reg = len(input_regs)
    node_regs: Dict[int, int] = {}
    for component in mapping.components:
        root = component.node_ids[-1]
        node_regs[root] = next_reg
        next_reg += 1

    ways: List[CUInstruction] = []
    for component in mapping.components:
        ways.append(_emit_component(graph, component, input_regs, node_regs))

    bundles: List[VLIWInstruction] = []
    for issue in mapping.schedule:
        cu0 = ways[issue[0]]
        cu1 = ways[issue[1]] if len(issue) > 1 else None
        bundle = VLIWInstruction(cu0=cu0, cu1=cu1)
        bundle.validate()
        bundles.append(bundle)

    output_regs = {}
    for name, node_id in graph.outputs.items():
        if node_id not in node_regs:
            raise AssertionError(f"output {name!r} was never written to the RF")
        output_regs[name] = node_regs[node_id]
    program = CellProgram(
        mapping=mapping,
        instructions=bundles,
        input_regs=input_regs,
        output_regs=output_regs,
        node_regs=node_regs,
    )
    if strict:
        # Imported lazily: the verifier consumes programs (this module's
        # output), so a top-level import would be circular.
        from repro.guard.verifier import check_program

        check_program(program).raise_if_violations()
    return program


def _resolve(
    source: Source, input_regs: Dict[str, int], node_regs: Dict[int, int]
) -> Operand:
    """A working-graph operand source to an instruction operand."""
    if source.const_value is not None:
        return Imm(source.const_value)
    if source.input_name is not None:
        return Reg(input_regs[source.input_name])
    if source.producer is not None and not source.via_edge:
        return Reg(node_regs[source.producer])
    raise AssertionError("kept-edge operand resolved as an RF read")


def _emit_component(
    graph: MappingGraph,
    component: Component,
    input_regs: Dict[str, int],
    node_regs: Dict[int, int],
) -> CUInstruction:
    """One component to one CU way (mul, single op, pair or full tree)."""
    root_id = component.node_ids[-1]
    dest = Reg(node_regs[root_id])
    members = set(component.node_ids)

    if len(component) == 1:
        node = graph.nodes[root_id]
        operands = tuple(
            _resolve(source, input_regs, node_regs) for source in node.sources
        )
        if node.opcode is Opcode.MUL:
            return CUInstruction(
                kind="mul", dest=dest, mul=SlotOp(Opcode.MUL, operands)
            )
        slot = SlotOp(node.opcode, operands)
        if node.opcode in FOUR_INPUT_OPCODES:
            return CUInstruction(kind="tree", dest=dest, left=slot)
        return CUInstruction(kind="tree", dest=dest, right=slot)

    # Multi-node component: leaves at level 1, root at level 2.
    leaves = [
        node_id
        for node_id in component.node_ids
        if not [p for p in graph.via_parents(node_id) if p in members]
    ]
    root = graph.nodes[root_id]
    if root_id in leaves or len(leaves) > 2:
        raise AssertionError(f"component {component.node_ids} is not a 2-level tree")

    leaf_slots: Dict[int, SlotOp] = {}
    for leaf_id in leaves:
        leaf = graph.nodes[leaf_id]
        operands = tuple(
            _resolve(source, input_regs, node_regs) for source in leaf.sources
        )
        leaf_slots[leaf_id] = SlotOp(leaf.opcode, operands)

    # The root's operands, in DFG order: internal leaf outputs and/or an
    # RF operand ferried through a synthesized COPY.
    ordered: List[Tuple[str, object]] = []  # ("leaf", id) or ("copy", SlotOp)
    for source in root.sources:
        if source.producer is not None and source.via_edge:
            ordered.append(("leaf", source.producer))
        else:
            operand = _resolve(source, input_regs, node_regs)
            ordered.append(("copy", SlotOp(Opcode.COPY, (operand,))))

    if len(ordered) == 1:
        kind, payload = ordered[0]
        left = leaf_slots[payload] if kind == "leaf" else payload
        return CUInstruction(
            kind="tree", dest=dest, left=left, root=root.opcode
        )
    if len(ordered) != 2:
        raise AssertionError("tree root must have one or two operands")

    slots: List[SlotOp] = [
        leaf_slots[payload] if kind == "leaf" else payload
        for kind, payload in ordered
    ]
    # The 4-input op (if any) must sit in the left ALU.
    swapped = False
    if slots[1].opcode in FOUR_INPUT_OPCODES:
        slots = [slots[1], slots[0]]
        swapped = True
    return CUInstruction(
        kind="tree",
        dest=dest,
        left=slots[0],
        right=slots[1],
        root=root.opcode,
        root_swapped=swapped,
    )


def offset_cell_program(
    program: CellProgram, base: int, rf_size: Optional[int] = None
) -> CellProgram:
    """Rebase every register of *program* by *base*.

    Lets two independently compiled cell programs (e.g. POA's per-edge
    block and its combine block) share one PE register file: the second
    program's registers move past the first's allocation.

    The rebased allocation is checked against the register file it will
    run on -- *rf_size* when given, the default PE register file
    otherwise -- and :class:`RegisterOverflowError` is raised instead of
    emitting a program whose reads/writes would fault (or silently
    alias) at simulation time.
    """
    if base < 0:
        raise ValueError("register base must be non-negative")
    if rf_size is None:
        from repro.datapath import DEFAULT_RF_SIZE

        rf_size = DEFAULT_RF_SIZE
    highest = base + program.register_count - 1
    if program.register_count and highest >= rf_size:
        raise RegisterOverflowError(
            f"rebased program needs registers up to r{highest} but the "
            f"register file holds {rf_size} entries (base {base}, "
            f"program spans {program.register_count})"
        )

    def shift_operand(operand: Operand) -> Operand:
        if isinstance(operand, Reg):
            return Reg(operand.index + base)
        return operand

    def shift_slot(slot: Optional[SlotOp]) -> Optional[SlotOp]:
        if slot is None:
            return None
        return SlotOp(slot.opcode, tuple(shift_operand(op) for op in slot.operands))

    def shift_way(way: Optional[CUInstruction]) -> Optional[CUInstruction]:
        if way is None:
            return None
        return CUInstruction(
            kind=way.kind,
            dest=Reg(way.dest.index + base),
            left=shift_slot(way.left),
            right=shift_slot(way.right),
            root=way.root,
            mul=shift_slot(way.mul),
            root_swapped=way.root_swapped,
        )

    return CellProgram(
        mapping=program.mapping,
        instructions=[
            VLIWInstruction(cu0=shift_way(b.cu0), cu1=shift_way(b.cu1))
            for b in program.instructions
        ],
        input_regs={k: v + base for k, v in program.input_regs.items()},
        output_regs={k: v + base for k, v in program.output_regs.items()},
        node_regs={k: v + base for k, v in program.node_regs.items()},
    )


# ----------------------------------------------------------------------
# program-level interpretation (shared by tests and the PE simulator's
# compute stage)


def execute_way(
    way: CUInstruction,
    rf: Dict[int, int],
    match_table: Optional[Callable[[int, int], int]] = None,
    observe: Optional[Callable[[int], None]] = None,
) -> int:
    """Execute one CU way against a register-file image; returns value.

    *observe*, when given, is called with every intermediate ALU/MUL
    result *and* the way's final value -- the hook the guard's
    numerical sentinels use to watch for overflow mid-tree, where a
    wrapped value can cancel out before reaching any output register.
    """

    def run_slot(slot: SlotOp) -> int:
        args = [
            operand.value if isinstance(operand, Imm) else rf.get(operand.index, 0)
            for operand in slot.operands
        ]
        value = _apply(slot.opcode, args, match_table, None)
        if observe is not None:
            observe(value)
        return value

    if way.kind == "mul":
        return run_slot(way.mul)
    left_out = run_slot(way.left) if way.left is not None else None
    right_out = run_slot(way.right) if way.right is not None else None
    if way.root is None:
        return left_out if left_out is not None else right_out
    if OPCODE_ARITY[way.root] == 1:
        value = _apply(way.root, [left_out], match_table, None)
    else:
        inputs = [left_out, right_out]
        if way.root_swapped:
            inputs.reverse()
        value = _apply(way.root, inputs, match_table, None)
    if observe is not None:
        observe(value)
    return value


def run_program(
    program: CellProgram,
    inputs: Dict[str, int],
    match_table: Optional[Callable[[int, int], int]] = None,
    observe: Optional[Callable[[int], None]] = None,
) -> Dict[str, int]:
    """Execute a cell program on named inputs; returns named outputs.

    This is the functional model of the compute thread: load the RF,
    issue every bundle in order, read the output registers.
    """
    rf: Dict[int, int] = {}
    for name, reg_index in program.input_regs.items():
        if name not in inputs:
            raise KeyError(f"missing cell input {name!r}")
        rf[reg_index] = inputs[name]
    for bundle in program.instructions:
        results = [
            (way.dest.index, execute_way(way, rf, match_table, observe))
            for way in bundle.ways
        ]
        for dest_index, value in results:
            rf[dest_index] = value
    return {
        name: rf[reg_index] for name, reg_index in program.output_regs.items()
    }


@dataclass(frozen=True)
class CellMismatch:
    """One output where the mapped program diverged from the DFG."""

    output: str
    expected: int
    actual: int

    def to_dict(self) -> Dict[str, int]:
        return {
            "output": self.output,
            "expected": self.expected,
            "actual": self.actual,
        }


@dataclass(frozen=True)
class ProgramCheck:
    """Result of one program-vs-DFG differential check.

    Truthy exactly when the program reproduced every DFG output, so
    existing ``assert verify_program(...)`` call sites keep working;
    on divergence ``mismatches`` names each wrong output with the
    expected/actual pair (what the differential harness serializes
    into reproducers).
    """

    inputs: Dict[str, int]
    expected: Dict[str, int]
    actual: Dict[str, int]
    mismatches: Tuple[CellMismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __bool__(self) -> bool:
        return self.ok


def verify_program(
    program: CellProgram,
    inputs: Dict[str, int],
    match_table: Optional[Callable[[int, int], int]] = None,
) -> ProgramCheck:
    """Differentially check the mapped program against the DFG.

    Returns a :class:`ProgramCheck` that is truthy iff every output
    matched and otherwise details each mismatching output.
    """
    expected = program.mapping.dfg.evaluate(inputs, match_table=match_table)
    actual = run_program(program, inputs, match_table=match_table)
    mismatches = tuple(
        CellMismatch(output=name, expected=value, actual=actual.get(name))
        for name, value in expected.items()
        if actual.get(name) != value
    )
    return ProgramCheck(
        inputs=dict(inputs),
        expected=expected,
        actual=actual,
        mismatches=mismatches,
    )
