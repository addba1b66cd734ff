"""Instruction-level def/use model for compiled cell programs.

Cell programs are straight-line (one DP cell update, no control flow)
and DPMap's register allocation is SSA-like: every RF address is
written by at most one way and never aliases a kernel input.  That
makes classic dataflow analysis trivial and exact -- no CFG, no
fixpoints -- which is what every pass in :mod:`repro.opt.passes`
builds on:

- :func:`linearize` flattens the VLIW bundles into a def/use-ordered
  way list (:class:`LinearProgram`), verifying the SSA property;
- :func:`live_sets` runs backward liveness over the bundled program
  (what the dead-code and register-pressure analyses read);
- :func:`heights` / :func:`critical_path` give each way its longest
  path to a sink, the priority function of the VLIW re-packer.

Execution semantics matter here: both ways of a bundle read the
*pre-bundle* RF image (:func:`repro.dpmap.codegen.execute_way`), so a
consumer must sit in a strictly later bundle than its producer, and
flattening bundles in issue order yields a valid def-before-use
linear order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.dpmap.codegen import CellProgram
from repro.isa.compute import CUInstruction, Operand, SlotOp, VLIWInstruction
from repro.isa.values import NonSSAProgramError, check_ssa, way_reads


def way_slots(way: CUInstruction) -> List[SlotOp]:
    """The populated ALU/MUL slots of *way*, in datapath order."""
    if way.kind == "mul":
        return [way.mul] if way.mul is not None else []
    return [slot for slot in (way.left, way.right) if slot is not None]


def is_pure_copy(way: CUInstruction) -> Optional[Operand]:
    """The source operand if *way* just forwards one value, else None.

    A pure copy is a tree way with no root and a single COPY slot:
    ``dest`` takes the operand's value unchanged.  (Codegen emits
    these only as ferry slots inside trees, but passes create them
    when rewriting, and copy propagation erases them.)
    """
    from repro.dfg.graph import Opcode

    if way.kind != "tree" or way.root is not None:
        return None
    slots = way_slots(way)
    if len(slots) != 1 or slots[0].opcode is not Opcode.COPY:
        return None
    return slots[0].operands[0]


@dataclass
class LinearProgram:
    """A cell program flattened to a def/use-ordered way list.

    ``ways[i]`` only reads registers written by ``ways[:i]`` or listed
    in ``input_regs`` -- the invariant every pass preserves, and what
    the re-packer turns back into bundles.  ``origin_bundles[i]``
    remembers which bundle the way came from (None for ways a pass
    synthesized), so the engine can count how many ways the re-packer
    actually moved.
    """

    ways: List[CUInstruction]
    input_regs: Dict[str, int]
    output_regs: Dict[str, int]
    node_regs: Dict[int, int]
    origin_bundles: List[Optional[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.origin_bundles:
            self.origin_bundles = [None] * len(self.ways)

    def writer_index(self) -> Dict[int, int]:
        """RF address -> index of the way that writes it."""
        return {way.dest.index: i for i, way in enumerate(self.ways)}

    def dependencies(self) -> List[Set[int]]:
        """Per way, the indices of earlier ways it reads from."""
        writer = self.writer_index()
        return [
            {writer[r] for r in way_reads(way) if r in writer}
            for way in self.ways
        ]

    def readers(self) -> Dict[int, Set[int]]:
        """Way index -> indices of ways that read its destination."""
        out: Dict[int, Set[int]] = {i: set() for i in range(len(self.ways))}
        for consumer, deps in enumerate(self.dependencies()):
            for producer in deps:
                out[producer].add(consumer)
        return out


def linearize(program: CellProgram) -> LinearProgram:
    """Flatten *program*'s bundles into a :class:`LinearProgram`.

    Raises :class:`NonSSAProgramError` when the program fails
    :func:`repro.isa.values.check_ssa`: a register written twice, a
    kernel-input register overwritten, or a register read before any
    write -- allocations the substitution passes cannot reason about.
    """
    check_ssa(program)
    bundles = list(enumerate(program.instructions))
    return LinearProgram(
        ways=[way for _, bundle in bundles for way in bundle.ways],
        input_regs=dict(program.input_regs),
        output_regs=dict(program.output_regs),
        node_regs=dict(program.node_regs),
        origin_bundles=[index for index, bundle in bundles for _ in bundle.ways],
    )


# ----------------------------------------------------------------------
# analyses


def live_sets(
    instructions: Sequence[VLIWInstruction],
    input_regs: Dict[str, int],
    output_regs: Dict[str, int],
) -> List[Set[int]]:
    """Backward liveness: the registers live *before* each bundle.

    ``result[i]`` holds the RF addresses whose values bundle ``i`` or
    anything after it still needs; ``result[len(instructions)]`` is
    the output set.  Kernel inputs appear exactly as long as they are
    still read.
    """
    live: Set[int] = set(output_regs.values())
    out: List[Set[int]] = [set(live)]
    for bundle in reversed(list(instructions)):
        live = set(live)
        for way in bundle.ways:
            live.discard(way.dest.index)
        for way in bundle.ways:
            live.update(way_reads(way))
        out.append(set(live))
    out.reverse()
    return out


def peak_live(
    instructions: Sequence[VLIWInstruction],
    input_regs: Dict[str, int],
    output_regs: Dict[str, int],
) -> int:
    """The maximum number of simultaneously-live RF values."""
    sets = live_sets(instructions, input_regs, output_regs)
    return max((len(s) for s in sets), default=0)


def live_ways(lp: LinearProgram) -> Set[int]:
    """Indices of ways whose results reach an output (transitively)."""
    writer = lp.writer_index()
    needed: Set[int] = set()
    frontier = [
        writer[reg] for reg in lp.output_regs.values() if reg in writer
    ]
    deps = lp.dependencies()
    while frontier:
        index = frontier.pop()
        if index in needed:
            continue
        needed.add(index)
        frontier.extend(deps[index])
    return needed


def heights(lp: LinearProgram) -> List[int]:
    """Per way, the longest dependency chain from it to any sink.

    A way nothing reads has height 1.  This is the classic critical-
    path priority for list scheduling: schedule tall ways first so the
    serial tail starts as early as possible.
    """
    readers = lp.readers()
    out = [1] * len(lp.ways)
    for index in range(len(lp.ways) - 1, -1, -1):
        consumer_heights = [out[c] for c in readers[index]]
        if consumer_heights:
            out[index] = 1 + max(consumer_heights)
    return out


def critical_path(lp: LinearProgram) -> int:
    """Length of the longest dependency chain (a bundle-count floor).

    Each link of the chain must issue in a strictly later bundle (no
    same-bundle forwarding), so no schedule can run the program in
    fewer bundles than this.
    """
    return max(heights(lp), default=0)


def schedule_lower_bound(lp: LinearProgram) -> int:
    """max(critical path, ceil(ways / 2)): no schedule can beat this."""
    from repro.isa.compute import VLIW_WAYS

    if not lp.ways:
        return 0
    width_bound = -(-len(lp.ways) // VLIW_WAYS)
    return max(critical_path(lp), width_bound)
