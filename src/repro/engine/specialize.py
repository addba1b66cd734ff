"""Cell-program specialization at the engine's compile seam.

DPMap emits one VLIW cell program per objective function and every PE
runs that same program.  The software analogue: the bundles are
translated once into one straight-line Python function (register-file
slots become local variables, each CU way becomes one expression with
the exact :func:`repro.dfg.graph._apply` semantics), compiled with
``compile``/``exec``, and every executor -- inline, pool workers, shm
workers, the shm degraded floor, the guard fuzzer -- streams cells
through that function.  Per cell this removes the bundle/way/slot
interpretation loop, the operand list building and the chained opcode
dispatch of :func:`repro.dpmap.codegen.execute_way` at identical
integer semantics.

Calling convention (shared with the interpreter closure
:func:`repro.engine.runners._cell_executor`): inputs are positional in
``input_regs`` order, outputs come back as a tuple in ``output_regs``
order.

The interpreter survives as the oracle the differential tests and the
guard fuzzer compare against, and as the only carrier of the sentinel
observe hook; :func:`repro.engine.runners.run_job` picks it when a
payload arms sentinels or when specialization fails.

:data:`CELLS` is the one per-process memo of specialized functions.
It is keyed by content (``(kernel, program_hash)``), not hung off each
:class:`~repro.engine.cache.CompiledProgram`: a fresh engine that
recompiles a program, or a pool worker that unpickles it again for
every batch, must not pay ``compile()`` again.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.dfg.graph import OPCODE_ARITY, Opcode
from repro.engine.cache import CompiledProgram
from repro.isa.compute import Imm, SlotOp
from repro.obs.logs import get_logger

_LOG = get_logger("repro.engine.specialize")

#: A cell update: positional inputs in, output tuple out.
CellFunction = Callable[..., Tuple[int, ...]]
MatchTable = Callable[[int, int], int]

#: Opcode -> expression template with ``{0}``/``{1}``... operand holes.
#: Semantics mirror :func:`repro.dfg.graph._apply` exactly; any new
#: opcode must be added here *and* covered by the differential test.
_EXPRESSIONS: Dict[Opcode, str] = {
    Opcode.ADD: "({0} + {1})",
    Opcode.SUB: "({0} - {1})",
    Opcode.MUL: "({0} * {1})",
    Opcode.CARRY: "(1 if {0} + {1} >= 4294967296 else 0)",
    Opcode.BORROW: "(1 if {0} < {1} else 0)",
    Opcode.MAX: "max({0}, {1})",
    Opcode.MIN: "min({0}, {1})",
    Opcode.SHL16: "({0} << 16)",
    Opcode.SHR16: "({0} >> 16)",
    Opcode.COPY: "{0}",
    Opcode.MATCH_SCORE: "_match({0}, {1})",
    Opcode.LOG2_LUT: "(0 if {0} <= 0 else int(_log2({0}) * 2.0))",
    Opcode.LOG_SUM_LUT: "_log_sum({0}, {1})",
    Opcode.CMP_GT: "({2} if {0} > {1} else {3})",
    Opcode.CMP_EQ: "({2} if {0} == {1} else {3})",
    Opcode.NOP: "0",
    Opcode.HALT: "0",
}

#: MATCH_SCORE fallback when no match table is bound (mirrors _apply).
_DEFAULT_MATCH = "(1 if {0} == {1} else -1)"


class SpecializationError(ValueError):
    """The program uses a construct the specializer cannot express."""


def _expression(
    opcode: Opcode, operands: List[str], has_match_table: bool
) -> str:
    if opcode is Opcode.MATCH_SCORE and not has_match_table:
        template = _DEFAULT_MATCH
    else:
        template = _EXPRESSIONS.get(opcode)
    if template is None:
        raise SpecializationError(f"no expression template for opcode {opcode}")
    return template.format(*operands)


def _slot_expression(
    slot: SlotOp, reads: Set[int], has_match_table: bool
) -> str:
    operands = []
    for operand in slot.operands:
        if isinstance(operand, Imm):
            operands.append(repr(operand.value))
        else:
            reads.add(operand.index)
            operands.append(f"r{operand.index}")
    return _expression(slot.opcode, operands, has_match_table)


def _way_expression(way, reads: Set[int], has_match_table: bool) -> str:
    if way.kind == "mul":
        return _slot_expression(way.mul, reads, has_match_table)
    left = (
        _slot_expression(way.left, reads, has_match_table)
        if way.left is not None
        else None
    )
    right = (
        _slot_expression(way.right, reads, has_match_table)
        if way.right is not None
        else None
    )
    if way.root is None:
        expr = left if left is not None else right
    elif OPCODE_ARITY[way.root] == 1:
        expr = _expression(way.root, [left], has_match_table)
    else:
        inputs = [left, right]
        if way.root_swapped:
            inputs.reverse()
        expr = _expression(way.root, inputs, has_match_table)
    if expr is None:
        raise SpecializationError("tree way with no populated leaf")
    return expr


def specialize_source(
    compiled: CompiledProgram, has_match_table: bool
) -> str:
    """The straight-line Python source of one cell update.

    Bundles commit register writes only after every way of the bundle
    has read its operands, exactly like the interpreter: where a way
    reads a register an earlier way of its bundle writes, every value
    of that bundle lands in a temporary first and destinations are
    assigned at the bundle boundary.

    A register read before anything wrote it reads as 0 in the
    interpreter (``rf.get(index, 0)``), so exactly those registers are
    zero-initialised; programs that pass the verifier's
    read-before-write check have none and pay for no prologue.
    """
    written: Set[int] = set(compiled.input_regs.values())
    undefined: Set[int] = set()
    lines: List[str] = []
    for bundle in compiled.instructions:
        dests: List[int] = []
        expressions: List[str] = []
        hazard = False
        for way in bundle.ways:
            reads: Set[int] = set()
            expressions.append(_way_expression(way, reads, has_match_table))
            undefined |= reads - written
            hazard = hazard or not reads.isdisjoint(dests)
            dests.append(way.dest.index)
        if hazard:
            lines += [f"    t{i} = {expr}" for i, expr in enumerate(expressions)]
            expressions = [f"t{i}" for i in range(len(dests))]
        lines += [f"    r{dest} = {expr}" for dest, expr in zip(dests, expressions)]
        written.update(dests)
    missing = sorted(set(compiled.output_regs.values()) - written)
    if missing:
        raise SpecializationError(f"output registers never written: {missing}")

    parameters = ", ".join(f"r{index}" for index in compiled.input_regs.values())
    prologue = [f"    r{index} = 0" for index in sorted(undefined)]
    returns = "".join(f"r{index}, " for index in compiled.output_regs.values())
    return (
        f"def _cell({parameters}):\n"
        + "\n".join(prologue + lines)
        + f"\n    return ({returns})\n"
    )


def specialize_cell(
    compiled: CompiledProgram,
    match_table: Optional[MatchTable] = None,
) -> CellFunction:
    """Compile *compiled* into one specialized cell-update function.

    Drop-in for the closure :func:`repro.engine.runners._cell_executor`
    builds, minus the sentinel observe hook (callers must keep the
    interpreted path when sentinels are armed).
    """
    from repro.kernels.pairhmm import log_sum_lookup

    source = specialize_source(compiled, match_table is not None)
    namespace: Dict[str, Any] = {
        "_match": match_table,
        "_log2": math.log2,
        "_log_sum": log_sum_lookup,
    }
    exec(compile(source, "<gendp-specialized>", "exec"), namespace)
    return namespace["_cell"]


class CellMemo:
    """Bounded memo of specialized cells, keyed by program content.

    An entry remembers the program it was built from and a hit is
    honoured only when instructions and register maps really are equal
    (an identity check per bundle for a cached program, a deep compare
    once per freshly unpickled one), so a ``CompiledProgram`` carrying
    a stale or forged ``program_hash`` can never be handed another
    program's function.  A program whose specialization raised is
    remembered as ``None`` -- callers interpret it -- and logged once.
    Eviction is first-in first-out.
    """

    def __init__(self, capacity: int = 64):
        if capacity <= 0:
            raise ValueError("memo capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[
            Tuple[str, str], Tuple[CompiledProgram, Optional[CellFunction]]
        ] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self,
        compiled: CompiledProgram,
        match_table_for: Callable[[str], Optional[MatchTable]],
    ) -> Optional[CellFunction]:
        """The specialized cell of *compiled*; ``None`` if it has none."""
        key = (compiled.kernel, compiled.program_hash)
        entry = self._entries.get(key)
        if entry is not None:
            source, cell = entry
            if source is compiled:
                return cell
            if (
                source.instructions == compiled.instructions
                and source.input_regs == compiled.input_regs
                and source.output_regs == compiled.output_regs
            ):
                # Later jobs of the same batch compare by identity.
                self._entries[key] = (compiled, cell)
                return cell
            # Same hash, different program: serve it, never cache it.
            return self._specialize(compiled, match_table_for)
        cell = self._specialize(compiled, match_table_for)
        if len(self._entries) >= self.capacity:
            # One atomic copy and one rebind: drains on other threads
            # never see a dict change size under them.
            items = list(self._entries.items())
            self._entries = dict(items[len(items) - self.capacity + 1 :])
        self._entries[key] = (compiled, cell)
        return cell

    @staticmethod
    def _specialize(compiled, match_table_for) -> Optional[CellFunction]:
        try:
            return specialize_cell(compiled, match_table_for(compiled.kernel))
        except Exception as error:  # malformed programs fail in many ways
            _LOG.warning(
                "cell specialization failed; program runs interpreted",
                extra={
                    "kernel": compiled.kernel,
                    "program_hash": compiled.program_hash,
                    "error": f"{type(error).__name__}: {error}",
                },
            )
            return None


#: The process's memo: what ``run_job(..., cell=None)`` resolves through.
CELLS = CellMemo()
