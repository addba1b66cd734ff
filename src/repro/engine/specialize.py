"""Cell-program specialization at the engine's compile seam.

DPMap emits one VLIW cell program per objective function and every PE
runs that same program.  The software analogue: the bundles are
translated once into one straight-line Python function (register-file
slots become local variables, each CU way becomes one expression from
the opcode templates of :mod:`repro.dfg.expressions`, which mirror
:func:`repro.dfg.graph._apply` exactly), compiled with
``compile``/``exec``, and every executor -- inline, shm workers, the
shm degraded floor, the guard fuzzer -- streams cells through that
function.  Per cell this removes the bundle/way/slot
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
recompiles a program, or a respawned worker that unpickles it again,
must not pay ``compile()`` again.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.dfg.expressions import expression_namespace, way_expression
from repro.engine.cache import CompiledProgram
from repro.isa.compute import Imm
from repro.obs.logs import get_logger

_LOG = get_logger("repro.engine.specialize")

#: A cell update: positional inputs in, output tuple out.
CellFunction = Callable[..., Tuple[int, ...]]
MatchTable = Callable[[int, int], int]


class SpecializationError(ValueError):
    """The program uses a construct the specializer cannot express."""


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
    temporaries: List[str] = []
    lines: List[str] = []
    for bundle in compiled.instructions:
        dests: List[int] = []
        expressions: List[str] = []
        hazard = False
        for way in bundle.ways:
            reads: Set[int] = set()

            def operand(item) -> str:
                if isinstance(item, Imm):
                    return repr(item.value)
                reads.add(item.index)
                return f"r{item.index}"

            expressions.append(
                way_expression(way, operand, has_match_table, temporaries)
            )
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
    source = specialize_source(compiled, match_table is not None)
    namespace = expression_namespace(match_table)
    exec(compile(source, "<gendp-specialized>", "exec"), namespace)
    return namespace["_cell"]


class CellMemo:
    """Bounded memo of specialized cells, keyed by program content.

    An entry remembers the program it was built from and a hit is
    honoured only when instructions and register maps really are equal,
    order included (an identity check per bundle for a cached program, a deep compare
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
            # Register maps compare as ordered items: their order is
            # the cell's calling convention, and the hash ignores it.
            if (
                source.instructions == compiled.instructions
                and list(source.input_regs.items()) == list(compiled.input_regs.items())
                and list(source.output_regs.items()) == list(compiled.output_regs.items())
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
