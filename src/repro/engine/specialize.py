"""Cell-program specialization at the engine's compile seam.

DPMap emits one VLIW cell program per objective function and every PE
runs that same program.  The software analogue: the bundles are
translated once into straight-line Python (:func:`cell_lines`:
register-file slots become local variables, each CU way becomes one
expression from the opcode templates of :mod:`repro.dfg.expressions`,
which mirror :func:`repro.dfg.graph._apply` exactly), compiled with
``compile``/``exec``.  Per cell this removes the bundle/way/slot
interpretation loop, the operand list building and the chained opcode
dispatch of :func:`repro.dpmap.codegen.execute_way` at identical
integer semantics.  Those lines are inlined in the kernel's loop nest,
the fused sweep every executor -- inline, shm workers, the shm
degraded floor, the guard fuzzer -- runs (:mod:`repro.engine.sweep`),
armed or not; wrapped as one cell function (:func:`specialize_cell`),
they are what the repo benchmark times.

Calling convention of the cell function (shared with the interpreter
closure :func:`repro.engine.runners._cell_executor`): inputs are
positional in ``input_regs`` order, outputs come back as a tuple in
``output_regs`` order.

The interpreter survives as the oracle the differential tests and the
guard fuzzer pass in, and runs a job itself only for a program that
cannot be fused.

:class:`CellMemo` is the per-process memo of sweeps (its two instances
are :data:`repro.engine.sweep.SWEEPS` and ``ARMED``).  It is keyed by
content (``(kernel, program_hash)``), not hung off each
:class:`~repro.engine.cache.CompiledProgram`: a fresh engine that
recompiles a program, or a respawned worker that unpickles it again,
must not pay ``compile()`` again.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.dfg.expressions import expression_namespace, way_expression
from repro.engine.cache import CompiledProgram
from repro.guard.sentinels import Sentinel
from repro.isa.compute import Imm, Reg
from repro.obs.logs import get_logger

_LOG = get_logger("repro.engine.specialize")

#: A cell update: positional inputs in, output tuple out.
CellFunction = Callable[..., Tuple[int, ...]]
MatchTable = Callable[[int, int], int]


class SpecializationError(ValueError):
    """The program uses a construct the specializer cannot express."""


def _reads(way) -> Set[int]:
    """The registers one CU way reads."""
    slots = (way.mul,) if way.kind == "mul" else (way.left, way.right)
    return {
        item.index
        for slot in slots
        if slot is not None
        for item in slot.operands
        if isinstance(item, Reg)
    }


def _cone(instructions, live: Set[int]) -> List[List[Any]]:
    """Each bundle's ways that the registers in *live* depend on: a
    backward pass, where the last way of a bundle writing a register
    is the one whose value lands."""
    live, kept = set(live), []
    for bundle in reversed(instructions):
        ways = []
        for way in reversed(bundle.ways):
            if way.dest.index in live:
                live.discard(way.dest.index)
                ways.append(way)
        for way in ways:
            live |= _reads(way)
        kept.append(ways[::-1])
    return kept[::-1]


def observed_per_cell(compiled: CompiledProgram) -> int:
    """The values the interpreter observes per cell: each slot's and root's."""
    return sum(
        1 if way.kind == "mul" else 3 - (way.left, way.right, way.root).count(None)
        for bundle in compiled.instructions for way in bundle.ways
    )


def cell_lines(
    compiled: CompiledProgram,
    has_match_table: Union[bool, str],
    bound: Optional[Dict[int, str]] = None,
    outputs: Optional[Sequence[str]] = None,
    sentinel: Optional[Sentinel] = None,
) -> Tuple[List[str], Dict[str, str]]:
    """The statements of one cell update, and the local holding each output.

    Only the ways *outputs* (default: every output) depend on are
    emitted; with a *sentinel*, every way, each value the interpreter
    observes bound to a local and counted at the end of its bundle
    (:meth:`~repro.guard.sentinels.Sentinel.count_line`).  Bundles
    commit register writes only after every way of the bundle has read
    its operands, exactly like the interpreter: where a way reads a
    register an earlier way of its bundle writes, every value of that
    bundle lands in a temporary first and destinations are assigned at
    the bundle boundary.

    A read of an input register nothing has written yet renders as
    *bound*'s text for it (default: ``r<index>``, the cell's
    parameter).  Any other register read before anything wrote it
    reads as 0 in the interpreter (``rf.get(index, 0)``), so exactly
    those registers are zero-initialised; programs that pass the
    verifier's read-before-write check have none and pay for no
    prologue.  Every output is the local ``r<index>``.
    """
    if bound is None:
        bound = {index: f"r{index}" for index in compiled.input_regs.values()}
    names = list(compiled.output_regs) if outputs is None else list(outputs)
    targets = [compiled.output_regs[name] for name in names]
    written: Set[int] = set()
    undefined: Set[int] = set()
    temporaries: List[str] = []
    lines: List[str] = []
    observed: List[str] = []

    def watch(expression: str) -> str:
        observed.append(f"_t{len(temporaries)}")
        temporaries.append(observed[-1])
        return f"({observed[-1]} := {expression})"

    bundles = [bundle.ways for bundle in compiled.instructions]
    if sentinel is None:
        bundles = _cone(compiled.instructions, set(targets))
    for ways in bundles:
        dests: List[int] = []
        expressions: List[str] = []
        hazard = False
        for way in ways:
            reads: Set[int] = set()

            def operand(item) -> str:
                if isinstance(item, Imm):
                    return repr(item.value)
                reads.add(item.index)
                if item.index in bound and item.index not in written:
                    return bound[item.index]
                return f"r{item.index}"

            finish = str if sentinel is None else watch
            expressions.append(
                way_expression(way, operand, has_match_table, temporaries, finish)
            )
            undefined |= reads - written - bound.keys()
            hazard = hazard or not reads.isdisjoint(dests)
            dests.append(way.dest.index)
        if hazard:
            lines += [f"t{i} = {expr}" for i, expr in enumerate(expressions)]
            expressions = [f"t{i}" for i in range(len(dests))]
        lines += [f"r{dest} = {expr}" for dest, expr in zip(dests, expressions)]
        if sentinel is not None:
            lines += [sentinel.count_line(value) for value in observed]
            observed.clear()
        written.update(dests)
    missing = sorted(
        index for index in set(targets) - written if index not in bound
    )
    if missing:
        raise SpecializationError(f"output registers never written: {missing}")
    # An output that is an input nothing overwrote still lands in its
    # own local: callers store every output from ``r<index>``.
    lines += [
        f"r{index} = {bound[index]}"
        for index in dict.fromkeys(targets)
        if index not in written and bound[index] != f"r{index}"
    ]
    prologue = [f"r{index} = 0" for index in sorted(undefined)]
    return prologue + lines, {name: f"r{index}" for name, index in zip(names, targets)}


def specialize_source(
    compiled: CompiledProgram, has_match_table: bool
) -> str:
    """The straight-line Python source of one cell update
    (:func:`cell_lines` as a function of the input registers)."""
    lines, values = cell_lines(compiled, has_match_table)
    parameters = ", ".join(f"r{index}" for index in compiled.input_regs.values())
    returns = "".join(f"{value}, " for value in values.values())
    body = "".join(f"    {line}\n" for line in lines)
    return f"def _cell({parameters}):\n{body}    return ({returns})\n"


def specialize_cell(
    compiled: CompiledProgram,
    match_table: Optional[MatchTable] = None,
) -> CellFunction:
    """Compile *compiled* into one specialized cell-update function.

    Drop-in for the closure :func:`repro.engine.runners._cell_executor`
    builds, minus the sentinel observe hook.  Handed one, ``run_job``
    runs its program's fused sweep (:mod:`repro.engine.sweep`), armed
    or not, instead of calling it per cell.
    """
    source = specialize_source(compiled, match_table is not None)
    namespace = expression_namespace(match_table)
    exec(compile(source, "<gendp-specialized>", "exec"), namespace)
    cell = namespace["_cell"]
    cell.path = "specialized"  # what run_job fuses
    return cell


class CellMemo:
    """Bounded memo of the functions *build* generates from a program
    (fused sweeps, :data:`repro.engine.sweep.SWEEPS`), keyed by its
    content.

    An entry remembers the program it was built from and a hit is
    honoured only when instructions and register maps really are equal,
    order included (an identity check per bundle for a cached program, a deep compare
    once per freshly unpickled one), so a ``CompiledProgram`` carrying
    a stale or forged ``program_hash`` can never be handed another
    program's function.  A program whose build raised is remembered as
    ``None`` -- its jobs run the interpreter instead -- and logged
    once.  Eviction is first-in first-out.
    """

    def __init__(
        self,
        build: Callable[[CompiledProgram, Optional[MatchTable]], Any],
        capacity: int = 64,
    ):
        if capacity <= 0:
            raise ValueError("memo capacity must be positive")
        self.capacity = capacity
        #: ``build(compiled, match_table)``.
        self._build = build
        self._entries: Dict[
            Tuple[str, str], Tuple[CompiledProgram, Optional[Callable[..., Any]]]
        ] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self,
        compiled: CompiledProgram,
        match_table_for: Callable[[str], Optional[MatchTable]],
    ) -> Optional[Callable[..., Any]]:
        """What *build* made of *compiled*; ``None`` if it raised."""
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

    def _specialize(self, compiled, match_table_for) -> Optional[Callable[..., Any]]:
        try:
            return self._build(compiled, match_table_for(compiled.kernel))
        except Exception as error:  # malformed programs fail in many ways
            _LOG.warning(
                "specialization failed; the program's jobs run the interpreter",
                extra={
                    "kernel": compiled.kernel,
                    "program_hash": compiled.program_hash,
                    "error": f"{type(error).__name__}: {error}",
                },
            )
            return None
