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
integer semantics, and lazily, as DPAx's untaken select arm costs
nothing: a value read once is nested in its reader, so a conditional
evaluates it only on the branch that takes it, and a slot repeating a
value still in a local reads the local.  Those lines are inlined in
the kernel's loop nest, the fused sweep every executor -- inline, shm
workers, the shm degraded floor, the guard fuzzer -- runs
(:mod:`repro.engine.sweep`), armed or not; wrapped as one cell
function (:func:`specialize_cell`), they are what the repo benchmark
times.

Calling convention of the cell function (shared with the interpreter
closure :func:`repro.engine.runners._cell_executor`): inputs are
positional in ``input_regs`` order, outputs come back as a tuple in
``output_regs`` order.

The interpreter survives as the oracle the differential tests and the
guard fuzzer pass in, and runs a job itself only for a program that
cannot be fused.

:func:`cell_lines` reads the cell as values
(:func:`repro.isa.values.value_graph`): every operand resolved to the
value it reads.  Chain's band sweep (:mod:`repro.engine.band`) splits
a cell along the same graph.

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
from repro.obs.logs import get_logger

_LOG = get_logger("repro.engine.specialize")

#: A cell update: positional inputs in, output tuple out.
CellFunction = Callable[..., Tuple[int, ...]]
MatchTable = Callable[[int, int], int]


class SpecializationError(ValueError):
    """The program uses a construct the specializer cannot express."""


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
    emitted, lazily: a value read once, by a later bundle, is nested in
    its reader's expression (a conditional evaluates it only on the
    branch that takes it) wherever every register its text reads,
    transitively, still holds what it read; and a slot repeating a
    value a local still holds (same opcode, same operand values) reads
    that local; an ADD of a literal 0, or a SUB of one, is the other
    operand (exact: engine sweeps carry only ints, and ``0 + -0.0``
    alone would differ).  With a *sentinel*, every way is emitted eagerly, each
    value the interpreter observes bound to a local and counted at the
    end of its bundle (:meth:`~repro.guard.sentinels.Sentinel.count_line`).
    Bundles commit register writes only after every way of the bundle
    has read its operands, exactly like the interpreter: where a way
    reads a register an earlier way of its bundle writes, every value
    of that bundle lands in a temporary first, destinations are
    assigned at the bundle boundary, and nothing is nested in or out.

    A read of an input register nothing has written yet renders as
    *bound*'s text for it (default: ``r<index>``, the cell's
    parameter).  Any other register read before anything wrote it
    reads as 0 in the interpreter (``rf.get(index, 0)``), so exactly
    those registers are zero-initialised; programs that pass the
    verifier's read-before-write check have none and pay for no
    prologue.  Every output is the local ``r<index>``.
    """
    from repro.isa.values import value_graph  # loaded at the first emission, not at start-up

    if bound is None:
        bound = {index: f"r{index}" for index in compiled.input_regs.values()}
    names = list(compiled.output_regs) if outputs is None else list(outputs)
    targets = [compiled.output_regs[name] for name in names]
    lazy = sentinel is None
    values, current, writes, hazards, groups = value_graph(
        compiled, targets, bound, lazy
    )

    missing = sorted(set(targets) - current.keys() - bound.keys())
    if missing:
        raise SpecializationError(f"output registers never written: {missing}")

    readers: Dict[int, List[int]] = {}
    for reader, value in enumerate(values):
        for operand in value.operands:
            if isinstance(operand, int) and operand >= 0:
                readers.setdefault(operand, []).append(reader)
    kept = {current[index] for index in targets if index in current}
    inlined: Set[int] = set()
    spans: Dict[int, List[Tuple[int, int]]] = {}  # value -> (register, since)
    for number, value in enumerate(values):
        spans[number] = [
            span
            for operand in value.operands if isinstance(operand, int)
            for span in (
                spans[operand] if operand in inlined
                else [(values[operand].way.dest.index, operand)] if operand >= 0
                else [(~operand, -1)]
            )
        ]
        user, *others = readers.get(number, [None, None])
        if (
            lazy and not others and number not in kept
            and values[user].bundle > value.bundle
            and not hazards[value.bundle] and not hazards[values[user].bundle]
            and not any(
                since < write < user
                for register, since in spans[number]
                for write in writes.get(register, ())
            )
        ):
            inlined.add(number)

    temporaries: List[str] = []
    lines: List[str] = []
    observed: List[str] = []
    texts: Dict[int, str] = {}

    def text(operand: Union[int, str]) -> str:
        if isinstance(operand, str):
            return operand
        if operand < 0:
            return bound.get(~operand, f"r{~operand}")
        return texts.get(operand, f"r{values[operand].way.dest.index}")

    def watch(expression: str) -> str:
        observed.append(f"_t{len(temporaries)}")
        temporaries.append(observed[-1])
        return f"({observed[-1]} := {expression})"

    for hazard, group in zip(hazards, groups):
        assigned: List[Tuple[int, str]] = []
        for number in group:
            read = iter(values[number].operands)
            expression = way_expression(
                values[number].way, lambda item: text(next(read)), has_match_table,
                temporaries, str if lazy else watch,
            )
            if number in inlined:
                texts[number] = expression
            else:
                assigned.append((values[number].way.dest.index, expression))
        if hazard:
            lines += [f"t{i} = {expr}" for i, (_, expr) in enumerate(assigned)]
            assigned = [(dest, f"t{i}") for i, (dest, _) in enumerate(assigned)]
        lines += [f"r{dest} = {expr}" for dest, expr in assigned]
        if not lazy:
            lines += [sentinel.count_line(name) for name in observed]
            observed.clear()
    # An output that is an input nothing overwrote still lands in its
    # own local: callers store every output from ``r<index>``.
    lines += [
        f"r{index} = {bound[index]}"
        for index in dict.fromkeys(targets)
        if index not in current and bound[index] != f"r{index}"
    ]
    undefined = {
        ~operand for value in values for operand in value.operands
        if isinstance(operand, int) and operand < 0 and ~operand not in bound
    }
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
