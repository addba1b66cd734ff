"""A cell program as values: the one graph every reader of it walks.

:func:`value_graph` resolves each way's operands to the values they
read; :func:`slot_graph` lowers that to one :class:`Node` per ALU slot
and tree root.  Built eagerly (every way, nothing rewritten) the nodes
are, in order, exactly the values the interpreter observes
(:func:`repro.dpmap.codegen.execute_way`); built lazily, they are the
value-numbered cone of the outputs asked for.  Readers: the engine's
cell emitters, Chain's band split and the interval analysis, the last
two through :func:`repro.static.intervals.evaluate`.  A program is
anything with ``instructions``, ``input_regs`` and ``output_regs``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Set, Tuple, Union

from repro.dfg.graph import OPCODE_ARITY, Opcode
from repro.isa.compute import CUInstruction, Imm, Reg, SlotOp

#: A node's operand: another node, an input by name, or a literal.
Ref = Union[int, str, Imm]


class NonSSAProgramError(ValueError):
    """A program :func:`check_ssa` refuses: the optimizer returns it
    unchanged and the certifier leaves it uncertified."""


def way_reads(way: CUInstruction) -> List[int]:
    """Every RF address *way* reads, in operand order (with repeats)."""
    slots = (way.mul,) if way.kind == "mul" else (way.left, way.right)
    return [
        item.index
        for slot in slots
        if slot is not None
        for item in slot.operands
        if isinstance(item, Reg)
    ]


def check_ssa(program) -> None:
    """Raise :class:`NonSSAProgramError` when a way overwrites an input
    register, a register is written twice, or a way reads a register
    no earlier bundle wrote."""
    inputs = set(program.input_regs.values())
    written, dests = set(inputs), set()
    for bundle in program.instructions:
        ways = bundle.ways
        for way in ways:
            dest = way.dest.index
            if dest in inputs:
                raise NonSSAProgramError(f"way overwrites input register r{dest}")
            if dest in dests:
                raise NonSSAProgramError(f"register r{dest} written by more than one way")
            dests.add(dest)
            for read in way_reads(way):
                if read not in written:
                    raise NonSSAProgramError(f"way reads r{read} before any write")
        written.update(way.dest.index for way in ways)


class _Value(NamedTuple):
    """One emitted way, a slot that repeats a live value rewritten as a
    copy of it.  Operands, in rendering order: a value's number (its
    place in emission order), ``~index`` of an unwritten register, or text."""

    way: Any
    operands: List[Union[int, str]]
    bundle: int


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
            live.update(way_reads(way))
        kept.append(ways[::-1])
    return kept[::-1]


class ValueGraph(NamedTuple):
    """A cell's ways as values (:class:`_Value`), in emission order."""

    values: List[_Value]
    #: register -> the value it holds after the last bundle.
    current: Dict[int, int]
    #: register -> the values written to it, in order.
    writes: Dict[int, List[int]]
    #: Per bundle: does a way read what an earlier way of it writes?
    hazards: List[bool]
    #: Per bundle: its values.
    groups: List[range]


def _is_zero(item, current: Dict[int, int], bound: Dict[int, str]) -> bool:
    """A literal 0: an immediate, or an unwritten input bound as ``0``."""
    if isinstance(item, Imm):
        return type(item.value) is int and item.value == 0
    return item.index not in current and bound.get(item.index) == "0"


def _without_zero(slot: SlotOp, zero: Callable[[Any], bool]) -> SlotOp:
    """``0 + x``, ``x + 0`` and ``x - 0`` as a COPY of ``x``."""
    if slot.opcode is Opcode.ADD and zero(slot.operands[0]):
        return SlotOp(Opcode.COPY, slot.operands[1:])
    if slot.opcode in (Opcode.ADD, Opcode.SUB) and zero(slot.operands[1]):
        return SlotOp(Opcode.COPY, slot.operands[:1])
    return slot


def value_graph(
    program,
    targets: Sequence[int],
    bound: Dict[int, str],
    lazy: bool = True,
) -> ValueGraph:
    """Every operand of the ways *targets* depend on resolved to the
    value it reads (all ways, unless *lazy*).

    Lazily, a slot repeating a value its register still holds (same
    opcode, same operand values) becomes a COPY of it, outside hazard
    bundles, and an ADD of a literal 0 or a SUB of one a COPY of the
    other operand -- exact because engine sweeps carry only ints
    (``0 + -0.0`` would be ``0.0``).  *bound* names the input
    registers the reader binds to text (``"0"`` is a literal zero).
    """
    bundles = [bundle.ways for bundle in program.instructions]
    if lazy:
        bundles = _cone(program.instructions, set(targets))

    values: List[_Value] = []
    current: Dict[int, int] = {}  # register -> value, as its bundle reads it
    writes: Dict[int, List[int]] = {}  # register -> the values written to it
    numbered: Dict[Tuple[Any, ...], int] = {}  # (opcode, *operands) -> value
    hazards: List[bool] = []
    groups: List[range] = []  # each bundle's values

    def zero(item) -> bool:
        return _is_zero(item, current, bound)

    for number, ways in enumerate(bundles):
        dests = [way.dest.index for way in ways]
        hazard = any(
            not set(dests[:k]).isdisjoint(way_reads(way))
            for k, way in enumerate(ways[1:], 1)
        )
        hazards.append(hazard)
        for way in ways:
            operands, copies, keys = [], {}, []
            for name in ("mul",) if way.kind == "mul" else ("left", "right"):
                slot = getattr(way, name)
                if slot is None:
                    continue
                bare = _without_zero(slot, zero) if lazy else slot
                if bare is not slot:
                    slot = copies[name] = bare
                read = [
                    repr(item.value) if isinstance(item, Imm)
                    else current.get(item.index, ~item.index)
                    for item in slot.operands
                ]
                if lazy and not hazard:
                    keys.append((slot.opcode, *read))
                    hit = numbered.get(keys[-1])
                    if hit is not None and writes[values[hit].way.dest.index][-1] == hit:
                        copies[name] = SlotOp(Opcode.COPY, (values[hit].way.dest,))
                        read = [hit]
                operands += read
            if way.root is None and keys:
                numbered[keys[0]] = len(values)
            writes.setdefault(way.dest.index, []).append(len(values))
            values.append(_Value(replace(way, **copies) if copies else way, operands, number))
        groups.append(range(len(values) - len(ways), len(values)))
        current.update(zip(dests, groups[-1]))
    return ValueGraph(values, current, writes, hazards, groups)


class Node(NamedTuple):
    """One slot or tree root of a way: its opcode and what it reads."""

    opcode: Opcode
    operands: Tuple[Ref, ...]


class SlotGraph(NamedTuple):
    """A cell's value graph at slot granularity."""

    graph: ValueGraph
    #: Slots and roots, each value's slots then its root, in value order.
    nodes: List[Node]
    #: Per value: its slots' nodes by slot name.
    slots: List[Dict[str, int]]
    #: Per value: the node whose result it writes.
    finals: List[int]
    #: Per output asked for: what it reads after the last bundle.
    ends: Dict[str, Ref]
    #: The program's input registers by name.
    inputs: Dict[str, int]


def slot_graph(program, outputs: Sequence[str], lazy: bool) -> SlotGraph:
    """*program*'s :func:`value_graph` (the cone of *outputs*, unless
    eager) in slot-level nodes.  A register read before anything wrote
    it is its input's name, or the literal 0 the interpreter reads."""
    names = {index: name for name, index in program.input_regs.items()}
    targets = [program.output_regs[name] for name in outputs]
    graph = value_graph(program, targets, {}, lazy)
    nodes: List[Node] = []
    slots: List[Dict[str, int]] = []
    finals: List[int] = []

    for value in graph.values:
        way, entries = value.way, iter(value.operands)
        parts: Dict[str, int] = {}
        for name in ("mul",) if way.kind == "mul" else ("left", "right"):
            slot = getattr(way, name)
            if slot is not None:
                parts[name] = len(nodes)
                nodes.append(Node(slot.opcode, tuple([
                    item if isinstance(item, Imm)
                    else finals[entry] if entry >= 0
                    else names.get(~entry, Imm(0))
                    for item, entry in zip(slot.operands, entries)
                ])))
        if not parts:
            raise ValueError("a way with no slot writes nothing")
        if way.root is not None:
            leaves = (parts.get("left"), parts.get("right"))
            if OPCODE_ARITY[way.root] == 1:
                leaves = leaves[:1]
            elif way.root_swapped:
                leaves = leaves[::-1]
            if None in leaves:
                raise ValueError("a tree root reads an empty leaf")
            nodes.append(Node(way.root, leaves))
        slots.append(parts)
        # A rootless tree forwards its first leaf.
        finals.append(len(nodes) - 1 if way.root is not None else next(iter(parts.values())))
    ends = {
        name: finals[graph.current[index]] if index in graph.current
        else names.get(index, Imm(0))
        for name, index in zip(outputs, targets)
    }
    return SlotGraph(graph, nodes, slots, finals, ends, dict(program.input_regs))
