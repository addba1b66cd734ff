"""A windowed cell split in two: the anchor-only cone as numpy lanes,
the rest folded over the lanes its gates keep.

A Chain cell reads two kinds of input.  The anchors' coordinates and
weights (``x_i, x_j, y_i, y_j, w``) are fixed per pair (j, i); the
scores and parents are carried from pair to pair.  Every value that
reads only the first kind -- the deltas, ``|dx - dy|``, the gate
compares, the match and gap terms -- belongs to the **band cone**: for
anchor j's window it is n independent computations (DPAx's per-PE
parallelism), so it runs once per task as numpy over the (anchor,
window) band, one :data:`~repro.dfg.expressions.ARRAY_EXPRESSIONS`
template per operation.  What reads the carried state is the
**carried cone**: it runs in the scalar fold,
:func:`~repro.engine.specialize.cell_lines` over the program with each
band value it reads turned into an input, read from a per-lane list.
Both cones come from one value graph at slot granularity,
:func:`~repro.isa.values.slot_graph`, the one the interval analysis
reads.

A compare whose compared operands are band values and whose selected
operands are not is a **gate**: its decision is a band value.  A lane
is skipped where a gate decides for a literal arm that interval
reasoning proves leaves the lane's state unchanged, whatever every
other gate decides (:func:`repro.static.intervals.evaluate` over the
carried inputs' assumed intervals: Chain's ``-2^30`` loses every
``MAX`` against a score ``>= 0``).  On the lanes left, that gate's
decision is known and its select is a copy; and where every state
output keeps its input unless one comparison holds (Chain: the
candidate beats ``f_i``), the fold computes that comparison and stores
only where it holds.

Proved once per program, when the split is built: every band value
stays inside int64 for band inputs inside ``[-bound, bound]`` (the
largest power of two that proves it), and every state output stays
inside its input's assumed interval, so the assumption holds from pair
to pair.  Left to the sweep, per task: the inputs inside the bound and
the initial state inside the assumed intervals.  A program the split
cannot serve raises :class:`~repro.engine.specialize.SpecializationError`
(a malformed one, the graph's ``ValueError``).
"""

from __future__ import annotations

import re
from dataclasses import replace
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Set
from typing import Tuple, Union

from repro.dfg.expressions import ARRAY_CONDITIONS, ARRAY_EXPRESSIONS
from repro.dfg.graph import Opcode
from repro.engine.cache import CompiledProgram
from repro.engine.specialize import SpecializationError, cell_lines
from repro.isa.compute import Imm, Reg, SlotOp, VLIWInstruction
from repro.isa.values import Node, Ref, SlotGraph, slot_graph
from repro.static.intervals import Interval, evaluate

#: What the fold reads from a lane list: a band value, or a gate's
#: decision (``("if", gate)``).
Export = Union[Ref, Tuple[str, int]]

_INT64 = Interval(-(1 << 63), (1 << 63) - 1)
_IJ = frozenset("ij")


class BandCell(NamedTuple):
    """One program's split, as source lines for the sweep to place.

    The sweep binds, per block of anchors ``j0 <= j < j1``: each name
    in *leaves* (its point column's slice: ``[j0 + 1 : j1 + width]`` for
    an ``i`` input, ``[j0 : j1]`` for a ``j`` one) and ``width``; the
    namespace binds ``_np`` and ``_window``
    (:func:`~repro.dfg.expressions.window_lanes`).  After *block* the
    sweep binds ``lanes`` (the flat indexes of the lanes *keep* holds
    for, only real pairs), ``r`` (their row) and ``ik`` (their offset
    into an ``i`` slice), runs *kept*, and folds ``zip`` of each
    export's ``.tolist()`` with its own lane locals in front.
    """

    #: Band inputs are proved int64-safe inside ``[-bound, bound]``.
    bound: int
    #: The band inputs the lines read.
    leaves: FrozenSet[str]
    #: Lane arrays over the whole block: what the skip test reads.
    block: List[str]
    #: Bool expression over the block: the lanes the fold visits
    #: (empty: all of them).
    keep: str
    #: Lane arrays over the kept lanes.
    kept: List[str]
    #: (fold local, kept-lane array) for every band value the fold reads.
    exports: List[Tuple[str, str]]
    #: The fold's statements (its carried inputs' reads first).
    fold: List[str]
    #: The comparison the state stores wait on (empty: none): where it
    #: fails, every output equals the input it overwrites.
    guard: str
    #: What each output is where the stores run.
    values: Dict[str, str]


def _roles(
    nodes: List[Node], lanes: Mapping[str, str]
) -> Tuple[Dict[int, FrozenSet[str]], Set[int]]:
    """Each band node's roles (``i``, ``j`` or both: which anchors it
    reads), and the gates.  A node reading no input at all is carried:
    it costs the fold what it cost the scalar cell."""
    band: Dict[int, FrozenSet[str]] = {}
    gates: Set[int] = set()

    def role(operand: Ref) -> Optional[FrozenSet[str]]:
        if isinstance(operand, Imm):
            return frozenset()
        if isinstance(operand, str):
            return frozenset(lanes[operand]) if operand in lanes else None
        return band.get(operand)

    for number, node in enumerate(nodes):
        roles = [role(operand) for operand in node.operands]
        if None not in roles and any(roles):
            if node.opcode not in ARRAY_EXPRESSIONS:
                raise SpecializationError(f"no lane template for {node.opcode.value}")
            band[number] = frozenset().union(*roles)
        elif node.opcode in ARRAY_CONDITIONS and None not in roles[:2] and any(roles[:2]):
            gates.add(number)
    return band, gates


def _int64_safe(cell: SlotGraph, band, leaf) -> bool:
    """Whether every band node, and every literal it reads, stays
    inside int64 with the inputs as *leaf* gives them."""
    values = evaluate(cell.nodes, leaf)
    return all(
        interval.within(_INT64)
        for number in band
        for interval in (values[number][1], *(
            Interval.const(operand.value)
            for operand in cell.nodes[number].operands if isinstance(operand, Imm)
        ))
    )


def _widest_bound(cell: SlotGraph, band, leaf_for) -> int:
    """The largest power-of-two band-input bound the int64 proof holds
    for (*leaf_for*: bound -> the inputs' intervals)."""
    if not _int64_safe(cell, band, leaf_for(1)):
        raise SpecializationError("a band value leaves int64 for every input")
    low, high = 0, 62
    while low < high:
        middle = (low + high + 1) // 2
        if _int64_safe(cell, band, leaf_for(1 << middle)):
            low = middle
        else:
            high = middle - 1
    return 1 << low


def _kills(cell: SlotGraph, gates, leaf, state, assumed) -> Dict[int, bool]:
    """Gate -> the decision whose literal arm provably leaves every
    state output equal to the input it overwrites."""

    def end(values, out: str):
        ref = cell.ends[out]
        if isinstance(ref, int):
            return values[ref]
        return (ref, leaf(ref)) if isinstance(ref, str) else (None, Interval.const(ref.value))

    kills: Dict[int, bool] = {}
    for gate in sorted(gates):
        for taken, arm in zip((True, False), cell.nodes[gate].operands[2:]):
            if not isinstance(arm, Imm):
                continue
            values = evaluate(cell.nodes, leaf, forced={gate: arm})
            if all(end(values, out)[0] == name for out, name in state.items()):
                if gate in kills:
                    raise SpecializationError("a gate keeps the state either way")
                kills[gate] = taken
    values = evaluate(cell.nodes, leaf)
    for out, name in state.items():
        if name in assumed and not end(values, out)[1].within(assumed[name]):
            raise SpecializationError(f"{out} can leave the interval assumed of {name}")
    return kills


def _exports(cell: SlotGraph, band, gates, kills, lanes) -> Dict[Export, int]:
    """What the fold reads, numbered: the band values and the open
    gates' decisions on the paths the kept lanes take."""
    exports: Dict[Export, int] = {}
    seen: Set[int] = set()
    stack: List[Ref] = list(cell.ends.values())
    while stack:
        operand = stack.pop()
        if isinstance(operand, Imm) or operand in seen:
            continue
        if operand in band or operand in lanes:
            exports.setdefault(operand, len(exports))
        elif isinstance(operand, int):
            seen.add(operand)
            operands = cell.nodes[operand].operands
            if operand in kills:
                stack.append(operands[3 if kills[operand] else 2])
            elif operand in gates:
                exports.setdefault(("if", operand), len(exports))
                stack += operands[2:]
            else:
                stack += operands
    return exports


def _guard(cell: SlotGraph, band, gates, kills, state: Mapping[str, str]):
    """``(comparison, new values)`` when every state output equals the
    input it overwrites unless one comparison ``(op, left, right)``
    holds: then the fold stores only where it does.  ``None`` if not."""

    def resolve(operand: Ref) -> Ref:
        while isinstance(operand, int) and operand not in band:
            node = cell.nodes[operand]
            if operand in kills:
                operand = node.operands[3 if kills[operand] else 2]
            elif node.opcode is Opcode.COPY:
                operand = node.operands[0]
            else:
                break
        return operand

    finals = set(cell.finals)
    comparisons, news = set(), {}
    for out, name in state.items():
        end = resolve(cell.ends[out])
        if end == name:
            news[out] = end
            continue
        if not isinstance(end, int) or end in band or end in gates:
            return None
        opcode, args = cell.nodes[end].opcode, [resolve(o) for o in cell.nodes[end].operands]
        if opcode is Opcode.MAX:  # b if a < b else a
            test, taken, kept = ("<", args[0], args[1]), args[1], args[0]
        elif opcode is Opcode.MIN:  # b if a > b else a
            test, taken, kept = ("<", args[1], args[0]), args[1], args[0]
        elif opcode is Opcode.CMP_GT:
            test, taken, kept = ("<", args[1], args[0]), args[2], args[3]
        elif opcode is Opcode.CMP_EQ:
            test, taken, kept = ("==", args[0], args[1]), args[2], args[3]
        else:
            return None
        if taken == name:
            op, left, right = test
            test, taken = (("<=", right, left) if op == "<" else ("!=", left, right)), kept
        elif kept != name:
            return None
        comparisons.add(test)
        news[out] = taken
    reads = [ref for test in comparisons for ref in test[1:]] + list(news.values())
    if len(comparisons) != 1 or any(
        isinstance(ref, int) and ref not in band and ref not in finals for ref in reads
    ):
        return None
    return comparisons.pop(), news


def _fold(
    compiled: CompiledProgram,
    cell: SlotGraph,
    band,
    gates,
    kills,
    exports: Mapping[Export, int],
    carried: Mapping[str, str],
    state: Mapping[str, str],
    has_match_table: bool,
) -> Tuple[List[str], str, Dict[str, str]]:
    """The carried cone's lines, the guard the state stores wait on
    (``""``: none) and each output's text where they run.

    The lines are :func:`cell_lines` over the carried values as a
    program of one way per bundle, each value in a register of its own
    (so no bundle reads what another writes), band slots read from
    input registers bound as ``b<n>``, killing gates copying their kept
    arm and open ones selecting on their decision's input.  Where every
    state output keeps its input unless one comparison holds
    (:func:`_guard`), the lines compute that comparison's operands and
    the new values, not the selects."""
    used = [*compiled.input_regs.values(), *compiled.output_regs.values()]
    used += [way.dest.index for bundle in compiled.instructions for way in bundle.ways]
    base = max(used) + 1
    registers = {
        key: base + len(cell.graph.values) + number for key, number in exports.items()
    }

    def item(original, entry, operand: Ref):
        if not isinstance(operand, Imm) and operand in registers:
            return Reg(registers[operand])
        if isinstance(entry, int) and entry >= 0:
            return Reg(base + entry)
        return original

    ways = []
    for number, value in enumerate(cell.graph.values):
        entries = iter(value.operands)
        slots = {}
        for name, node in cell.slots[number].items():
            slot = getattr(value.way, name)
            operands = cell.nodes[node].operands
            items = [item(o, next(entries), ref) for o, ref in zip(slot.operands, operands)]
            if node in band:
                slots[name] = SlotOp(Opcode.COPY, (item(Imm(0), None, node),))
            elif node in kills:
                slots[name] = SlotOp(Opcode.COPY, (items[3 if kills[node] else 2],))
            elif node in gates:
                decision = Reg(registers[("if", node)])
                slots[name] = SlotOp(Opcode.CMP_GT, (decision, Imm(0), *items[2:]))
            else:
                slots[name] = SlotOp(slot.opcode, tuple(items))
        if cell.finals[number] not in band:
            ways.append(replace(value.way, dest=Reg(base + number), **slots))

    guard = _guard(cell, band, gates, kills, state)
    test, news = guard if guard is not None else (None, dict(cell.ends))
    refs = list(test[1:] if test else ()) + list(news.values())
    nodes = [ref for ref in dict.fromkeys(refs) if isinstance(ref, int) and ref not in band]
    value_of = {final: number for number, final in enumerate(cell.finals)}
    program = replace(
        compiled,
        instructions=tuple(VLIWInstruction(way) for way in ways),
        output_regs={f"o{node}": base + value_of[node] for node in nodes},
    )

    def render(bound):
        lines, values = cell_lines(program, has_match_table, bound, list(program.output_regs))

        def text(ref: Ref) -> str:
            if isinstance(ref, Imm):
                return repr(ref.value)
            if isinstance(ref, str) and ref in carried:
                return bound[compiled.input_regs[ref]]
            if ref in registers:
                return f"b{exports[ref]}"
            return values[f"o{ref}"]

        guard = f"{text(test[1])} {test[0]} {text(test[2])}" if test else ""
        return lines, guard, {out: text(ref) for out, ref in news.items()}

    # A carried input read more than once is read into a local first,
    # one read once where it is read: it is written only after the cell.
    bound = {registers[key]: f"b{number}" for key, number in exports.items()}
    bound.update((compiled.input_regs[name], name) for name in carried)
    lines, guard, values = render(bound)
    text = "\n".join([*lines, guard, *values.values()])
    reads = {name: len(re.findall(rf"\b{name}\b", text)) for name in carried}
    bound.update(
        (compiled.input_regs[name], carried[name])
        for name in carried if reads[name] == 1 or carried[name].isidentifier()
    )
    lines, guard, values = render(bound)
    head = [
        f"{name} = {carried[name]}" for name in carried
        if reads[name] > 1 and not carried[name].isidentifier()
    ]
    return head + lines, guard, values


class _LaneSource:
    """Numpy lines for band nodes: first over the block, each in its
    roles' shape (``i``: the ``i`` slice, ``j``: the ``j`` slice, both:
    the ``(rows, width)`` band), then over the kept lanes, flat."""

    def __init__(self, nodes: List[Node], band, lanes: Mapping[str, str]):
        self.nodes, self.band, self.lanes = nodes, band, lanes
        self.leaves: Set[str] = set()
        self.lines: List[str] = []
        self.defined: Set[str] = set()
        self.phases: Dict[int, str] = {}  # band node -> "block" or "kept"

    def _roles(self, operand: Ref) -> FrozenSet[str]:
        if isinstance(operand, str):
            return frozenset(self.lanes[operand])
        return self.band[operand]

    def _name(self, operand: Ref) -> str:
        if isinstance(operand, str):
            self.leaves.add(operand)
            return operand
        return f"v{operand}"

    def _bind(self, name: str, expression: str) -> str:
        if name not in self.defined:
            self.defined.add(name)
            self.lines.append(f"{name} = {expression}")
        return name

    def shaped(self, operand: Ref, roles: FrozenSet[str]) -> str:
        """*operand* over the block, in the shape of a node of *roles*."""
        if isinstance(operand, Imm):
            return repr(operand.value)
        name, own = self._name(operand), self._roles(operand)
        if own == roles:
            return name
        if own == {"i"}:
            return self._bind(f"{name}_w", f"_window({name}, width)")
        return self._bind(f"{name}_c", f"{name}[:, None]")

    def gathered(self, operand: Ref, roles: FrozenSet[str] = _IJ) -> str:
        """*operand* over the kept lanes."""
        if isinstance(operand, Imm):
            return repr(operand.value)
        name = self._name(operand)
        if self.phases.get(operand) == "kept":
            return name
        own = "".join(sorted(self._roles(operand)))
        index = {"i": "[ik]", "j": "[r]"}.get(own, ".reshape(-1)[lanes]")
        return self._bind(f"{name}_k", name + index)

    def compute(self, roots: Sequence[Ref], phase: str) -> None:
        """Lines for the band nodes *roots* read that no phase computed."""
        text = self.shaped if phase == "block" else self.gathered
        cone: Set[int] = set()
        stack = [root for root in roots if isinstance(root, int)]
        while stack:
            number = stack.pop()
            if number in self.band and number not in cone and number not in self.phases:
                cone.add(number)
                stack += [o for o in self.nodes[number].operands if isinstance(o, int)]
        for number in sorted(cone):
            node = self.nodes[number]
            operands = [text(operand, self.band[number]) for operand in node.operands]
            self.lines.append(
                f"v{number} = " + ARRAY_EXPRESSIONS[node.opcode].format(*operands)
            )
            self.phases[number] = phase

    def condition(self, gate: int, phase: str, taken: bool = True) -> str:
        """Where a gate selects its first arm (not *taken*: its second),
        as a bool expression over the phase's lanes."""
        text = self.shaped if phase == "block" else self.gathered
        node = self.nodes[gate]
        return ARRAY_CONDITIONS[node.opcode][not taken].format(
            *[text(operand, _IJ) for operand in node.operands[:2]]
        )

    def take(self) -> List[str]:
        lines, self.lines = self.lines, []
        return lines


def split_cell(
    compiled: CompiledProgram,
    lanes: Mapping[str, str],
    carried: Mapping[str, str],
    state: Mapping[str, str],
    assumed: Mapping[str, object],
    has_match_table: bool = False,
) -> BandCell:
    """Split *compiled*'s cell into its band and carried cones.

    *lanes*: band input -> ``"i"`` or ``"j"``, the anchor of the pair
    it reads; *carried*: every other input -> what the fold reads it
    from per lane; *state*: output -> the input it overwrites;
    *assumed*: carried input -> the
    :class:`~repro.static.intervals.Interval` the sweep keeps it in,
    the skip proof's premise (proved inductive here).
    """
    if set(compiled.input_regs) != set(lanes) | set(carried):
        raise SpecializationError("an input has neither a band nor a carried role")
    cell = slot_graph(compiled, list(state), lazy=True)
    band, gates = _roles(cell.nodes, lanes)

    def leaf_for(bound: int):
        domain = Interval(-bound, bound)
        return lambda name: domain if name in lanes else assumed.get(name, Interval.top())

    bound = _widest_bound(cell, band, leaf_for)
    kills = _kills(cell, gates, leaf_for(bound), state, assumed)
    exports = _exports(cell, band, gates, kills, lanes)
    fold, guard, values = _fold(
        compiled, cell, band, gates, kills, exports, carried, state, has_match_table
    )

    source = _LaneSource(cell.nodes, band, lanes)
    source.compute([cell.nodes[gate].operands[k] for gate in kills for k in (0, 1)], "block")
    keep = " & ".join(
        source.condition(gate, "block", not kills[gate]) for gate in sorted(kills)
    )
    block = source.take()
    decisions = [key[1] for key in exports if isinstance(key, tuple)]
    reads = [key for key in exports if not isinstance(key, tuple)]
    source.compute(reads + [cell.nodes[gate].operands[k] for gate in decisions for k in (0, 1)], "kept")
    texts = {
        key: source.condition(key[1], "kept") if isinstance(key, tuple) else source.gathered(key)
        for key in exports
    }
    return BandCell(
        bound=bound,
        leaves=frozenset(source.leaves),
        block=block,
        keep=keep,
        kept=source.take(),
        exports=[(f"b{number}", texts[key]) for key, number in exports.items()],
        fold=fold,
        guard=guard,
        values=values,
    )
