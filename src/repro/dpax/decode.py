"""Decode-at-load: control instructions and VLIW bundles as functions.

The paper preloads both instruction streams of every PE into its
instruction buffers before a kernel starts (Section 4.4).  The
simulator's analogue of that preload is this module: loading a program
turns each :class:`~repro.isa.control.ControlInstruction` into a
handler specialised on its opcode and ``Loc`` spaces, and each
:class:`~repro.isa.compute.VLIWInstruction` into one straight-line
function over the register-file words, so that a simulated cycle is
"call the decoded bundle, call the decoded control op" with no opcode
dispatch left in it.

Both decoders generate Python source and ``compile`` it, like
:mod:`repro.engine.specialize` and from the same opcode templates
(:mod:`repro.dfg.expressions`).  Decoded functions never capture the
PE or array they will run on -- they take it as their argument -- so
they form no reference cycle with it, and they are memoised on the
(frozen, hashable) instruction: every PE, array and run that loads an
equal instruction shares one function and pays for ``compile`` once
per process.

One control decoder serves both control threads.  The PE thread and
the array thread run the same Table 3 opcodes and differ only in which
spaces they may address, what ``set`` starts, and whether stores are
fenced by the compute thread and clamped to the datapath width; those
differences are the two :class:`_Thread` tables below.

Handlers touch storage in their own code -- RF, SPM and data-buffer
words, port and FIFO deques -- with the bounds checks, access counters
and ``StorageError`` messages of :mod:`repro.dpax.storage`.  A handler
that completes returns None.  One that cannot complete this cycle
changes nothing observable and returns a :data:`Wait` record instead:
what it waits on, the stall reason, and the access each retry would
count.  The cycle loop (:mod:`repro.dpax.loop`) then tests the record
every cycle instead of calling the handler again.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.dfg.expressions import (
    MATCH_TABLE,
    expression_namespace,
    op_expression,
    way_expression,
)
from repro.dfg.graph import Opcode
from repro.dpax.storage import StorageError
from repro.isa.compute import CUInstruction, Imm, Reg, VLIWInstruction
from repro.isa.control import ControlInstruction, ControlOp, Loc, Space

#: Why a control instruction stalled: ``(deque, limit, reason,
#: counted)``.  The thread stays blocked while ``len(deque) == limit``
#: (0: an empty queue it pops; the capacity: a full queue it pushes),
#: or, with no deque, while its PE's compute window is open (a fenced
#: RF/SPM access or a ``set``).  *counted* is the storage whose source
#: read each retry repeats (``reads += 1``), or None.
Wait = Tuple[Optional[Any], int, str, Optional[Any]]
#: A decoded control instruction: called with its PE or array; returns
#: None, or the :data:`Wait` it stalled on.
ControlHandler = Callable[[Any], Optional[Wait]]
#: A decoded bundle ``(run(rf, match_table), ways, alu_ops)``.
DecodedBundle = Tuple[Callable[[Any, Any], None], int, int]

_COMPARISONS = {
    ControlOp.BEQ: "==",
    ControlOp.BNE: "!=",
    ControlOp.BGE: ">=",
    ControlOp.BLT: "<",
}


class _Thread(NamedTuple):
    """What one kind of control thread can address, as source text."""

    #: Names the thread in illegal-space errors.
    subject: str
    #: The counter a completed instruction bumps.
    executed: str
    #: Indexed stores read / written (a RegisterFile, Scratchpad or
    #: DataBuffer, see :data:`_WORDS`), and queues popped / pushed.
    loads: Dict[Space, str]
    stores: Dict[Space, str]
    pops: Dict[Space, str]
    pushes: Dict[Space, str]
    #: Queues wired after construction (by the array, ``concatenate``
    #: and the mappings), so looked up -- and possibly missing -- at
    #: run time: queue expression -> what the error calls it.
    unwired: Dict[str, str]
    #: Indexed accesses wait for the compute thread (the conservative
    #: RF/SPM fence) and stores are clamped to the datapath width.
    owns_datapath: bool
    branch_error: str
    #: Body of ``set`` with ``{target}``/``{count}`` holes.
    set_unit: Tuple[str, ...]


_THREADS: Dict[str, _Thread] = {
    "pe": _Thread(
        subject="PE",
        executed="u.stats.control_executed",
        loads={Space.REG: "u.rf", Space.SPM: "u.spm"},
        stores={Space.REG: "u.rf", Space.SPM: "u.spm"},
        pops={Space.IN: "u.in_queue", Space.FIFO: "u.fifo_read"},
        pushes={Space.OUT: "u.out_target", Space.FIFO: "u.fifo_write"},
        unwired={
            "u.fifo_read": "FIFO read port",
            "u.out_target": "out port wired",
            "u.fifo_write": "FIFO write port",
        },
        owns_datapath=True,
        branch_error="branch left the program",
        set_unit=(
            "if u.compute_remaining > 0:",
            "    return (None, 0, 'compute_busy', None)",
            "if not 0 <= {target} <= len(u.compute):",
            "    raise StorageError('set target out of range: {target}')",
            "if {target} + {count} > len(u.compute):",
            "    raise StorageError('set count runs past the compute program')",
            "u.compute_pc = {target}",
            "u.compute_remaining = {count}",
        ),
    ),
    "array": _Thread(
        subject="array control",
        executed="u.control_executed",
        loads={Space.IBUF: "u.ibuf"},
        stores={Space.OBUF: "u.obuf"},
        pops={Space.IN: "u.tail_queue", Space.FIFO: "u.fifo"},
        pushes={Space.OUT: "u.pes[0].in_queue", Space.FIFO: "u.fifo"},
        unwired={},
        owns_datapath=False,
        branch_error="array branch left the program",
        set_unit=("u.pes[{target}].started = True",),
    ),
}


def wrap32(value: int) -> int:
    """Wrap to 32-bit two's complement (integer datapath width)."""
    return ((value + 2147483648) & 4294967295) - 2147483648


def _wrapped(value: str) -> str:
    """*value* wrapped to 32-bit two's complement, as one expression."""
    if f"{MATCH_TABLE}(" in value:
        # Every other template maps ints to ints; a match table may
        # return any number.
        value = f"int({value})"
    return f"(({value} + 2147483648) & 4294967295) - 2147483648"


#: Indexed spaces: (name in ``StorageError`` messages, words are a
#: list -- else a sparse dict read as 0 where unwritten).
_WORDS: Dict[Space, Tuple[str, bool]] = {
    Space.REG: ("RF", True),
    Space.SPM: ("SPM", False),
    Space.IBUF: ("buffer", False),
    Space.OBUF: ("buffer", False),
}


def _indexed(store: str, loc: Loc, access: str) -> Tuple[List[str], str]:
    """Lines binding ``s`` to the store at *loc* and counting one
    *access* (``read``/``write``) after its bounds check, and the index
    expression of the word."""
    name = _WORDS[loc.space][0]
    lines = [f"s = {store}"]
    if loc.indirect:
        lines += [
            f"i = u.aregs[{loc.index}]",
            "if not 0 <= i < s.size:",
            f"    raise StorageError(f'{name} {access} out of range: {{i}}')",
        ]
        index = "i"
    elif loc.index < 0:
        return lines + [f"raise StorageError('{name} {access} out of range: {loc.index}')"], ""
    else:
        lines += [
            f"if {loc.index} >= s.size:",
            f"    raise StorageError('{name} {access} out of range: {loc.index}')",
        ]
        index = repr(loc.index)
    return lines + [f"s.{access}s += 1"], index


def _unwired(thread: _Thread, queue: str, name: str) -> List[str]:
    if queue not in thread.unwired:
        return []
    return [
        f"if {name} is None:",
        f"    raise StorageError(f'PE {{u.pe_index}} has no {thread.unwired[queue]}')",
    ]


def _read(thread: _Thread, loc: Loc) -> List[str]:
    """Lines binding ``v`` to the word at *loc* (and ``q``/``e`` to the
    queue it was popped from and its deque); an empty queue stalls the
    thread."""
    space = loc.space
    if space in thread.loads:
        lines, index = _indexed(thread.loads[space], loc, "read")
        if index:
            listed = _WORDS[space][1]
            lines.append(f"v = s._words[{index}]" if listed else f"v = s._words.get({index}, 0)")
        return lines
    if space is Space.ADDR:
        return [f"v = u.aregs[{loc.index}]"]
    if space in thread.pops:
        queue = thread.pops[space]
        return [f"q = {queue}"] + _unwired(thread, queue, "q") + [
            "e = q._queue",
            "if not e:",
            f"    return (e, 0, '{space.value}_empty', None)",
            "q.pops += 1",
            "v = e.popleft()",
        ]
    return [f"raise StorageError('{thread.subject} cannot read space {space.value}')"]


def _write(
    thread: _Thread, loc: Loc, word: str, raw: str, source: Optional[Loc]
) -> List[str]:
    """Lines storing *word* (the datapath-clamped value; *raw* is the
    unclamped integer address registers take) at *loc*; *source* is
    where the word came from (None for an immediate).  A full queue
    stalls the thread, after handing a popped source word back."""
    space = loc.space
    if space in thread.stores:
        lines, index = _indexed(thread.stores[space], loc, "write")
        return lines + ([f"s._words[{index}] = {word}"] if index else [])
    if space is Space.ADDR:
        return [f"u.aregs[{loc.index}] = {raw}"]
    if space in thread.pushes:
        queue = thread.pushes[space]
        counted = "None"
        lines = [f"t = {queue}"] + _unwired(thread, queue, "t") + [
            "d = t._queue",
            "if len(d) >= t.capacity:",
        ]
        if source is not None and source.space in thread.pops:
            lines += ["    e.appendleft(v)", "    q.pops -= 1"]
        elif source is not None and source.space in thread.loads:
            counted = "s"
        return lines + [
            f"    return (d, t.capacity, '{space.value}_full', {counted})",
            f"d.append({word})",
            "t.pushes += 1",
        ]
    return [f"raise StorageError('{thread.subject} cannot write space {space.value}')"]


def _control_body(
    instruction: ControlInstruction, thread: _Thread, wraps: bool
) -> List[str]:
    op = instruction.op
    advance = ["u.pc += 1", f"{thread.executed} += 1"]
    if op is ControlOp.HALT:
        return ["u.halted = True", f"{thread.executed} += 1"]
    if op is ControlOp.NOOP:
        return advance
    if op is ControlOp.ADD:
        i = instruction
        return ["a = u.aregs", f"a[{i.rd}] = a[{i.rs1}] + a[{i.rs2}]"] + advance
    if op is ControlOp.ADDI:
        i = instruction
        return ["a = u.aregs", f"a[{i.rd}] = a[{i.rs1}] + {i.imm!r}"] + advance
    if op in _COMPARISONS:
        i = instruction
        return [
            "a = u.aregs",
            f"u.pc += {i.offset} if a[{i.rs1}] {_COMPARISONS[op]} a[{i.rs2}] else 1",
            "if not 0 <= u.pc <= len(u.control):",
            f"    raise StorageError(f'{thread.branch_error}: pc={{u.pc}}')",
            f"{thread.executed} += 1",
        ]
    if op is ControlOp.SET:
        return [
            line.format(target=instruction.target, count=instruction.count)
            for line in thread.set_unit
        ] + advance

    wraps = wraps and thread.owns_datapath
    dest, src = instruction.dest, instruction.src
    touched = [dest] if op is ControlOp.LI else [dest, src]
    body: List[str] = []
    if thread.owns_datapath and any(loc.space in thread.stores for loc in touched):
        body += ["if u.compute_remaining > 0:", "    return (None, 0, 'compute_fence', None)"]
    if op is ControlOp.LI:
        imm = instruction.imm
        word = repr(wrap32(int(imm))) if wraps else repr(imm)
        return body + _write(thread, dest, word, repr(int(imm)), None) + advance
    if op is ControlOp.MV:
        body += _read(thread, src)
        word = "v"
        if wraps and dest.space is not Space.ADDR:
            body.append(f"c = {_wrapped('int(v)')}")
            word = "c"
        return body + _write(thread, dest, word, "int(v)", src) + advance
    return [f"raise StorageError('unhandled control op {op}')"]


@functools.lru_cache(maxsize=None)
def _namespace() -> Dict[str, Any]:
    """The one globals dict every decoded function shares."""
    namespace = expression_namespace()
    namespace["StorageError"] = StorageError
    return namespace


def _compile(name: str, parameters: str, body: Sequence[str]) -> Callable:
    source = f"def {name}({parameters}):\n    " + "\n    ".join(body) + "\n"
    defined: Dict[str, Callable] = {}
    exec(compile(source, f"<dpax-{name}>", "exec"), _namespace(), defined)
    return defined[name]


@functools.lru_cache(maxsize=2048)
def decode_control(
    instruction: ControlInstruction, thread: str, wraps: bool = False
) -> ControlHandler:
    """The handler of one control instruction on a ``"pe"`` or
    ``"array"`` control thread; *wraps* is the PE's integer datapath
    (stores clamp to 32 bits).  Validates the instruction."""
    instruction.validate()
    return _compile("control", "u", _control_body(instruction, _THREADS[thread], wraps))


def _end_of_program(unit) -> None:
    """Running off the end of a control stream halts the thread."""
    unit.halted = True


def decode_program(
    control: Sequence[ControlInstruction], thread: str, wraps: bool = False
) -> List[ControlHandler]:
    """Handlers for a whole control stream, indexed by PC."""
    handlers = [decode_control(instruction, thread, wraps) for instruction in control]
    handlers.append(_end_of_program)
    return handlers


# ----------------------------------------------------------------------
# compute thread


def _register_reads(way: CUInstruction) -> List[Reg]:
    """The RF operands of *way* in the order the hardware reads them."""
    slots = (way.mul,) if way.kind == "mul" else (way.left, way.right)
    return [
        item
        for slot in slots
        if slot is not None
        for item in slot.operands
        if not isinstance(item, Imm)
    ]


def _scalar_operand(item) -> str:
    return repr(item.value) if isinstance(item, Imm) else f"w[{item.index}]"


def _simd_values(
    ways: Sequence[CUInstruction],
    reads: Sequence[Sequence[Reg]],
    lanes: int,
    has_match_table: bool,
    temporaries: List[str],
) -> Tuple[List[str], List[str]]:
    """Lane-wise execution with saturating lane arithmetic: every
    operand word is unpacked into signed lane locals up front, each
    operation runs per lane and saturates, the root's lanes repack."""
    bits = 32 // lanes
    mask, sign = (1 << bits) - 1, 1 << (bits - 1)
    low, high = -sign, sign - 1

    def saturate(expression: str) -> str:
        # max(low, min(high, x)) as the MAX/MIN templates spell it.
        top = op_expression(Opcode.MIN, [repr(high), expression], False, temporaries)
        return op_expression(Opcode.MAX, [repr(low), top], False, temporaries)

    unpack = [
        f"r{index}_{lane} = (((w[{index}] >> {bits * lane}) & {mask}) ^ {sign}) - {sign}"
        for index in sorted({reg.index for regs in reads for reg in regs})
        for lane in range(lanes)
    ]
    values = []
    for way in ways:
        packed = []
        for lane in range(lanes):

            def operand(item) -> str:
                if isinstance(item, Imm):  # immediates broadcast, saturated
                    return repr(max(low, min(high, item.value)))
                return f"r{item.index}_{lane}"

            value = way_expression(
                way, operand, has_match_table, temporaries, finish=saturate
            )
            packed.append(f"(({value} & {mask}) << {bits * lane})")
        values.append("(" + " | ".join(packed) + ")")
    return unpack, values


def _bundle_body(
    ways: Sequence[CUInstruction],
    rf_size: int,
    wraps: bool,
    simd_lanes: int,
    has_match_table: bool,
) -> List[str]:
    """Straight-line code of one bundle over ``w = rf._words``.

    Both CUs issue together: every operand is read before any
    destination is written (temporaries only where a way reads an
    earlier way's destination), then the static access counts are
    added in one step.  Register bounds are checked here, once; a
    bundle with an out-of-range register decodes to the prefix that
    would have run before the fault, followed by the ``StorageError``
    the access raises.
    """

    def fault(reads: int, writes: int, access: str, index: int) -> List[str]:
        return [
            f"rf.reads += {reads}",
            f"rf.writes += {writes}",
            f"raise StorageError('RF {access} out of range: {index}')",
        ]

    body = ["w = rf._words"]
    temporaries: List[str] = []
    reads = [_register_reads(way) for way in ways]
    total = 0
    for regs in reads:
        for reg in regs:
            if not 0 <= reg.index < rf_size:
                return body + fault(total, 0, "read", reg.index)
            total += 1

    if simd_lanes in (2, 4):
        unpack, values = _simd_values(
            ways, reads, simd_lanes, has_match_table, temporaries
        )
        body += unpack
        hazard = False  # the lane locals above are the pre-bundle image
    else:
        values = [
            way_expression(way, _scalar_operand, has_match_table, temporaries)
            for way in ways
        ]
        hazard = any(
            reg.index == earlier.dest.index
            for position, regs in enumerate(reads)
            for reg in regs
            for earlier in ways[:position]
        )
    if wraps:
        values = [_wrapped(value) for value in values]
    if hazard:
        body += [f"t{position} = {value}" for position, value in enumerate(values)]
        values = [f"t{position}" for position in range(len(values))]
    for written, (way, value) in enumerate(zip(ways, values)):
        dest = way.dest.index
        if not 0 <= dest < rf_size:
            return body + fault(total, written, "write", dest)
        body.append(f"w[{dest}] = {value}")
    return body + [f"rf.reads += {total}", f"rf.writes += {len(ways)}"]


@functools.lru_cache(maxsize=512)
def decode_bundle(
    bundle: VLIWInstruction,
    rf_size: int,
    wraps: bool,
    simd_lanes: int,
    has_match_table: bool,
) -> DecodedBundle:
    """Compile one VLIW bundle for a PE configuration.

    Returns ``(run, ways, alu_ops)``: ``run(rf, match_table)`` executes
    the bundle on a :class:`~repro.dpax.storage.RegisterFile`; the two
    counts are what the PE adds to its statistics and hands to the
    profiler.  The match table itself is an argument, not part of the
    key -- mappings build a fresh table closure per run, and a memo
    keyed on it would miss every time and pin every table.
    """
    bundle.validate()
    ways = bundle.ways
    body = _bundle_body(ways, rf_size, wraps, simd_lanes, has_match_table)
    run = _compile("bundle", f"rf, {MATCH_TABLE}", body)
    return run, len(ways), sum(way.alu_ops for way in ways)
