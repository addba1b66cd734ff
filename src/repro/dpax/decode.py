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
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

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

#: A decoded control instruction: called with its PE or array.
ControlHandler = Callable[[Any], None]
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
    #: Indexed stores read through ``.read(i)`` / written through
    #: ``.write(i, x)``, and queues popped / pushed.
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
            "    u._stall('compute_busy')",
            "    return",
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


def _index(loc: Loc) -> str:
    return f"u.aregs[{loc.index}]" if loc.indirect else repr(loc.index)


def _read(thread: _Thread, loc: Loc) -> List[str]:
    """Lines binding ``v`` to the word at *loc* (and ``q`` to the queue
    it was popped from); an empty queue stalls the thread."""
    space = loc.space
    if space in thread.loads:
        return [f"v = {thread.loads[space]}.read({_index(loc)})"]
    if space is Space.ADDR:
        return [f"v = u.aregs[{loc.index}]"]
    if space in thread.pops:
        queue = thread.pops[space]
        lines = [f"q = {queue}"]
        if queue in thread.unwired:
            lines += [
                "if q is None:",
                f"    raise StorageError(f'PE {{u.pe_index}} has no {thread.unwired[queue]}')",
            ]
        return lines + [
            "v = q.pop()",
            "if v is None:",
            f"    u._stall('{space.value}_empty')",
            "    return",
        ]
    return [f"raise StorageError('{thread.subject} cannot read space {space.value}')"]


def _write(thread: _Thread, loc: Loc, word: str, raw: str, popped: bool) -> List[str]:
    """Lines storing *word* (the datapath-clamped value; *raw* is the
    unclamped integer address registers take) at *loc*.  A full queue
    stalls the thread, after handing a popped source word back."""
    space = loc.space
    if space in thread.stores:
        return [f"{thread.stores[space]}.write({_index(loc)}, {word})"]
    if space is Space.ADDR:
        return [f"u.aregs[{loc.index}] = {raw}"]
    if space in thread.pushes:
        queue = thread.pushes[space]
        lines = [f"t = {queue}"]
        if queue in thread.unwired:
            lines += [
                "if t is None:",
                f"    raise StorageError(f'PE {{u.pe_index}} has no {thread.unwired[queue]}')",
            ]
        lines.append(f"if not t.push({word}):")
        if popped:
            lines.append("    q.unpop(v)")
        return lines + [f"    u._stall('{space.value}_full')", "    return"]
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
        body += ["if u.compute_remaining > 0:", "    u._stall('compute_fence')", "    return"]
    if op is ControlOp.LI:
        imm = instruction.imm
        word = repr(wrap32(int(imm))) if wraps else repr(imm)
        return body + _write(thread, dest, word, repr(int(imm)), popped=False) + advance
    if op is ControlOp.MV:
        body += _read(thread, src)
        word = "v"
        if wraps and dest.space is not Space.ADDR:
            body.append(f"c = {_wrapped('int(v)')}")
            word = "c"
        popped = src.space in thread.pops
        return body + _write(thread, dest, word, "int(v)", popped) + advance
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
