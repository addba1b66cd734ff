"""The interval (value-range) abstract domain.

One :class:`Interval` over-approximates the set of concrete integers a
register (or SPM slot, or address register) may hold.  ``None``
endpoints mean unbounded, so ``Interval(None, None)`` is the lattice
top.  Every transfer function here is a sound abstraction of the
concrete ALU semantics in :func:`repro.dfg.graph._apply`: for any
concrete arguments inside the argument intervals, the concrete result
lies inside the returned interval (the property the fuzz soundness
harness in ``tests/properties`` hammers on).

Widening jumps endpoints outward to the machine's power-of-two rails
(8-bit SIMD lanes, the +/-2^20 log-domain floor, the int32 boundary)
instead of creeping one step per iteration, so feedback fixpoints over
recurrent DP state converge in a handful of passes; narrowing then
claws back the unbounded endpoints the widening introduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.datapath import INT32_MAX, INT32_MIN, LANE8_MAX, LANE8_MIN
from repro.dfg.graph import OPCODE_ARITY, Opcode
from repro.isa.values import Node, Ref
from repro.kernels.pairhmm import LOG_FRACTION_BITS

#: Widening rails, outermost last: the 8-bit lane boundary, the log
#: fixed-point "minus infinity" magnitude, and the int32 boundary.
#: A widened endpoint lands on the nearest rail that still contains it;
#: past the last rail it drops to unbounded.
WIDENING_RAILS = (1 << 7, 1 << 20, 1 << 31)

#: LOG_SUM_LUT's correction term is bounded by one unit of log2(2) at
#: the fixed-point scale: result in [max(a, b), max(a, b) + scale].
_LOG_SUM_SLACK = 1 << LOG_FRACTION_BITS

_NEG_INF = float("-inf")
_POS_INF = float("inf")


def _lo_key(value: Optional[int]) -> float:
    return _NEG_INF if value is None else value


def _hi_key(value: Optional[int]) -> float:
    return _POS_INF if value is None else value


def _add(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None or b is None:
        return None
    return a + b


@dataclass(frozen=True)
class Interval:
    """A closed integer interval; ``None`` endpoints are unbounded."""

    lo: Optional[int]
    hi: Optional[int]

    def __post_init__(self) -> None:
        if (
            self.lo is not None
            and self.hi is not None
            and self.lo > self.hi
        ):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- constructors --------------------------------------------------

    @staticmethod
    def top() -> "Interval":
        return Interval(None, None)

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    # -- predicates ----------------------------------------------------

    @property
    def bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def within(self, other: "Interval") -> bool:
        """True when every value of self lies inside *other*."""
        if other.lo is not None and (self.lo is None or self.lo < other.lo):
            return False
        if other.hi is not None and (self.hi is None or self.hi > other.hi):
            return False
        return True

    def definitely_above(self, bound: int) -> bool:
        """True when every value of self is > *bound*."""
        return self.lo is not None and self.lo > bound

    # -- lattice operations --------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        lo = None
        if self.lo is not None and other.lo is not None:
            lo = min(self.lo, other.lo)
        hi = None
        if self.hi is not None and other.hi is not None:
            hi = max(self.hi, other.hi)
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> Optional["Interval"]:
        """Intersection; ``None`` when the intervals are disjoint."""
        lo = max(_lo_key(self.lo), _lo_key(other.lo))
        hi = min(_hi_key(self.hi), _hi_key(other.hi))
        if lo > hi:
            return None
        return Interval(
            None if lo == _NEG_INF else int(lo),
            None if hi == _POS_INF else int(hi),
        )

    def widen(self, newer: "Interval") -> "Interval":
        """Classic threshold widening of self toward *newer*."""
        lo = self.lo
        if newer.lo is None:
            lo = None
        elif lo is not None and newer.lo < lo:
            lo = _rail_below(newer.lo)
        hi = self.hi
        if newer.hi is None:
            hi = None
        elif hi is not None and newer.hi > hi:
            hi = _rail_above(newer.hi)
        return Interval(lo, hi)

    def narrow(self, newer: "Interval") -> "Interval":
        """Refine only the endpoints widening pushed to infinity."""
        lo = newer.lo if self.lo is None else self.lo
        hi = newer.hi if self.hi is None else self.hi
        if lo is not None and hi is not None and lo > hi:
            return newer
        return Interval(lo, hi)

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


def _rail_below(value: int) -> Optional[int]:
    for rail in WIDENING_RAILS:
        if value >= -rail:
            return -rail
    return None


def _rail_above(value: int) -> Optional[int]:
    for rail in WIDENING_RAILS:
        if value <= rail:
            return rail
    return None


#: The two hazard rails the sentinels watch, as intervals.
INT32 = Interval(INT32_MIN, INT32_MAX)
LANE8 = Interval(LANE8_MIN, LANE8_MAX)


# ----------------------------------------------------------------------
# arithmetic transfers


def _interval_add(a: Interval, b: Interval) -> Interval:
    return Interval(_add(a.lo, b.lo), _add(a.hi, b.hi))


def _interval_sub(a: Interval, b: Interval) -> Interval:
    return Interval(_add(a.lo, _neg(b.hi)), _add(a.hi, _neg(b.lo)))


def _neg(value: Optional[int]) -> Optional[int]:
    return None if value is None else -value


def _interval_mul(a: Interval, b: Interval) -> Interval:
    def product(x: float, y: float) -> float:
        # inf * 0 is 0 here: a genuinely-zero factor pins the product.
        if x == 0 or y == 0:
            return 0
        return x * y

    corners = [
        product(x, y)
        for x in (_lo_key(a.lo), _hi_key(a.hi))
        for y in (_lo_key(b.lo), _hi_key(b.hi))
    ]
    lo, hi = min(corners), max(corners)
    return Interval(
        None if lo == _NEG_INF else int(lo),
        None if hi == _POS_INF else int(hi),
    )


def _interval_max(a: Interval, b: Interval) -> Interval:
    lo = max(_lo_key(a.lo), _lo_key(b.lo))
    hi = max(_hi_key(a.hi), _hi_key(b.hi))
    return Interval(
        None if lo == _NEG_INF else int(lo),
        None if hi == _POS_INF else int(hi),
    )


def _interval_min(a: Interval, b: Interval) -> Interval:
    lo = min(_lo_key(a.lo), _lo_key(b.lo))
    hi = min(_hi_key(a.hi), _hi_key(b.hi))
    return Interval(
        None if lo == _NEG_INF else int(lo),
        None if hi == _POS_INF else int(hi),
    )


def _interval_carry(a: Interval, b: Interval) -> Interval:
    total = _interval_add(a, b)
    edge = 1 << 32
    if total.hi is not None and total.hi < edge:
        return Interval.const(0)
    if total.lo is not None and total.lo >= edge:
        return Interval.const(1)
    return Interval(0, 1)


def _interval_borrow(a: Interval, b: Interval) -> Interval:
    # BORROW(a, b) = 1 iff a < b.
    if a.hi is not None and b.lo is not None and a.hi < b.lo:
        return Interval.const(1)
    if a.lo is not None and b.hi is not None and a.lo >= b.hi:
        return Interval.const(0)
    return Interval(0, 1)


def _log2_lut(value: int) -> int:
    # Mirrors _apply's LOG2_LUT: 0 for value <= 0, else int(log2 * 2).
    if value <= 0:
        return 0
    return int(math.log2(value) * 2.0)


def _interval_log2(a: Interval) -> Interval:
    if a.hi is None:
        hi: Optional[int] = None
    else:
        hi = _log2_lut(a.hi)
    if a.lo is None or a.lo <= 0:
        lo = 0
        hi = hi if hi is None else max(hi, 0)
    else:
        lo = _log2_lut(a.lo)
    return Interval(lo, hi)


def _interval_log_sum(a: Interval, b: Interval) -> Interval:
    # log_sum_lookup(a, b) = max(a, b) + table[|a - b|], and the table
    # is bounded by [0, scale]; the result is monotone in both args.
    base = _interval_max(a, b)
    return Interval(base.lo, _add(base.hi, _LOG_SUM_SLACK))


def _interval_shl16(a: Interval) -> Interval:
    scale = 1 << 16
    return _interval_mul(a, Interval.const(scale))


def _interval_shr16(a: Interval) -> Interval:
    # Arithmetic shift is monotone: shift the endpoints.
    return Interval(
        None if a.lo is None else a.lo >> 16,
        None if a.hi is None else a.hi >> 16,
    )


def _interval_select(
    taken: Interval, not_taken: Interval, decided: Optional[bool]
) -> Interval:
    if decided is True:
        return taken
    if decided is False:
        return not_taken
    return taken.join(not_taken)


def _gt_decision(a: Interval, b: Interval) -> Optional[bool]:
    if a.lo is not None and b.hi is not None and a.lo > b.hi:
        return True
    if a.hi is not None and b.lo is not None and a.hi <= b.lo:
        return False
    return None


def _eq_decision(a: Interval, b: Interval) -> Optional[bool]:
    if (
        a.lo is not None
        and a.lo == a.hi
        and b.lo is not None
        and b.lo == b.hi
        and a.lo == b.lo
    ):
        return True
    if a.meet(b) is None:
        return False
    return None


def selected(opcode: Opcode, args: Sequence[Interval]) -> Optional[int]:
    """The operand a select-like opcode returns for *every* concrete
    argument inside *args* (its index), or ``None`` when the intervals
    do not decide it.  ``MAX(a, b)`` is ``b if a < b else a`` and
    ``MIN(a, b)`` ``b if a > b else a``, as :func:`repro.dfg.graph._apply`."""
    if opcode is Opcode.COPY:
        return 0
    if opcode in (Opcode.MAX, Opcode.MIN):
        a, b = args[0], args[1]
        decided = _gt_decision(b, a) if opcode is Opcode.MAX else _gt_decision(a, b)
        return None if decided is None else int(decided)
    if opcode in (Opcode.CMP_GT, Opcode.CMP_EQ):
        decide = _gt_decision if opcode is Opcode.CMP_GT else _eq_decision
        decided = decide(args[0], args[1])
        return None if decided is None else 3 - int(decided)
    return None


def transfer(
    opcode: Opcode,
    args: Sequence[Interval],
    match_range: Optional[Interval] = None,
) -> Interval:
    """Abstract counterpart of :func:`repro.dfg.graph._apply`."""
    if OPCODE_ARITY[opcode] > len(args):
        raise ValueError(
            f"{opcode!r} needs {OPCODE_ARITY[opcode]} args, got {len(args)}"
        )
    if opcode is Opcode.ADD:
        return _interval_add(args[0], args[1])
    if opcode is Opcode.SUB:
        return _interval_sub(args[0], args[1])
    if opcode is Opcode.MUL:
        return _interval_mul(args[0], args[1])
    if opcode is Opcode.CARRY:
        return _interval_carry(args[0], args[1])
    if opcode is Opcode.BORROW:
        return _interval_borrow(args[0], args[1])
    if opcode is Opcode.MAX:
        return _interval_max(args[0], args[1])
    if opcode is Opcode.MIN:
        return _interval_min(args[0], args[1])
    if opcode is Opcode.SHL16:
        return _interval_shl16(args[0])
    if opcode is Opcode.SHR16:
        return _interval_shr16(args[0])
    if opcode is Opcode.COPY:
        return args[0]
    if opcode is Opcode.MATCH_SCORE:
        # The concrete result comes from the kernel's substitution /
        # emission table; the contract declares its range.  Without a
        # declared range, the default +1/-1 scorer applies.
        return match_range if match_range is not None else Interval(-1, 1)
    if opcode is Opcode.LOG2_LUT:
        return _interval_log2(args[0])
    if opcode is Opcode.LOG_SUM_LUT:
        return _interval_log_sum(args[0], args[1])
    if opcode is Opcode.CMP_GT:
        return _interval_select(
            args[2], args[3], _gt_decision(args[0], args[1])
        )
    if opcode is Opcode.CMP_EQ:
        return _interval_select(
            args[2], args[3], _eq_decision(args[0], args[1])
        )
    if opcode in (Opcode.NOP, Opcode.HALT):
        return Interval.const(0)
    raise ValueError(f"no interval transfer for opcode {opcode!r}")


def evaluate(
    nodes: Sequence[Node],
    leaf: Callable[[str], Interval],
    match_range: Optional[Interval] = None,
    forced: Optional[Mapping[int, Ref]] = None,
) -> List[Tuple[Optional[str], Interval]]:
    """Per node of a :func:`repro.isa.values.slot_graph`, in order: the
    input it provably equals (its name, or ``None``) and its interval.

    An input operand is *leaf* of its name, a literal its constant, a
    node what this pass gave it.  The interval is :func:`transfer`'s;
    a node equals an input when :func:`selected` decides it returns an
    operand that equals it.  A node in *forced* is a COPY of the operand
    given there instead (a select assumed decided).
    """
    equals: List[Optional[str]] = []
    intervals: List[Interval] = []
    for number, (opcode, operands) in enumerate(nodes):
        if forced and number in forced:
            opcode, operands = Opcode.COPY, (forced[number],)
        args = [
            intervals[operand] if isinstance(operand, int)
            else leaf(operand) if isinstance(operand, str)
            else Interval.const(operand.value)
            for operand in operands
        ]
        intervals.append(transfer(opcode, args, match_range))
        pick = selected(opcode, args)
        operand = None if pick is None else operands[pick]
        equals.append(
            equals[operand] if isinstance(operand, int)
            else operand if isinstance(operand, str) else None
        )
    return list(zip(equals, intervals))
