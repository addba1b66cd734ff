"""Opcode semantics as Python source: the codegen view of ``_apply``.

:func:`repro.dfg.graph._apply` is the concrete opcode table (one value
at a time), :mod:`repro.static` holds the abstract one (intervals), and
this module is the third and last: expression templates from which
straight-line Python is generated.  Two compilers build on it --
:mod:`repro.engine.specialize` (a whole cell program as one function of
named registers) and :mod:`repro.dpax.decode` (one VLIW bundle as one
function of the PE's register-file words) -- so it lives beside
``_apply``, below both, and imports neither.

Ways and slots are duck-typed (``repro.isa.compute`` imports this
package, not the other way round); how an operand turns into source
text -- a local name, an RF word, one SIMD lane of it -- is the
caller's business, passed in as a callback.

What a template may contain.  A template is one Python *expression*
(no statements: a way, and a SIMD lane of one, must stay a single
value a caller can wrap and pack), and it calls no builtin per ALU
operation.  In DPAx a ``MAX`` is one ALU of the reduction tree; as
``max(a, b)`` it is a global lookup, a vectorcall and a generic
argument walk (~90 ns) that cost more than the rest of a cell, so
``MAX``/``MIN`` are conditional expressions.  The calls that remain
(the match table and the two PairHMM look-ups) are tables, not ALUs.
Tie/NaN rule: ``max(a, b)`` is exactly ``b if b > a else a`` and
``min(a, b)`` is ``b if b < a else a`` -- the first operand wins ties
and any comparison a NaN makes false, so ``-0.0`` against ``0.0`` and
NaNs of the FP array give the very object the builtin gives.  The
templates spell ``b > a`` as ``a < b`` (the same answer for every pair
of ints and floats) so that operands are still evaluated once each,
left before right, as the call evaluated its arguments.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.dfg.graph import OPCODE_ARITY, Opcode

#: The name generated code calls the MATCH_SCORE table by: a global of
#: :func:`expression_namespace` or a parameter shadowing it.  The only
#: template whose result type its operands do not determine.
MATCH_TABLE = "_match"

#: Opcode -> expression template.  A numbered hole (``{0}``, ``{1}``...)
#: is where that operand is evaluated; ``{a}`` / ``{b}`` read operand
#: 0 / 1 *again* after its numbered hole ran (see :func:`op_expression`).
#: Semantics mirror :func:`repro.dfg.graph._apply` exactly; any new
#: opcode must be added here *and* covered by the differential tests.
_EXPRESSIONS: Dict[Opcode, str] = {
    Opcode.ADD: "({0} + {1})",
    Opcode.SUB: "({0} - {1})",
    Opcode.MUL: "({0} * {1})",
    Opcode.CARRY: "(1 if {0} + {1} >= 4294967296 else 0)",
    Opcode.BORROW: "(1 if {0} < {1} else 0)",
    Opcode.MAX: "({b} if {0} < {1} else {a})",
    Opcode.MIN: "({b} if {0} > {1} else {a})",
    Opcode.SHL16: "({0} << 16)",
    Opcode.SHR16: "({0} >> 16)",
    Opcode.COPY: "{0}",
    Opcode.MATCH_SCORE: MATCH_TABLE + "({0}, {1})",
    Opcode.LOG2_LUT: "(0 if {0} <= 0 else int(_log2({a}) * 2.0))",
    Opcode.LOG_SUM_LUT: "_log_sum({0}, {1})",
    Opcode.CMP_GT: "({2} if {0} > {1} else {3})",
    Opcode.CMP_EQ: "({2} if {0} == {1} else {3})",
    Opcode.NOP: "0",
    Opcode.HALT: "0",
}

#: MATCH_SCORE fallback when no match table is bound (mirrors _apply).
_DEFAULT_MATCH = "(1 if {0} == {1} else -1)"


def expression_namespace(match_table: Optional[Callable] = None) -> Dict[str, Any]:
    """The globals generated code evaluates the templates in."""
    from repro.kernels.pairhmm import log_sum_lookup

    return {MATCH_TABLE: match_table, "_log2": math.log2, "_log_sum": log_sum_lookup}


def _repeatable(text: str) -> bool:
    """A local name or an integer literal: reading it twice is free."""
    return text.isidentifier() or text.lstrip("-").isdigit()


def op_expression(
    opcode: Opcode,
    operands: Sequence[str],
    has_match_table: bool,
    temporaries: List[str],
) -> str:
    """Source of one operation applied to already-rendered operands.

    Every operand is evaluated once, in order.  Where the template
    reads one again, a name or literal is simply repeated and anything
    else is bound where it is evaluated, by an assignment expression,
    to a fresh local ``_t<n>``.  *temporaries* is the list of those
    names so far in the function being generated (start it empty,
    pass the same list for every operation): it keeps them unique in
    the function and the text the same on every generation.
    """
    if opcode is Opcode.MATCH_SCORE and not has_match_table:
        template = _DEFAULT_MATCH
    else:
        template = _EXPRESSIONS.get(opcode)
    if template is None:
        raise ValueError(f"no expression template for opcode {opcode}")
    evaluated, again = list(operands), {}
    for position, (hole, text) in enumerate(zip("ab", operands)):
        if "{%s}" % hole not in template:
            continue
        if not _repeatable(text):
            evaluated[position] = f"(_t{len(temporaries)} := {text})"
            text = f"_t{len(temporaries)}"
            temporaries.append(text)
        again[hole] = text
    return template.format(*evaluated, **again)


def way_expression(
    way,
    operand: Callable[[Any], str],
    has_match_table: bool,
    temporaries: List[str],
    finish: Callable[[str], str] = str,
) -> str:
    """Source of the value one CU way writes to its destination.

    ``operand`` renders each slot operand, called in the order the
    hardware reads them (left slot, then right; or the multiplier's);
    ``temporaries`` is :func:`op_expression`'s list of bound names, one
    per generated function; ``finish`` post-processes every operation's
    result (SIMD lane saturation; the identity by default).  A tree
    with no root forwards its left leaf, else its right one, exactly
    like :func:`repro.dpmap.codegen.execute_way`.
    """

    def apply(opcode: Opcode, inputs: Sequence[str]) -> str:
        return finish(op_expression(opcode, inputs, has_match_table, temporaries))

    def slot(op) -> str:
        return apply(op.opcode, [operand(item) for item in op.operands])

    if way.kind == "mul":
        return slot(way.mul)
    left = slot(way.left) if way.left is not None else None
    right = slot(way.right) if way.right is not None else None
    if way.root is None:
        expr = left if left is not None else right
        if expr is None:
            raise ValueError("tree way with no populated leaf")
        return expr
    if OPCODE_ARITY[way.root] == 1:
        inputs = [left]
    else:
        inputs = [right, left] if way.root_swapped else [left, right]
    return apply(way.root, inputs)
