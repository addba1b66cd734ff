"""Forward interval dataflow over the shared ``LinearProgram`` model.

The analysis walks the same def/use-ordered way list the optimizer
passes transform (:func:`repro.opt.model.linearize`), so guard, opt,
and static literally share one program representation.  Because cell
programs are SSA and straight-line, one in-order pass per seeding is a
fixpoint; recurrence across *cell invocations* (this cell's outputs
feeding the next cell's recurrent inputs) is closed separately by
Kleene iteration with widening/narrowing in :func:`analyze_fixpoint`.

The abstract transfer for one way, :func:`abstract_way`, mirrors
:func:`repro.dpmap.codegen.execute_way` **step for step**, including
the order and count of ``observe`` callbacks -- that alignment is what
lets a certificate speak for every value the runtime sentinel would
have seen, and what the property tests in ``tests/properties`` check
by replaying concrete executions against the abstract observation
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.dfg.graph import OPCODE_ARITY
from repro.isa.compute import CUInstruction, Imm, SlotOp
from repro.opt.model import LinearProgram, linearize
from repro.static.intervals import Interval, transfer

#: Iteration cap for the feedback fixpoint; widening to the rails makes
#: real kernels converge in < 5 passes, so hitting this is a bug.
MAX_FIXPOINT_ITERATIONS = 32


def as_linear(program) -> LinearProgram:
    """Linearize a cell program or an engine ``CompiledProgram``.

    ``CompiledProgram`` carries no ``node_regs``; :func:`linearize`
    only reads it as a passthrough, so an empty mapping is fine.
    """
    if isinstance(program, LinearProgram):
        return program
    if hasattr(program, "node_regs"):
        return linearize(program)
    shim = SimpleNamespace(
        instructions=list(program.instructions),
        input_regs=dict(program.input_regs),
        output_regs=dict(program.output_regs),
        node_regs={},
    )
    return linearize(shim)


@dataclass(frozen=True)
class WayAnalysis:
    """Abstract result of one CU way.

    ``observed`` holds one interval per ``observe`` callback the
    runtime would issue for this way, in callback order.
    """

    index: int
    bundle: Optional[int]
    dest: int
    observed: Tuple[Interval, ...]
    result: Interval


@dataclass
class ProgramAnalysis:
    """One contract-seeded forward pass over a program."""

    ways: List[WayAnalysis]
    state: Dict[int, Interval]
    inputs: Dict[str, Interval]
    outputs: Dict[str, Interval]

    @property
    def observed(self) -> List[Interval]:
        """The full observation sequence, one entry per runtime
        ``observe`` call across one cell execution."""
        return [
            interval for way in self.ways for interval in way.observed
        ]


def abstract_way(
    way: CUInstruction,
    state: Dict[int, Interval],
    match_range: Optional[Interval] = None,
) -> Tuple[Interval, List[Interval]]:
    """Abstract mirror of ``execute_way``; returns (result, observed)."""
    observed: List[Interval] = []

    def operand(op) -> Interval:
        if isinstance(op, Imm):
            return Interval.const(op.value)
        # execute_way reads missing registers as 0 (rf.get(index, 0)).
        return state.get(op.index, Interval.const(0))

    def run_slot(slot: SlotOp) -> Interval:
        args = [operand(op) for op in slot.operands]
        value = transfer(slot.opcode, args, match_range)
        observed.append(value)
        return value

    if way.kind == "mul":
        return run_slot(way.mul), observed
    left_out = run_slot(way.left) if way.left is not None else None
    right_out = run_slot(way.right) if way.right is not None else None
    if way.root is None:
        result = left_out if left_out is not None else right_out
        return result, observed
    if OPCODE_ARITY[way.root] == 1:
        value = transfer(way.root, [left_out], match_range)
    else:
        inputs = [left_out, right_out]
        if way.root_swapped:
            inputs.reverse()
        value = transfer(way.root, inputs, match_range)
    observed.append(value)
    return value, observed


def analyze_program(
    program,
    contract_inputs: Dict[str, Interval],
    match_range: Optional[Interval] = None,
) -> ProgramAnalysis:
    """Forward value-range pass seeded from a declared input contract.

    Inputs missing from the contract start at lattice top (sound: the
    analysis then claims nothing about values derived from them).
    """
    lp = as_linear(program)
    state: Dict[int, Interval] = {}
    seeded: Dict[str, Interval] = {}
    for name, reg in lp.input_regs.items():
        interval = contract_inputs.get(name, Interval.top())
        seeded[name] = interval
        state[reg] = interval
    ways: List[WayAnalysis] = []
    for index, way in enumerate(lp.ways):
        result, observed = abstract_way(way, state, match_range)
        state[way.dest.index] = result
        ways.append(
            WayAnalysis(
                index=index,
                bundle=lp.origin_bundles[index],
                dest=way.dest.index,
                observed=tuple(observed),
                result=result,
            )
        )
    outputs = {
        name: state.get(reg, Interval.const(0))
        for name, reg in lp.output_regs.items()
    }
    return ProgramAnalysis(
        ways=ways, state=state, inputs=seeded, outputs=outputs
    )


@dataclass
class FixpointResult:
    """Steady-state summary of the cross-invocation recurrence."""

    analysis: ProgramAnalysis
    iterations: int
    #: True when one contract-seeded pass already maps every recurrent
    #: output back inside its declared input interval -- i.e. the
    #: contract is inductively closed and holds for *every* sweep
    #: length, not just per-invocation.  Monotone accumulator kernels
    #: (DTW's distance, LCS's counter, chaining's score) are expected
    #: to report False here: their certificates are per-invocation
    #: conditional and the contract's validity over whole sweeps is
    #: enforced empirically by the fuzz harness and the runtime
    #: sentinel cross-check.
    inductively_closed: bool
    #: Feedback-input intervals at the post-widening/narrowing fixpoint.
    steady_inputs: Dict[str, Interval] = field(default_factory=dict)


def analyze_fixpoint(
    program,
    contract_inputs: Dict[str, Interval],
    feedback: Dict[str, Tuple[str, ...]],
    match_range: Optional[Interval] = None,
    first: Optional[ProgramAnalysis] = None,
) -> FixpointResult:
    """Kleene-iterate the output -> recurrent-input feedback edges.

    Each iteration joins the previous pass's output intervals into the
    recurrent inputs named by *feedback*, widening to the rails after
    the first ascent so unbounded accumulators reach a stable (if
    coarse) summary; one narrowing descent then tightens endpoints the
    widening overshot.  *first*, when given, is the caller's
    :func:`analyze_program` pass on *contract_inputs*, reused as the
    first iteration; the program is linearized once for every pass.
    """
    program = as_linear(program)
    inputs = dict(contract_inputs)
    if first is None:
        first = analyze_program(program, inputs, match_range)
    closed = all(
        first.outputs[out].within(
            contract_inputs.get(name, Interval.top())
        )
        for out, names in feedback.items()
        if out in first.outputs
        for name in names
    )

    analysis = first
    iterations = 1
    while iterations < MAX_FIXPOINT_ITERATIONS:
        changed = False
        for out, names in feedback.items():
            if out not in analysis.outputs:
                continue
            produced = analysis.outputs[out]
            for name in names:
                old = inputs.get(name, Interval.top())
                grown = old.join(produced)
                if not grown.within(old):
                    inputs[name] = old.widen(grown)
                    changed = True
        if not changed:
            break
        analysis = analyze_program(program, inputs, match_range)
        iterations += 1

    # One narrowing descent: recompute from the widened inputs and pull
    # infinite endpoints back toward what the program actually produces.
    narrowed = dict(inputs)
    for out, names in feedback.items():
        if out not in analysis.outputs:
            continue
        produced = analysis.outputs[out]
        for name in names:
            declared = contract_inputs.get(name, Interval.top())
            refined = narrowed.get(name, Interval.top()).narrow(
                declared.join(produced)
            )
            narrowed[name] = refined
    analysis = analyze_program(program, narrowed, match_range)
    iterations += 1
    return FixpointResult(
        analysis=analysis,
        iterations=iterations,
        inductively_closed=closed,
        steady_inputs=narrowed,
    )
