"""Forward interval dataflow over a cell program's value graph.

The analysis reads the program as the engine's cell emitters and
Chain's band split read it, one slot-level value graph
(:func:`repro.isa.values.slot_graph`), here built eagerly, and runs
the one interval evaluator the band split runs too
(:func:`repro.static.intervals.evaluate`): the engine and static
literally share one program representation, and the optimizer shares
its single-assignment check (:func:`repro.isa.values.check_ssa`).
Because cell programs are SSA and straight-line, one in-order pass per
seeding is a fixpoint; recurrence across *cell invocations* (this
cell's outputs feeding the next cell's recurrent inputs) is closed
separately by Kleene iteration with widening/narrowing in
:func:`analyze_fixpoint`.

The eager graph has one node per ``observe`` callback of
:func:`repro.dpmap.codegen.execute_way`, in callback order (each way's
slots, then its root) -- that alignment is what lets a certificate
speak for every value the runtime sentinel would have seen, and what
the property tests in ``tests/properties`` check by replaying concrete
executions against the abstract observation sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.values import SlotGraph, check_ssa, slot_graph
from repro.static.intervals import Interval, evaluate

#: Iteration cap for the feedback fixpoint; widening to the rails makes
#: real kernels converge in < 5 passes, so hitting this is a bug.
MAX_FIXPOINT_ITERATIONS = 32


def program_graph(program) -> SlotGraph:
    """The eager slot graph of a cell program or an engine
    ``CompiledProgram`` (a graph is its own); raises
    :class:`~repro.isa.values.NonSSAProgramError` unless it is SSA."""
    if isinstance(program, SlotGraph):
        return program
    check_ssa(program)
    return slot_graph(program, list(program.output_regs), lazy=False)


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


def analyze_program(
    program,
    contract_inputs: Dict[str, Interval],
    match_range: Optional[Interval] = None,
) -> ProgramAnalysis:
    """Forward value-range pass seeded from a declared input contract.

    Inputs missing from the contract start at lattice top (sound: the
    analysis then claims nothing about values derived from them).
    """
    graph = program_graph(program)
    seeded, results = _evaluate(graph, contract_inputs, match_range)
    state = {graph.inputs[name]: interval for name, interval in seeded.items()}
    ways: List[WayAnalysis] = []
    for index, (value, final) in enumerate(zip(graph.graph.values, graph.finals)):
        # A value's nodes are its slots then its root, right after the
        # previous value's.
        start = graph.finals[index - 1] + 1 if index else 0
        dest = value.way.dest.index
        state[dest] = results[final]
        observed = tuple(results[start : final + 1])
        ways.append(WayAnalysis(index, value.bundle, dest, observed, results[final]))
    return ProgramAnalysis(
        ways=ways, state=state, inputs=seeded, outputs=_outputs(graph, seeded, results)
    )


def _evaluate(
    graph: SlotGraph,
    contract_inputs: Dict[str, Interval],
    match_range: Optional[Interval],
) -> Tuple[Dict[str, Interval], List[Interval]]:
    """The seeded inputs (missing ones at top) and every node's interval."""
    seeded = {name: contract_inputs.get(name, Interval.top()) for name in graph.inputs}
    results = [item for _, item in evaluate(graph.nodes, seeded.__getitem__, match_range)]
    return seeded, results


def _outputs(
    graph: SlotGraph, seeded: Dict[str, Interval], results: List[Interval]
) -> Dict[str, Interval]:
    """Each program output's interval: its node's, its input's, or its
    literal's."""
    return {
        name: results[end] if isinstance(end, int)
        else seeded[end] if isinstance(end, str) else Interval.const(end.value)
        for name, end in graph.ends.items()
    }


@dataclass
class FixpointResult:
    """Steady-state summary of the cross-invocation recurrence."""

    #: Forward passes of the ascent, plus one for the narrowing step
    #: (counted, not run: nothing reads a pass over the narrowed inputs).
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
    first iteration; the graph is built once for every pass, and each
    pass keeps only its outputs.
    """
    graph = program_graph(program)
    inputs = dict(contract_inputs)
    outputs = (
        _outputs(graph, *_evaluate(graph, inputs, match_range))
        if first is None
        else first.outputs
    )
    closed = all(
        outputs[out].within(
            contract_inputs.get(name, Interval.top())
        )
        for out, names in feedback.items()
        if out in outputs
        for name in names
    )

    iterations = 1
    while iterations < MAX_FIXPOINT_ITERATIONS:
        changed = False
        for out, names in feedback.items():
            if out not in outputs:
                continue
            produced = outputs[out]
            for name in names:
                old = inputs.get(name, Interval.top())
                grown = old.join(produced)
                if not grown.within(old):
                    inputs[name] = old.widen(grown)
                    changed = True
        if not changed:
            break
        outputs = _outputs(graph, *_evaluate(graph, inputs, match_range))
        iterations += 1

    # One narrowing descent: pull the widened inputs' infinite
    # endpoints back toward what the program actually produces.
    narrowed = dict(inputs)
    for out, names in feedback.items():
        if out not in outputs:
            continue
        produced = outputs[out]
        for name in names:
            declared = contract_inputs.get(name, Interval.top())
            refined = narrowed.get(name, Interval.top()).narrow(
                declared.join(produced)
            )
            narrowed[name] = refined
    iterations += 1
    return FixpointResult(
        iterations=iterations,
        inductively_closed=closed,
        steady_inputs=narrowed,
    )
