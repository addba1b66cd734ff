"""Generator for ``golden_observations.json``: what the interval
analysis sees in every compiled cell program, pinned.

The cases are every program :func:`repro.guard.diff.compile_kernel_programs`
builds for the fuzzed kernels and the five engine
:class:`~repro.engine.cache.CompiledProgram`\\ s, each as DPMap emits it
and optimized.  Per case: the contract-seeded pass's ``(lo, hi,
bundle)`` observation sequence and output intervals, the feedback
fixpoint's iteration count, closure flag and steady inputs, and the
certificate's ``to_dict()``.  ``None`` is an unbounded endpoint.
Regenerate (only when the analysis deliberately changes) with::

    PYTHONPATH=src python -m tests.static.golden_observations
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterator, Tuple

from repro.engine.cache import compile_program
from repro.engine.jobs import ENGINE_KERNELS
from repro.engine.runners import build_dfg
from repro.guard.diff import DIFF_KERNELS, compile_kernel_programs
from repro.opt import contract_for, default_pipeline
from repro.static.absint import analyze_fixpoint, analyze_program
from repro.static.certify import certify_program
from repro.static.contracts import kernel_contract

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_observations.json")

_FORMS = {False: "dpmap", True: "optimized"}


def programs() -> Iterator[Tuple[str, str, str, object]]:
    """(case, kernel, label, program) for every pinned program."""
    for kernel in DIFF_KERNELS:
        for optimize, form in _FORMS.items():
            compiled = compile_kernel_programs(kernel, optimize)
            for label, cell in compiled.named_cells():
                yield f"cell {label} {form}", kernel, label, cell
    for kernel in ENGINE_KERNELS:
        for optimize, form in _FORMS.items():
            pipeline = default_pipeline(contract_for(kernel)) if optimize else None
            compiled = compile_program(kernel, 2, build_dfg(kernel), pipeline)
            yield f"engine {kernel} {form}", kernel, kernel, compiled


def _pair(interval) -> list:
    return [interval.lo, interval.hi]


def observe(kernel: str, label: str, program) -> Dict[str, object]:
    """One case's record."""
    contract = kernel_contract(label)
    inputs, match_range = dict(contract.inputs), contract.match_range
    analysis = analyze_program(program, inputs, match_range)
    fixpoint = analyze_fixpoint(
        program, inputs, dict(contract.feedback), match_range, first=analysis
    )
    return {
        "observations": [
            [*_pair(interval), way.bundle]
            for way in analysis.ways
            for interval in way.observed
        ],
        "outputs": {name: _pair(value) for name, value in analysis.outputs.items()},
        "fixpoint_iterations": fixpoint.iterations,
        "inductively_closed": fixpoint.inductively_closed,
        "steady_inputs": {
            name: _pair(value) for name, value in fixpoint.steady_inputs.items()
        },
        "certificate": certify_program(kernel, program, name=label).to_dict(),
    }


def generate() -> Dict[str, Dict[str, object]]:
    return {
        case: observe(kernel, label, program)
        for case, kernel, label, program in programs()
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
