"""Dataflow analysis + optimizing/linting passes over cell programs.

The DPMap compiler (:mod:`repro.dpmap`) emits correct but naive 2-way
VLIW programs.  This package adds the classic post-compile layer:

- :mod:`repro.opt.model` -- instruction-level def/use model.  Programs
  are loop-free and SSA-like (each register written once), so liveness,
  reachability, and heights are exact single-sweep computations.
- :mod:`repro.opt.passes` -- rewrite passes (constant folding, copy
  propagation, CSE, slot simplification, dead-code elimination) plus a
  height-priority VLIW re-packer, composed by :class:`PassPipeline`.
- :mod:`repro.opt.cost` -- the static cost model
  (:class:`ProgramCost`) feeding the tile-level performance model.
- :mod:`repro.opt.lint` -- the report-only analyses behind
  ``gendp-lint``.

A program's consumer contract -- the outputs :class:`PruneOutputsPass`
keeps -- is :func:`contract_for`, the feedback outputs its
:mod:`repro.static.contracts` declaration names.  The six
differential-fuzz kernels compile, optimized or not, through
:func:`repro.guard.diff.compile_kernel_programs`.

See ``docs/optimizer.md`` for the pass catalog and safety argument.
"""

from repro.opt.cost import ProgramCost, cost_of, program_stats
from repro.opt.lint import LintReport, ProgramLint, lint_program, run_lint
from repro.opt.model import (
    LinearProgram,
    NonSSAProgramError,
    critical_path,
    heights,
    linearize,
    live_sets,
    live_ways,
    peak_live,
    schedule_lower_bound,
)
from repro.opt.passes import (
    CommonSubexpressionPass,
    ConstantFoldPass,
    CopyPropagationPass,
    DeadCodePass,
    OptResult,
    Pass,
    PassPipeline,
    PruneOutputsPass,
    SimplifySlotsPass,
    default_pipeline,
    pack_ways,
)
from repro.static.contracts import contract_for

__all__ = [
    "CommonSubexpressionPass",
    "ConstantFoldPass",
    "CopyPropagationPass",
    "DeadCodePass",
    "LinearProgram",
    "LintReport",
    "NonSSAProgramError",
    "OptResult",
    "Pass",
    "PassPipeline",
    "ProgramCost",
    "ProgramLint",
    "PruneOutputsPass",
    "SimplifySlotsPass",
    "contract_for",
    "cost_of",
    "critical_path",
    "default_pipeline",
    "heights",
    "lint_program",
    "linearize",
    "live_sets",
    "live_ways",
    "pack_ways",
    "peak_live",
    "program_stats",
    "run_lint",
    "schedule_lower_bound",
]
