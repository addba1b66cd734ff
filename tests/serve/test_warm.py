"""Cell specialization: codegen'd cells match the interpreter.

:func:`repro.engine.specialize.specialize_cell` (still importable from
``repro.serve.warm``, which the repo benchmark uses) turns a compiled
VLIW cell program into straight-line Python.  The contract is *exact*
semantic equality with the interpreted executor -- same outputs for
the same register-file inputs, across every engine kernel -- because
``run_job`` runs the specialized cell on every backend by default and
every backend promises byte-identical results.  The interpreter is
requested explicitly, by passing ``_cell_executor``'s closure.
"""

import random

import pytest

from repro.engine.cache import compile_program
from repro.engine.jobs import ENGINE_KERNELS
from repro.engine.runners import (
    _cell_executor,
    build_dfg,
    match_table_for,
    run_job,
)
from repro.serve.warm import SpecializationError, specialize_cell, specialize_source
from repro.workloads.anchors import generate_chain_workload
from repro.workloads.haplotypes import generate_pairhmm_workload
from repro.workloads.reads import generate_bsw_workload


def _compiled(kernel):
    return compile_program(kernel, 2, build_dfg(kernel))


def _payloads(kernel, count, seed):
    rng = random.Random(seed)
    if kernel == "bsw":
        pairs = generate_bsw_workload(
            count=count, query_length=20, target_length=16, seed=seed
        ).pairs
        return [{"query": p.query, "target": p.target} for p in pairs]
    if kernel == "pairhmm":
        pairs = generate_pairhmm_workload(
            regions=count,
            reads_per_region=1,
            haplotypes_per_region=1,
            read_length=12,
            haplotype_length=10,
            seed=seed,
        ).pairs
        return [{"read": p.read, "haplotype": p.haplotype} for p in pairs[:count]]
    if kernel == "lcs":
        alphabet = "ACGT"
        return [
            {
                "x": "".join(rng.choice(alphabet) for _ in range(18)),
                "y": "".join(rng.choice(alphabet) for _ in range(15)),
            }
            for _ in range(count)
        ]
    if kernel == "dtw":
        return [
            {
                "a": [rng.randrange(-50, 50) for _ in range(14)],
                "b": [rng.randrange(-50, 50) for _ in range(12)],
            }
            for _ in range(count)
        ]
    if kernel == "chain":
        tasks = generate_chain_workload(
            tasks=count, anchors_per_task=16, seed=seed
        ).tasks
        return [
            {"anchors": [[a.x, a.y, a.w] for a in task.anchors]}
            for task in tasks
        ]
    raise AssertionError(kernel)


@pytest.mark.parametrize("kernel", ENGINE_KERNELS)
def test_specialized_cell_matches_interpreter_on_real_workloads(kernel):
    """The end-to-end contract every executor relies on, per kernel."""
    compiled = _compiled(kernel)
    table = match_table_for(kernel)
    cell = specialize_cell(compiled, table)
    oracle = _cell_executor(compiled, table)
    for seed, payload in enumerate(_payloads(kernel, 4, seed=23)):
        interpreted = run_job(kernel, compiled, dict(payload), oracle)
        assert run_job(kernel, compiled, dict(payload), cell) == interpreted, (
            kernel, seed,
        )
        # cell=None is the same specialized function, from the memo.
        assert run_job(kernel, compiled, dict(payload)) == interpreted, (
            kernel, seed,
        )


@pytest.mark.parametrize("kernel", ("bsw", "lcs", "dtw", "chain"))
def test_specialized_cell_matches_interpreter_on_random_register_images(kernel):
    """Direct cell-level differential over random integer inputs.

    (pairhmm is covered end-to-end above; its LOG_SUM lookup only
    accepts the value ranges real payloads produce.)
    """
    compiled = _compiled(kernel)
    table = match_table_for(kernel)
    interpreted = _cell_executor(compiled, table)
    specialized = specialize_cell(compiled, table)
    rng = random.Random(0xDA7A)
    for _ in range(50):
        inputs = [rng.randrange(-1000, 1000) for _ in compiled.input_regs]
        outputs = specialized(*inputs)
        assert outputs == interpreted(*inputs), inputs
        assert len(outputs) == len(compiled.output_regs)


def test_specialize_source_is_straight_line_python():
    compiled = _compiled("bsw")
    source = specialize_source(compiled, has_match_table=True)
    # Positional convention: input_regs order in, output_regs order out.
    parameters = ", ".join(f"r{index}" for index in compiled.input_regs.values())
    assert f"def _cell({parameters}):" in source
    outputs = "".join(f"r{index}, " for index in compiled.output_regs.values())
    assert f"return ({outputs})" in source
    # A verified program writes every register before reading it, so
    # nothing is zero-initialised.
    assert " = 0\n" not in source
    # No loops, no interpreter dispatch: that is the whole point.
    for banned in ("for ", "while ", "Opcode"):
        assert banned not in source, banned


def test_specialize_rejects_programs_with_unknown_opcodes():
    compiled = _compiled("lcs")
    hacked = type(compiled).__new__(type(compiled))
    object.__setattr__(hacked, "__dict__", dict(vars(compiled)))

    class FakeOp:
        opcode = "NOT_AN_OPCODE"

    object.__setattr__(hacked, "instructions", (FakeOp(),))
    with pytest.raises((SpecializationError, AttributeError, TypeError)):
        specialize_cell(hacked, None)
