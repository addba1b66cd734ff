"""Acceptance: optimizing the six kernels is safe and actually wins.

For every differential-fuzz kernel the optimized program must pass
the guard verifier, match the reference implementation on seeded
workloads and random cell probes, and never issue more bundles than
the unoptimized compile -- with strict wins where the issue mentions
them (BSW and POA's combine program lose their unread traceback
outputs; Chain re-packs below the mapper's greedy schedule).
"""

import pytest

from repro.guard.diff import (
    DIFF_KERNELS,
    compile_kernel_programs,
    generate_payload,
    probe_cell,
    run_case,
)
from repro.guard.verifier import check_program
from repro.opt import contract_for, default_pipeline

#: (kernel, cell) -> (unoptimized, optimized) bundle counts for the
#: strict wins; every other program must simply not get worse.
STRICT_WINS = {
    ("bsw", "cell"): (4, 3),
    ("poa", "final"): (3, 2),
    ("chain", "cell"): (13, 12),
}


@pytest.fixture(scope="module")
def optimized():
    return {
        kernel: compile_kernel_programs(kernel, optimize=True)
        for kernel in DIFF_KERNELS
    }


@pytest.fixture(scope="module")
def baseline():
    return {kernel: compile_kernel_programs(kernel) for kernel in DIFF_KERNELS}


class TestStaticAcceptance:
    @pytest.mark.parametrize("kernel", DIFF_KERNELS)
    def test_optimized_programs_pass_the_verifier(self, optimized, kernel):
        programs = optimized[kernel]
        for cell_name, cell in programs.cells.items():
            report = check_program(cell, name=f"{kernel}:{cell_name}")
            assert report.ok, report.violations

    @pytest.mark.parametrize("kernel", DIFF_KERNELS)
    def test_never_more_instructions(self, optimized, baseline, kernel):
        programs = optimized[kernel]
        for cell_name, cell in programs.cells.items():
            before = baseline[kernel].cells[cell_name]
            assert len(cell.instructions) <= len(before.instructions)

    def test_strict_wins(self, optimized, baseline):
        for (kernel, cell_name), (before, after) in STRICT_WINS.items():
            base = baseline[kernel].cells[cell_name]
            cell = optimized[kernel].cells[cell_name]
            assert len(base.instructions) == before
            assert len(cell.instructions) == after

    @pytest.mark.parametrize("kernel", DIFF_KERNELS)
    def test_idempotent(self, optimized, kernel):
        programs = optimized[kernel]
        for cell_name, outcome in programs.outcomes.items():
            label = programs.label(cell_name)
            again = default_pipeline(contract_for(label)).run(outcome.program)
            assert again.program is outcome.program


class TestDifferentialAcceptance:
    @pytest.mark.parametrize("kernel", DIFF_KERNELS)
    def test_seeded_sweep_matches_reference(self, optimized, kernel):
        programs = optimized[kernel]
        for index in range(8):
            payload = generate_payload(kernel, seed=1234, index=index)
            outcome = run_case(kernel, payload, programs)
            assert outcome.ok, (index, outcome.expected, outcome.actual)

    @pytest.mark.parametrize("kernel", DIFF_KERNELS)
    def test_random_cell_probes_match_the_dfg(self, optimized, kernel):
        programs = optimized[kernel]
        for index, (_, cell) in enumerate(programs.named_cells()):
            reproducer = probe_cell(kernel, cell, seed=42, index=index, probes=5)
            assert reproducer is None, reproducer.to_json()


class TestContracts:
    def test_engine_kernels_use_runner_contracts(self):
        # An engine kernel's contract is what its runner's sweep reads.
        from repro.dfg.stencils import default_spec
        from repro.engine.kernels import KERNELS
        from repro.engine.sweep import CHAIN_OUTPUTS

        for kernel, row in KERNELS.items():
            read = (
                default_spec(kernel).consumed_outputs()
                if row.dimensions == 2
                else CHAIN_OUTPUTS
            )
            assert contract_for(kernel) == frozenset(read)

    def test_sweep_contracts_cover_the_scratchpad_kernels(self):
        assert contract_for("poa:final") == frozenset({"h", "e"})
        assert contract_for("bellman_ford") == frozenset({"dist", "pred"})
        assert contract_for("nonesuch") is None

    def test_contracts_only_drop_outputs_that_exist(self, baseline):
        # A stale contract naming a nonexistent output would silently
        # prune nothing; one naming every output would back off.  Check
        # each contract is a proper, nonempty subset of real outputs.
        for kernel in DIFF_KERNELS:
            for label, cell in baseline[kernel].named_cells():
                contract = contract_for(label)
                if contract is None:
                    continue
                assert contract <= set(cell.output_regs), label
                assert contract, label
