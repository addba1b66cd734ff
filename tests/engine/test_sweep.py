"""The engine's 2-D sweeps are generated from the simulator's specs.

What these tests pin: the values *derived* from each
``Wavefront2DSpec`` equal the literals that used to be written out by
hand in ``engine/runners.py`` and ``static/contracts.py`` (the literals
live here now), the generated loop nests agree with the reference
kernels on degenerate and non-square tables through every cell kind,
cell arguments are bound by name, and the kernel table has exactly the
published rows.
"""

import dataclasses

import pytest

from repro.dfg.stencils import WAVEFRONT_SPECS, default_spec, wavefront_spec
from repro.engine.cache import compile_program
from repro.engine.jobs import ENGINE_KERNELS, KERNEL_DIMENSIONS, JobValidationError
from repro.engine.kernels import KERNELS
from repro.engine.runners import (
    CONSUMED_OUTPUTS,
    _cell_executor,
    build_dfg,
    match_table_for,
    matches_reference,
    run_job,
)
from repro.engine.sweep import sweep_source, wavefront_sweep
from repro.opt import contract_for, default_pipeline
from repro.static.contracts import kernel_contract
from repro.static.intervals import Interval

WAVEFRONT_KERNELS = ("bsw", "pairhmm", "lcs", "dtw")

# ----------------------------------------------------------------------
# (a) derivation pins: the literals deleted from src/

CONSUMED = {
    "bsw": {"h", "e", "f"},
    "pairhmm": {"m", "i", "d"},
    "lcs": {"c"},
    "dtw": {"d"},
    "chain": {"f", "parent"},
}

FEEDBACK = {
    "bsw": {"h": ("h_diag", "h_up", "h_left"), "e": ("e_up",), "f": ("f_left",)},
    "pairhmm": {
        "m": ("m_diag", "m_up", "m_left"),
        # i_left is phantom: received only to be delayed into i_diag.
        "i": ("i_diag", "i_up"),
        "d": ("d_diag", "d_left"),
    },
    "lcs": {"c": ("c_diag", "c_up", "c_left")},
    "dtw": {"d": ("d_diag", "d_up", "d_left")},
}

PAIRHMM_FIXED = {"a_mm": 0, "a_im": -623, "a_gap": -61230, "a_ext": -13607}
PAIRHMM_EMIT_MATCH, PAIRHMM_EMIT_MISMATCH = -6, -47312

MATCH_RANGE = {"bsw": (-1, 1), "pairhmm": (PAIRHMM_EMIT_MISMATCH, PAIRHMM_EMIT_MATCH)}


class TestDerivedFromTheSpec:
    def test_consumed_outputs(self):
        assert CONSUMED_OUTPUTS == {k: frozenset(v) for k, v in CONSUMED.items()}
        for kernel in ENGINE_KERNELS:
            assert contract_for(kernel) == CONSUMED[kernel]

    @pytest.mark.parametrize("kernel", WAVEFRONT_KERNELS)
    def test_feedback_and_match_range(self, kernel):
        contract = kernel_contract(kernel)
        assert dict(contract.feedback) == FEEDBACK[kernel]
        expected = MATCH_RANGE.get(kernel)
        assert contract.match_range == (Interval(*expected) if expected else None)

    def test_pairhmm_constants(self):
        assert default_spec("pairhmm").params == PAIRHMM_FIXED
        inputs = kernel_contract("pairhmm").inputs
        for name, value in PAIRHMM_FIXED.items():
            assert inputs[name] == Interval.const(value)
        # The uniform row-0 D, computed in one place for every length.
        assert wavefront_spec("pairhmm", 16).boundary_row["d"] == -16384
        assert wavefront_spec("pairhmm", 7).boundary_row["d"] == -11499
        assert default_spec("pairhmm").boundary_row["d"] == 0  # not patched in place

    def test_match_tables(self):
        bsw, hmm = match_table_for("bsw"), match_table_for("pairhmm")
        for a in range(4):
            for b in range(4):
                assert bsw(a, b) == (1 if a == b else -1)
                assert hmm(a, b) == (
                    PAIRHMM_EMIT_MATCH if a == b else PAIRHMM_EMIT_MISMATCH
                )
        assert match_table_for("lcs") is None
        assert match_table_for("dtw") is None
        assert match_table_for("chain") is None

    def test_build_dfg_is_the_specs_dfg_built_afresh(self):
        for kernel in WAVEFRONT_KERNELS:
            first, second = build_dfg(kernel), build_dfg(kernel)
            assert first is not second
            assert first.content_hash() == default_spec(kernel).dfg.content_hash()


# ----------------------------------------------------------------------
# (b) generated sweep vs reference kernel, every cell kind

#: (stream, static): 1x1, 1xN, Nx1 and a non-square table.
SHAPES = {
    "bsw": [("A", "C"), ("A", "ACGTTGCA"), ("ACGTTGCA", "G"), ("ACGTTGCAAC", "ACGTAGC")],
    "pairhmm": [("A", "C"), ("A", "ACGTTGCA"), ("ACGTTGCA", "G"), ("ACGTTGCAAC", "ACGTAGC")],
    "lcs": [("A", "A"), ("A", "ACGTTGCA"), ("ACGTTGCA", "G"), ("ACGTTGCAAC", "ACGTAGC")],
    "dtw": [
        ([3], [7]),
        ([3], [2, 8, 1, 6, 11]),
        ([3, 9, 4, 7, 0, 12], [5]),
        ([3, 9, 4, 7, 0, 12], [2, 8, 1, 6, 11]),
    ],
}

#: The parent commit's sentinel counts on SHAPES, in order:
#: (values_observed, lane_saturations, underflows); no int32 overflow.
SENTINELS = {
    "bsw": [(14, 2, 0), (112, 9, 0), (112, 9, 0), (980, 17, 0)],
    "pairhmm": [(13, 0, 10), (104, 0, 48), (104, 0, 78), (910, 0, 280)],
    "lcs": [(3, 0, 0), (24, 0, 0), (24, 0, 0), (210, 0, 0)],
    "dtw": [(7, 0, 0), (35, 0, 0), (42, 0, 0), (210, 0, 0)],
}

#: A one-column PairHMM table floors its (0,0) corner, so no mass ever
#: reaches M: the fixed-point model leaves the float reference there
#: (on the parent commit too).  Those two shapes pin the parent's value.
PAIRHMM_ONE_COLUMN = {("A", "C"): -77.02193449604923, ("ACGTTGCA", "G"): -77.06323792807147}


def _cases():
    for kernel, shapes in SHAPES.items():
        for index, shape in enumerate(shapes):
            yield pytest.param(kernel, index, id=f"{kernel}-{len(shape[0])}x{len(shape[1])}")


class TestGeneratedSweeps:
    @pytest.mark.parametrize("optimized", [False, True])
    @pytest.mark.parametrize("kernel, index", _cases())
    def test_matches_reference_through_every_cell(self, kernel, index, optimized):
        shape = SHAPES[kernel][index]
        payload = dict(zip(KERNELS[kernel].keys, shape))
        pipeline = default_pipeline(contract_for(kernel)) if optimized else None
        compiled = compile_program(kernel, 2, build_dfg(kernel), pipeline)

        specialized = run_job(kernel, compiled, dict(payload))
        oracle = _cell_executor(compiled, match_table_for(kernel))
        interpreted = run_job(kernel, compiled, dict(payload), oracle)
        observed = run_job(kernel, compiled, dict(payload, _sentinels=True))
        counts = observed.pop("_sentinels")

        assert specialized == interpreted == observed
        assert specialized["cells"] == len(shape[0]) * len(shape[1])
        if kernel == "pairhmm" and shape in PAIRHMM_ONE_COLUMN:
            assert specialized["log10_likelihood"] == PAIRHMM_ONE_COLUMN[shape]
        else:
            assert matches_reference(kernel, specialized, payload)
        if not optimized:  # the optimizer removes ALU ops, so it observes fewer
            values, saturations, underflows = SENTINELS[kernel][index]
            assert counts == {
                "values_observed": values,
                "int32_overflows": 0,
                "lane_saturations": saturations,
                "underflows": underflows,
            }

    def test_bsw_source_is_the_hand_written_loop(self):
        compiled = compile_program("bsw", 2, build_dfg("bsw"))
        source = sweep_source(
            default_spec("bsw"), tuple(compiled.input_regs), tuple(compiled.output_regs)
        )
        assert (
            "out = cell(s, static[j - 1], h_prev[j - 1], h_prev[j], e_prev[j], "
            "h_curr[j - 1], f_left)"
        ) in source
        assert "if h_new > acc_hmax: acc_hmax = h_new" in source

    def test_one_sweep_per_program_signature(self):
        compiled = compile_program("lcs", 2, build_dfg("lcs"))
        signature = ("lcs", tuple(compiled.input_regs), tuple(compiled.output_regs))
        assert wavefront_sweep(*signature) is wavefront_sweep(*signature)


# ----------------------------------------------------------------------
# (c) by-name binding


class TestBoundByName:
    @pytest.mark.parametrize("kernel", WAVEFRONT_KERNELS)
    def test_permuted_input_order_computes_the_same_result(self, kernel):
        compiled = compile_program(kernel, 2, build_dfg(kernel))
        permuted = dataclasses.replace(
            compiled,
            input_regs=dict(reversed(list(compiled.input_regs.items()))),
            output_regs=dict(reversed(list(compiled.output_regs.items()))),
        )
        assert tuple(permuted.input_regs) != tuple(compiled.input_regs)
        payload = dict(zip(KERNELS[kernel].keys, SHAPES[kernel][3]))
        expected = run_job(kernel, compiled, dict(payload))
        oracle = _cell_executor(permuted, match_table_for(kernel))
        assert run_job(kernel, permuted, dict(payload), oracle) == expected
        # The program hash ignores register-map order, so the memo holds
        # the unpermuted program's cell under this key: it must not be
        # handed out for a different calling convention.
        assert permuted.program_hash == compiled.program_hash
        assert run_job(kernel, permuted, dict(payload)) == expected

    def test_input_without_a_role_fails_at_generation_naming_it(self):
        compiled = compile_program("dtw", 2, build_dfg("dtw"))
        stray = dataclasses.replace(
            compiled, input_regs={**compiled.input_regs, "d_far": 30}
        )
        oracle = _cell_executor(stray, None)
        with pytest.raises(JobValidationError, match="d_far"):
            run_job("dtw", stray, {"a": [1, 2], "b": [3]}, oracle)

    def test_missing_consumed_output_fails_at_generation_naming_it(self):
        compiled = compile_program("bsw", 2, build_dfg("bsw"))
        outputs = {k: v for k, v in compiled.output_regs.items() if k != "e"}
        with pytest.raises(JobValidationError, match=r"not produced \['e'\]"):
            sweep_source(default_spec("bsw"), tuple(compiled.input_regs), tuple(outputs))

    def test_chain_keeps_its_positional_signature_check(self):
        compiled = compile_program("chain", 2, build_dfg("chain"))
        permuted = dataclasses.replace(
            compiled, input_regs=dict(reversed(list(compiled.input_regs.items())))
        )
        payload = {"anchors": [[1, 1, 19], [9, 8, 19]]}
        with pytest.raises(JobValidationError, match="does not fit"):
            run_job("chain", permuted, payload, _cell_executor(permuted, None))


# ----------------------------------------------------------------------
# (d) one table


class TestKernelTable:
    def test_rows_are_the_published_kernels_in_order(self):
        assert tuple(KERNELS) == ("bsw", "pairhmm", "lcs", "dtw", "chain")
        assert ENGINE_KERNELS == tuple(KERNELS)

    def test_two_dimensional_rows_are_exactly_the_declared_stencils(self):
        assert {k for k, d in KERNEL_DIMENSIONS.items() if d == 2} == set(WAVEFRONT_SPECS)
        assert KERNEL_DIMENSIONS["chain"] == 1
        for kernel in WAVEFRONT_SPECS:
            assert len(KERNELS[kernel].keys) == 2
            default_spec(kernel).validate()
