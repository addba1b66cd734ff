"""The engine's sweeps are generated from the kernels' dataflow roles.

What these tests pin: the values *derived* from each
``Wavefront2DSpec`` equal the literals that used to be written out by
hand in ``engine/runners.py`` and ``static/contracts.py`` (the literals
live here now), the generated loop nests agree with the reference
kernels on degenerate and non-square tables through every cell kind,
cell arguments are bound by name, the fused sweep every job runs --
armed, for a payload that arms sentinels -- is bit-equal to the
interpreter called per cell (in value and in every sentinel count) and
memoized by program content, and the kernel table has exactly the
published rows.
"""

import builtins
import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dfg.expressions import expression_namespace, op_expression
from repro.dfg.graph import Opcode
from repro.dfg.stencils import (
    INF,
    WAVEFRONT_SPECS,
    boundary_row,
    default_spec,
    pairhmm_boundary_for_length,
    wavefront_spec,
)
from repro.dpax.pe import INT32_MAX, INT32_MIN
from repro.engine import Engine, EngineConfig, make_job
from repro.engine.cache import compile_program
from repro.engine.jobs import ENGINE_KERNELS, KERNEL_DIMENSIONS, JobValidationError
from repro.engine.kernels import KERNELS
from repro.engine.runners import (
    _cell_executor,
    build_dfg,
    fused_sweep,
    match_table_for,
    matches_reference,
    run_job,
)
from repro.engine.specialize import SpecializationError
from repro.engine.sweep import (
    CHAIN_OUTPUTS,
    fuse_sweep,
    fused_source,
    sweep_source,
    wavefront_sweep,
)
from repro.guard.sentinels import make_sentinel
from repro.isa.compute import CUInstruction, Reg, SlotOp, VLIWInstruction
from repro.kernels.pairhmm import log_sum_lookup
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
        for kernel in WAVEFRONT_KERNELS:
            assert set(default_spec(kernel).consumed_outputs()) == CONSUMED[kernel]
        assert set(CHAIN_OUTPUTS) == CONSUMED["chain"]
        for kernel in ENGINE_KERNELS:
            assert contract_for(kernel) == CONSUMED[kernel]

    def test_feedback_outputs_are_what_each_sweep_reads(self):
        # A consumed-output set is declared once, as the keys of a
        # feedback map: the 2-D maps come from the spec, Chain's is
        # written by hand against its sweep's CHAIN_OUTPUTS.
        for kernel in WAVEFRONT_KERNELS:
            feedback = kernel_contract(kernel).feedback
            assert set(feedback) == set(default_spec(kernel).consumed_outputs())
        assert set(kernel_contract("chain").feedback) == set(CHAIN_OUTPUTS)

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

    @pytest.mark.parametrize("kernel", WAVEFRONT_KERNELS)
    def test_boundary_row_is_the_patched_specs_without_building_one(self, kernel):
        for length in range(1, 130):
            row = boundary_row(kernel, length)
            assert row is boundary_row(kernel, length)  # memoized
            assert row == wavefront_spec(kernel, length).boundary_row
            if kernel == "pairhmm":
                patched = pairhmm_boundary_for_length(default_spec(kernel), length)
                assert row == patched.boundary_row
            else:
                assert row == default_spec(kernel).boundary_row

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
        """Both forms of one loop: the oracle's calls the cell, the
        production one holds it, with only the consumed outputs' cone
        (BSW's traceback ``dir`` is not computed)."""
        compiled = compile_program("bsw", 2, build_dfg("bsw"))
        loop = "for t, h_up, e_up in zip(static, h_prev[1:], e_prev[1:]):"
        call = sweep_source(
            default_spec("bsw"), tuple(compiled.input_regs), tuple(compiled.output_regs)
        )
        assert loop in call
        assert "out = cell(s, t, h_diag, h_up, e_up, h_left, f_left)" in call
        assert "if out[0] > acc_hmax: acc_hmax = out[0]" in call
        fused = fused_source(compiled, has_match_table=True)
        assert loop in fused
        assert "r7 = (h_diag + _MATCH[s][t])" in fused
        assert "if r10 > acc_hmax: acc_hmax = r10" in fused
        assert "h_left = r10" in fused and "h_diag = h_up" in fused
        assert "cell(" not in fused and "r11 =" not in fused and "r12 =" not in fused

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
# (d) the fused sweep is the interpreter, called per cell

DNA = st.text("ACGT", min_size=1, max_size=8)
SIGNAL = st.lists(st.integers(-40, 40), min_size=1, max_size=8)
#: Chain anchors as (dx, dy) steps from the previous one: sorted, with
#: gaps on both sides of the cell's 500 / 5000 cut-offs.
STEPS = st.lists(st.tuples(st.integers(0, 700), st.integers(0, 700)), max_size=10)

#: (optimized, permuted) -- permuted reverses the register maps: every
#: input of a 2-D kernel, and the outputs of every kernel (Chain's
#: inputs are positional, see TestBoundByName).
VARIANTS = list(itertools.product((False, True), repeat=2))

_PROGRAMS = {}


def _program(kernel, optimized, permuted):
    key = (kernel, optimized, permuted)
    if key not in _PROGRAMS:
        pipeline = default_pipeline(contract_for(kernel)) if optimized else None
        compiled = compile_program(kernel, 2, build_dfg(kernel), pipeline)
        if permuted:
            inputs = compiled.input_regs.items()
            compiled = dataclasses.replace(
                compiled,
                input_regs=dict(inputs if kernel == "chain" else reversed(list(inputs))),
                output_regs=dict(reversed(list(compiled.output_regs.items()))),
            )
        _PROGRAMS[key] = compiled
    return _PROGRAMS[key]


def _fused_is_interpreted(kernel, payload, optimized, permuted, armed):
    """The fused sweep's answer (*armed*: its armed variant's, with its
    sentinel snapshot), bit-equal to an observing interpreter's and,
    but for PairHMM's one-column tables and DTW signals past the
    model's finite infinity, to the reference kernel's (both forms
    share their loop nest, so the reference checks the loop).  Returns
    the value and the snapshot (``None`` unarmed)."""
    compiled = _program(kernel, optimized, permuted)
    trace = {"trace_id": "t", "job_id": 1}
    arm = {"_sentinels": True} if armed else {}
    fused = run_job(kernel, compiled, {**payload, **arm, "_trace": trace})
    (span,) = fused.pop("_trace_spans")
    assert span["args"]["path"] == "fused"
    counts = fused.pop("_sentinels", None)
    sentinel = make_sentinel(kernel)
    oracle = _cell_executor(compiled, match_table_for(kernel), sentinel.observe)
    assert fused == run_job(kernel, compiled, dict(payload), oracle)
    assert counts == (sentinel.snapshot() if armed else None)
    one_column = kernel == "pairhmm" and len(payload["haplotype"]) == 1
    # The int32 rails' DTW examples: costs past INF, which floats lack.
    past_inf = kernel == "dtw" and max(map(abs, payload["a"] + payload["b"])) >= INF
    if not (one_column or past_inf):
        assert matches_reference(kernel, fused, payload)
    return fused, counts


class TestFusedSweepIsTheInterpreter:
    @pytest.mark.parametrize("optimized, permuted", VARIANTS)
    @pytest.mark.parametrize("kernel", ("bsw", "pairhmm", "lcs"))
    @settings(max_examples=25, deadline=None)
    @given(stream=DNA, static=DNA, armed=st.booleans())
    @example(stream="A", static="C", armed=False)
    @example(stream="A", static="ACGTTGCA", armed=False)
    @example(stream="ACGTTGCA", static="G", armed=False)
    @example(stream="ACGTTGCAAC", static="ACGTAGC", armed=False)
    @example(stream="A", static="C", armed=True)
    @example(stream="ACGTTGCAAC", static="ACGTAGC", armed=True)
    def test_dna_tables(self, kernel, optimized, permuted, stream, static, armed):
        payload = dict(zip(KERNELS[kernel].keys, (stream, static)))
        value, _ = _fused_is_interpreted(kernel, payload, optimized, permuted, armed)
        if kernel == "pairhmm" and (stream, static) in PAIRHMM_ONE_COLUMN:
            assert value["log10_likelihood"] == PAIRHMM_ONE_COLUMN[stream, static]

    @pytest.mark.parametrize("optimized, permuted", VARIANTS)
    @settings(max_examples=25, deadline=None)
    @given(a=SIGNAL, b=SIGNAL, armed=st.booleans())
    @example(a=[3], b=[2, 8, 1, 6, 11], armed=False)
    @example(a=[3, 9, 4, 7, 0, 12], b=[5], armed=False)
    @example(a=[3, 9, 4, 7, 0, 12], b=[2, 8, 1, 6, 11], armed=False)
    @example(a=[3, 9, 4, 7, 0, 12], b=[2, 8, 1, 6, 11], armed=True)
    # Values at the int32 rails: differences and sums leave them.
    @example(a=[INT32_MAX, INT32_MIN], b=[INT32_MIN, INT32_MAX - 1], armed=True)
    @example(a=[-(2**31) + 5, 7, 2**31 - 3], b=[2**31 - 9, -(2**31) + 1], armed=True)
    def test_dtw_tables(self, optimized, permuted, a, b, armed):
        payload = {"a": a, "b": b}
        _, counts = _fused_is_interpreted("dtw", payload, optimized, permuted, armed)
        if armed and max(a + b) - min(a + b) > INT32_MAX:
            assert counts["int32_overflows"] > 0

    @pytest.mark.parametrize("optimized, permuted", VARIANTS)
    @settings(max_examples=25, deadline=None)
    @given(steps=STEPS, window=st.integers(1, 12), armed=st.booleans())
    @example(steps=[(40, 30)] * 6, window=1, armed=False)
    @example(steps=[(40, 30)] * 6, window=7, armed=False)  # wider than the anchors
    @example(steps=[(40, 30)] * 6, window=7, armed=True)
    def test_chain_windows(self, optimized, permuted, steps, window, armed):
        anchors, x, y = [], 0, 0
        for dx, dy in steps:
            x, y = x + dx, y + dy
            anchors.append([x, y, 19])
        payload = {"anchors": anchors, "n": window}
        _fused_is_interpreted("chain", payload, optimized, permuted, armed)


    def test_armed_sweep_computes_and_counts_dead_ways(self):
        """The interpreter observes a way no consumed output reads, so
        the armed sweep emits it (the unarmed one prunes it)."""
        clean = compile_program("dtw", 2, build_dfg("dtw"))
        shifted = SlotOp(Opcode.SHL16, (Reg(clean.input_regs["a"]),))
        way = CUInstruction(kind="tree", dest=Reg(60), left=shifted)
        dead = VLIWInstruction(cu0=way)
        program = dataclasses.replace(clean, instructions=clean.instructions + (dead,))
        assert "r60 =" not in fused_source(program, False)
        assert "r60 =" in fused_source(program, False, armed=True)
        payload = {"a": [40000, 3], "b": [5, 7, 9]}
        sentinel = make_sentinel("dtw")
        oracle = _cell_executor(program, None, sentinel.observe)
        expected = run_job("dtw", program, dict(payload), oracle)
        armed = run_job("dtw", program, dict(payload, _sentinels=True))
        assert armed.pop("_sentinels") == sentinel.snapshot()
        assert armed == expected
        assert sentinel.int32_overflows == 3  # 40000 << 16, once per cell of its row


class TestFusedSweepMemo:
    def test_one_sweep_per_program_content(self):
        first, second = build_dfg("lcs"), build_dfg("lcs")
        first = compile_program("lcs", 2, first)
        second = compile_program("lcs", 2, second)
        assert first is not second
        assert fused_sweep(first) is fused_sweep(second)

    def test_a_second_engine_reuses_the_fused_sweep(self, monkeypatch):
        payloads = {
            "bsw": {"query": "ACGTTGCA", "target": "ACGTAGC"},
            "chain": {"anchors": [[10, 9, 19], [30, 25, 19], [55, 49, 19]]},
        }

        def drain():
            with Engine(EngineConfig(workers=0)) as engine:
                engine.submit_many([make_job(k, p) for k, p in payloads.items()])
                return [result.value for result in engine.drain()]

        first = drain()
        compiled = []
        real = builtins.compile

        def watch(source, filename, *args, **kwargs):
            compiled.append(filename)
            return real(source, filename, *args, **kwargs)

        monkeypatch.setattr(builtins, "compile", watch)
        assert drain() == first
        assert [name for name in compiled if name.startswith("<gendp")] == []

    def test_forged_program_hash_gets_its_own_sweep(self):
        clean = compile_program("dtw", 2, build_dfg("dtw"))
        forged = dataclasses.replace(
            clean, output_regs={"d": next(iter(clean.input_regs.values()))}
        )
        assert forged.program_hash == clean.program_hash
        honest = fused_sweep(clean)
        assert fused_sweep(forged) is not honest
        assert fused_sweep(clean) is honest
        payload = {"a": [3, 9, 4], "b": [2, 8]}
        assert run_job("dtw", forged, dict(payload)) == run_job(
            "dtw", forged, dict(payload), _cell_executor(forged, None)
        )
        assert run_job("dtw", clean, dict(payload)) != run_job(
            "dtw", forged, dict(payload)
        )

    def test_match_lookup_only_where_both_operands_are_sequence_codes(self):
        """A program that overwrites ``q`` before MATCH_SCORE reads it
        is not fused; the interpreter runs its jobs instead."""
        clean = compile_program("bsw", 2, build_dfg("bsw"))
        q, t = clean.input_regs["q"], clean.input_regs["t"]
        copy_t_to_q = CUInstruction(
            kind="tree", dest=Reg(q), left=SlotOp(Opcode.COPY, (Reg(t),))
        )
        overwrite = VLIWInstruction(cu0=copy_t_to_q)
        odd = dataclasses.replace(clean, instructions=(overwrite,) + clean.instructions)
        with pytest.raises(SpecializationError, match="MATCH_SCORE"):
            fuse_sweep(odd, match_table_for("bsw"))
        payload = {"query": "ACGTT", "target": "AGGTC"}
        trace = {"trace_id": "t", "job_id": 1}
        value = run_job("bsw", odd, {**payload, "_trace": trace})
        (span,) = value.pop("_trace_spans")
        assert span["args"]["path"] == "interpreted"
        oracle = _cell_executor(odd, match_table_for("bsw"))
        assert value == run_job("bsw", odd, payload, oracle)


class TestCallFreeFusedSweeps:
    """What CI's "Call-free cells" step runs (``-k CallFree``): no
    fused sweep, armed or not, calls a cell, the log-sum, the match
    table or a sentinel, and an armed job runs fused."""

    @pytest.mark.parametrize("optimized", [False, True])
    @pytest.mark.parametrize("kernel", ENGINE_KERNELS)
    def test_fused_sources_call_only_log2(self, kernel, optimized):
        compiled = _program(kernel, optimized, False)
        for armed in (False, True):
            source = fused_source(compiled, match_table_for(kernel) is not None, armed)
            for call in ("cell(", "_log_sum(", "_match(", "observe("):
                assert call not in source, (kernel, armed, call)
            if kernel != "chain":
                assert "_log2(" not in source
        from tests.engine.test_specialize import PAYLOADS

        trace = {"trace_id": "t", "job_id": 1}
        payload = {**PAYLOADS[kernel], "_sentinels": True, "_trace": trace}
        (span,) = run_job(kernel, compiled, payload)["_trace_spans"]
        assert span["args"]["path"] == "fused"

    def test_log_sum_template_is_log_sum_lookup(self):
        span = 1 << 16
        edges = [-(1 << 20), -span - 1, -span, -span + 1, -1, 0, 1]
        edges += [span - 1, span, span + 1, 12345, -99999]
        for operands in (("x", "y"), ("(x + 1)", "(y - 1)")):
            source = op_expression(Opcode.LOG_SUM_LUT, operands, False, [])
            code = compile(source, "<t>", "eval")
            shift = 0 if operands[0] == "x" else 1
            for x, y in itertools.product(edges, repeat=2):
                got = eval(code, {**expression_namespace(), "x": x, "y": y})
                assert got == log_sum_lookup(x + shift, y - shift), (operands, x, y)


# ----------------------------------------------------------------------
# (e) one table


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
