"""One cell-execution path: the compile-seam specializer and its memo.

``run_job(..., cell=None)`` -- what every executor calls -- sweeps
the table with the program's fused sweep from the per-process memo,
its armed variant when the payload arms sentinels; the interpreter
stays reachable as the explicit oracle and runs by itself only for
programs that cannot be fused.
"""

import ast
import dataclasses
import functools
import itertools
import logging
import pickle

import pytest

from repro.dfg.expressions import _EXPRESSIONS, op_expression
from repro.dfg.graph import OPCODE_ARITY, Opcode, _apply
from repro.dfg.stencils import boundary_row
from repro.engine import Engine, EngineConfig, make_job
from repro.engine.cache import compile_program
from repro.engine.jobs import ENGINE_KERNELS
from repro.engine.runners import (
    _cell_executor,
    build_dfg,
    fused_sweep,
    match_table_for,
    run_job,
)
from repro.engine.specialize import (
    CellMemo,
    specialize_cell,
    specialize_source,
)
from repro.engine.sweep import ARMED, SWEEPS, fuse_sweep
from repro.guard.sentinels import make_sentinel

PAYLOADS = {
    "bsw": {"query": "ACGTTGCAACGTAGCTAGCTTACG", "target": "ACGTAGCAACGAAGCTAGGTTACGTT"},
    "pairhmm": {"read": "ACGTTGCAACGT", "haplotype": "ACGTAGCAACGAAGCT"},
    "lcs": {"x": "ACGTACGTTGCA", "y": "ACGGTTACA"},
    "dtw": {"a": [3, 9, -4, 7, 0, 12], "b": [2, 8, -1, 6, 11]},
    "chain": {"anchors": [[10 * i + i % 3, 9 * i + i % 5, 19] for i in range(1, 13)]},
}


def _compiled(kernel):
    return compile_program(kernel, 2, build_dfg(kernel))


def _interpreted(kernel, payload, observe=None):
    compiled = _compiled(kernel)
    oracle = _cell_executor(compiled, match_table_for(kernel), observe)
    return run_job(kernel, compiled, dict(payload), oracle)


class TestInlineEngineRunsTheSpecializedCell:
    @pytest.mark.parametrize("kernel", ENGINE_KERNELS)
    def test_inline_results_equal_the_interpreter(self, kernel):
        with Engine(EngineConfig(workers=0)) as engine:
            engine.submit(make_job(kernel, PAYLOADS[kernel]))
            result = engine.drain()[0]
        assert result.ok and result.backend == "inline"
        assert result.value == _interpreted(kernel, PAYLOADS[kernel])

    @pytest.mark.parametrize("kernel", ENGINE_KERNELS)
    def test_span_names_the_path(self, kernel):
        compiled = _compiled(kernel)
        trace = {"trace_id": "t", "job_id": 1}

        def path(extra, cell=None):
            payload = {**PAYLOADS[kernel], "_trace": trace, **extra}
            (span,) = run_job(kernel, compiled, payload, cell)["_trace_spans"]
            return span["args"]["path"]

        assert path({}) == "fused"
        # A specialized cell passed in runs as its program's fused sweep.
        assert path({}, specialize_cell(compiled, match_table_for(kernel))) == "fused"
        # An armed job runs the armed variant of the same sweep.
        assert path({"_sentinels": True}) == "fused"
        oracle = _cell_executor(compiled, match_table_for(kernel))
        assert path({}, oracle) == "interpreted"

    @pytest.mark.parametrize(
        "kernel, saturations, underflows",
        [("bsw", 50, 0), ("pairhmm", 0, 396)],
    )
    def test_sentinel_payloads_run_the_armed_fused_sweep(
        self, kernel, saturations, underflows
    ):
        # The literal counts are the interpreter's on these payloads,
        # pinned when it still ran every sentinel-armed job.
        with Engine(EngineConfig(workers=0, sentinels=True)) as engine:
            engine.submit(make_job(kernel, PAYLOADS[kernel]))
            result = engine.drain()[0]
            counts = engine.metrics.family("sentinel")
            violations = engine.metrics.counter("static_certificate_violations")
        sentinel = make_sentinel(kernel)
        assert result.value == _interpreted(
            kernel, PAYLOADS[kernel], sentinel.observe
        )
        expected = sentinel.snapshot()
        assert expected["values_observed"] > 0
        assert counts == {f"sentinel_{name}": n for name, n in expected.items()}
        assert counts["sentinel_lane_saturations"] == saturations
        assert counts["sentinel_underflows"] == underflows
        assert violations == 0


def _dtw_operands():
    return [3, 9, 4], [2, 8], boundary_row("dtw", 2)


class TestMemo:
    """The two process memos, :data:`SWEEPS` and :data:`ARMED`, and the
    :class:`CellMemo` they are (the honest-first forged-hash case and
    one sweep per program content are ``test_sweep.TestFusedSweepMemo``'s)."""

    def test_two_compiles_of_one_dfg_share_one_function(self):
        first, second = _compiled("dtw"), _compiled("dtw")
        assert first is not second
        assert first.instructions is not second.instructions
        for armed in (False, True):
            sweep = fused_sweep(first, armed)
            assert sweep is not None
            assert fused_sweep(second, armed) is sweep
            assert fused_sweep(pickle.loads(pickle.dumps(first)), armed) is sweep
        assert fused_sweep(first, True) is not fused_sweep(first)

    def test_not_pickled_with_the_program(self):
        compiled = _compiled("lcs")
        before = pickle.dumps(compiled)
        assert fused_sweep(compiled) is not None
        assert fused_sweep(compiled, True) is not None
        assert pickle.dumps(compiled) == before
        assert set(vars(compiled)) == {
            field.name for field in dataclasses.fields(compiled)
        }

    def test_bounded(self):
        memo = CellMemo(fuse_sweep, capacity=2)
        programs = [_compiled(kernel) for kernel in ("lcs", "dtw", "chain")]
        sweeps = [memo.get(program, match_table_for) for program in programs]
        assert len(memo) == 2
        # Oldest entry went first: lcs is rebuilt, chain is still there.
        assert memo.get(programs[2], match_table_for) is sweeps[2]
        assert memo.get(programs[0], match_table_for) is not sweeps[0]
        assert len(memo) == 2
        assert len(SWEEPS) <= SWEEPS.capacity
        assert len(ARMED) <= ARMED.capacity
        with pytest.raises(ValueError):
            CellMemo(fuse_sweep, capacity=0)

    def test_stale_hash_never_returns_another_programs_function(self):
        """``dataclasses.replace`` keeps ``program_hash``: the memo must
        compare the program itself, not trust the hash -- here with
        the forged program memoized first, in the armed memo's shape."""
        clean = _compiled("dtw")
        forged = dataclasses.replace(
            clean, output_regs={"d": next(iter(clean.input_regs.values()))}
        )
        assert forged.program_hash == clean.program_hash
        memo = CellMemo(functools.partial(fuse_sweep, armed=True))
        wrong = memo.get(forged, match_table_for)
        honest = memo.get(clean, match_table_for)
        assert honest is not wrong
        assert memo.get(clean, match_table_for) is not wrong
        assert honest(*_dtw_operands()) == ARMED.get(clean, match_table_for)(
            *_dtw_operands()
        )
        assert honest(*_dtw_operands()) != wrong(*_dtw_operands())

    def test_failure_is_logged_once_per_program(self, caplog):
        clean = _compiled("lcs")
        # A consumed output register nothing writes: fusing refuses.
        unwritten = dataclasses.replace(
            clean, output_regs={**clean.output_regs, "c": 4000}
        )
        memo = CellMemo(fuse_sweep)
        with caplog.at_level(logging.WARNING, logger="repro.engine.specialize"):
            assert memo.get(unwritten, match_table_for) is None
            assert memo.get(unwritten, match_table_for) is None
        records = [
            record
            for record in caplog.records
            if record.name == "repro.engine.specialize"
        ]
        assert len(records) == 1
        assert records[0].kernel == "lcs"
        assert "SpecializationError" in records[0].error

    def test_unspecializable_program_falls_back_to_the_interpreter(
        self, monkeypatch
    ):
        import repro.engine.specialize as specialize

        def refuse(compiled, match_table=None):
            raise specialize.SpecializationError("no")

        for memo in (SWEEPS, ARMED):
            monkeypatch.setattr(memo, "_build", refuse)
            monkeypatch.setattr(memo, "_entries", {})
        compiled = _compiled("bsw")
        payload = {**PAYLOADS["bsw"], "_trace": {"trace_id": "t", "job_id": 1}}
        value = run_job("bsw", compiled, payload)
        (span,) = value.pop("_trace_spans")
        assert span["args"]["path"] == "interpreted"
        assert value == _interpreted("bsw", PAYLOADS["bsw"])
        # Armed, the interpreter observes: the same counts as the oracle.
        value = run_job("bsw", compiled, {**payload, "_sentinels": True})
        (span,) = value.pop("_trace_spans")
        assert span["args"]["path"] == "interpreted"
        sentinel = make_sentinel("bsw")
        oracle = _interpreted("bsw", PAYLOADS["bsw"], sentinel.observe)
        assert value == {**oracle, "_sentinels": sentinel.snapshot()}
        assert sentinel.lane_saturations == 50


class TestSource:
    def test_reads_of_unwritten_registers_are_zero_like_the_interpreter(self):
        """The interpreter reads an unwritten register as 0; only such
        registers get a prologue line."""
        clean = _compiled("lcs")
        regs = dict(clean.input_regs)
        first = next(iter(regs))
        orphan = regs[first]
        regs[first] = 4096  # the program still reads the old register
        broken = dataclasses.replace(clean, input_regs=regs)
        source = specialize_source(broken, has_match_table=False)
        assert f"    r{orphan} = 0\n" in source
        args = [5, 1, 2, 3, 3]
        assert specialize_cell(broken)(*args) == _cell_executor(broken, None)(*args)

    def test_intra_bundle_hazard_commits_at_the_bundle_boundary(self):
        """Way 1 reading way 0's destination must see the old value."""
        from repro.isa.compute import CUInstruction, Reg, SlotOp, VLIWInstruction

        def way(dest, opcode, *operands):
            return CUInstruction(
                kind="tree",
                dest=Reg(dest),
                left=SlotOp(opcode, tuple(Reg(r) for r in operands)),
            )

        bundle = VLIWInstruction(
            cu0=way(0, Opcode.ADD, 0, 1), cu1=way(2, Opcode.SUB, 0, 1)
        )
        clean = _compiled("lcs")
        program = dataclasses.replace(
            clean,
            instructions=(bundle,),
            input_regs={"a": 0, "b": 1},
            output_regs={"sum": 0, "diff": 2},
        )
        assert specialize_cell(program)(7, 3) == (10, 4)
        assert _cell_executor(program, None)(7, 3) == (10, 4)


#: Everything generated code may call: the match table and Chain's
#: log2 look-up (tables, not ALUs), and ``int`` around them.
ALLOWED_CALLS = {"_match", "_log2", "int"}


def called_names(source):
    """Every name (or dotted path) *source* calls."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else ast.unparse(node.func)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
    }


def engine_programs():
    """The five engine programs, as DPMap emits them and optimized."""
    from repro.opt import contract_for, default_pipeline

    for kernel in ENGINE_KERNELS:
        yield _compiled(kernel)
        yield compile_program(
            kernel, 2, build_dfg(kernel), default_pipeline(contract_for(kernel))
        )


class TestCallFreeTemplates:
    """MAX/MIN are branch expressions with the builtin's exact
    semantics; CI runs this class on its own (``-k CallFree``)."""

    VALUES = [
        -(2**63) - 1, -1, 0, 1, 2**31, 2**63 + 5,
        0.0, -0.0, 1.5, float("inf"), float("-inf"), float("nan"),
    ]

    @pytest.mark.parametrize(
        "opcode, builtin", [(Opcode.MAX, max), (Opcode.MIN, min)]
    )
    @pytest.mark.parametrize("operands", [("x", "y"), ("(x)", "(y)")])
    def test_max_min_templates_equal_the_builtin(self, opcode, builtin, operands):
        """Ties, signed zeros and NaNs included: ``repr`` tells 0.0
        from -0.0 and 1 from 1.0.  Bare names are repeated, anything
        else is bound to a temporary; both must agree."""
        source = op_expression(opcode, operands, False, [])
        assert called_names(source) == set()
        code = compile(source, "<template>", "eval")
        for x, y in itertools.product(self.VALUES, repeat=2):
            got = eval(code, {"x": x, "y": y})
            assert repr(got) == repr(builtin(x, y)), (opcode, x, y)

    @pytest.mark.parametrize(
        "root, swapped, order",
        [
            (Opcode.MAX, False, [(0, 1), (2, 3)]),
            (Opcode.MIN, False, [(0, 1), (2, 3)]),
            (Opcode.MAX, True, [(2, 3), (0, 1)]),
            (Opcode.LOG2_LUT, False, [(0, 1)]),
        ],
    )
    def test_nested_operands_run_once_left_before_right(self, root, swapped, order):
        """``max(f(), g())`` called f then g, once each: the contract."""
        from repro.isa.compute import CUInstruction, Reg, SlotOp, VLIWInstruction

        def match(a, b):
            return SlotOp(Opcode.MATCH_SCORE, (Reg(a), Reg(b)))

        way = CUInstruction(
            kind="tree",
            dest=Reg(4),
            left=match(0, 1),
            right=None if root is Opcode.LOG2_LUT else match(2, 3),
            root=root,
            root_swapped=swapped,
        )
        program = dataclasses.replace(
            _compiled("lcs"),
            instructions=(VLIWInstruction(cu0=way),),
            input_regs={"a": 0, "b": 1, "c": 2, "d": 3},
            output_regs={"out": 4},
        )
        calls = []

        def table(a, b):
            calls.append((a, b))
            return a * 7 - b

        args = (5, 1, 2, 3)
        got = specialize_cell(program, table)(*args)
        assert calls == [tuple(args[i] for i in pair) for pair in order]
        assert got == _cell_executor(program, table)(*args)

    def test_sources_are_the_same_text_every_time_and_call_no_builtin(self):
        for compiled, with_table in itertools.product(engine_programs(), (False, True)):
            source = specialize_source(compiled, with_table)
            assert specialize_source(compiled, with_table) == source
            assert called_names(source) <= ALLOWED_CALLS, (
                compiled.kernel, called_names(source) - ALLOWED_CALLS
            )


def test_every_opcode_the_functional_model_evaluates_has_a_template():
    """ROADMAP item 4: concrete and codegen opcode tables cover one set."""
    evaluated = set()
    for opcode in Opcode:
        try:
            _apply(opcode, [3] * OPCODE_ARITY.get(opcode, 4), None, None)
        except ValueError:
            continue  # "unknown opcode": the functional model has no case
        evaluated.add(opcode)
    assert evaluated == set(OPCODE_ARITY)
    assert evaluated == set(_EXPRESSIONS)
