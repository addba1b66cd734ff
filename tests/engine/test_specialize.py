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
import hashlib
import itertools
import logging
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datapath import INT32_MAX, INT32_MIN
from repro.dfg.expressions import _EXPRESSIONS, MATCH_LOOKUP, op_expression
from repro.dfg.graph import OPCODE_ARITY, Opcode, _apply
from repro.dfg.stencils import boundary_row
from repro.engine import Engine, EngineConfig, make_job
from repro.engine.cache import compile_program
from repro.engine.jobs import ENGINE_KERNELS
from repro.engine.kernels import KERNELS
from repro.engine.runners import (
    _cell_executor,
    build_dfg,
    fused_sweep,
    match_table_for,
    run_job,
)
from repro.engine.specialize import (
    CellMemo,
    cell_lines,
    specialize_cell,
    specialize_source,
)
from repro.engine.sweep import ARMED, SWEEPS, fuse_sweep, fused_source
from repro.guard.sentinels import make_sentinel
from repro.isa.compute import CUInstruction, Reg, SlotOp, VLIWInstruction

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


def _way(dest, opcode, *operands):
    return CUInstruction(
        kind="tree", dest=Reg(dest), left=SlotOp(opcode, tuple(map(Reg, operands)))
    )


def _hand_built(*bundles, outputs):
    """A two-input program (``a`` in r0, ``b`` in r1) of *bundles*."""
    return dataclasses.replace(
        _compiled("lcs"),
        instructions=tuple(VLIWInstruction(*ways) for ways in bundles),
        input_regs={"a": 0, "b": 1},
        output_regs=outputs,
    )


#: sha1[:16] of each kernel's armed ``fused_source`` (DPMap's program,
#: then the optimized one) as the eager emitter wrote it before values
#: were inlined: the armed variant emits every way, unchanged.
ARMED_SOURCES = {
    "bsw": ("3c04f7f6026c77f2", "e4f8f009f4604515"),
    "pairhmm": ("6a9b65f5935bb746", "6a9b65f5935bb746"),
    "lcs": ("fc0c188a0b4b1720", "fc0c188a0b4b1720"),
    "dtw": ("1e6dd1caa7bcc97a", "1e6dd1caa7bcc97a"),
    "chain": ("42f7e7eaada0ecbe", "c31a32da6254192d"),
}

_DNA = st.text("ACGT", min_size=1, max_size=9)
#: Small values and the int32 rails, whose differences and sums wrap.
_SIGNAL = st.lists(
    st.one_of(
        st.integers(-50, 50), st.sampled_from([INT32_MIN, INT32_MAX, -(2**31) + 3])
    ),
    min_size=1,
    max_size=7,
)


def _chain_job(steps, window):
    anchors, x, y = [], 0, 0
    for dx, dy in steps:
        x, y = x + dx, y + dy
        anchors.append([x, y, 19])
    return "chain", {"anchors": anchors, "n": window}


#: (kernel, payload) for every engine kernel.
JOBS = st.one_of(
    st.builds(
        lambda kernel, stream, static: (
            kernel, dict(zip(KERNELS[kernel].keys, (stream, static)))
        ),
        st.sampled_from(["bsw", "pairhmm", "lcs"]), _DNA, _DNA,
    ),
    st.builds(lambda a, b: ("dtw", {"a": a, "b": b}), _SIGNAL, _SIGNAL),
    st.builds(
        _chain_job,
        st.lists(st.tuples(st.integers(0, 6000), st.integers(0, 6000)), max_size=10),
        st.integers(1, 12),
    ),
)

#: The rails each edge case must reach: 1xN and Nx1 tables, BSW's
#: 16-bit lane saturation, PairHMM's one-column floor (underflows) and
#: DTW's int32 wrap.
EDGES = [
    (("bsw", {"query": "A", "target": "ACGTTGCA"}), "lane_saturations"),
    (("lcs", {"x": "ACGTTGCA", "y": "G"}), None),
    (("bsw", PAYLOADS["bsw"]), "lane_saturations"),
    (("pairhmm", {"read": "ACGTTGCA", "haplotype": "G"}), "underflows"),
    (
        ("dtw", {"a": [INT32_MAX, INT32_MIN], "b": [INT32_MIN, INT32_MAX - 1]}),
        "int32_overflows",
    ),
    (_chain_job([(40, 30)] * 6, 7), None),
]


def _three_ways(kernel, payload, optimized):
    """Fused, interpreted and armed runs of one job: equal values, and
    the armed counts equal to the observing interpreter's."""
    pipeline = None
    if optimized:
        from repro.opt import contract_for, default_pipeline

        pipeline = default_pipeline(contract_for(kernel))
    compiled = compile_program(kernel, 2, build_dfg(kernel), pipeline)
    sentinel = make_sentinel(kernel)
    oracle = _cell_executor(compiled, match_table_for(kernel), sentinel.observe)
    interpreted = run_job(kernel, compiled, dict(payload), oracle)
    fused = run_job(kernel, compiled, dict(payload))
    armed = run_job(kernel, compiled, dict(payload, _sentinels=True))
    counts = armed.pop("_sentinels")
    assert fused == interpreted == armed
    assert counts == sentinel.snapshot()
    return counts


class TestLazyEmission:
    """Unarmed cells inline single-use values and number equal slots;
    CI's "One recurrence per kernel" and "Call-free cells" steps run
    this class (``-k LazyEmission``)."""

    @pytest.mark.parametrize("same_bundle", [False, True])
    @pytest.mark.parametrize("redefined", [False, True])
    def test_value_read_after_its_register_is_redefined_stays_materialized(
        self, redefined, same_bundle
    ):
        """``r3 = r2 * r2`` is read once, later; if ``r2`` is written
        before that read -- a bundle earlier, or by an earlier way of
        the reader's bundle -- inlining ``r3`` would read the new
        ``r2``, so it keeps its local and the cell equals the
        interpreter."""
        clobber = _way(2 if redefined else 5, Opcode.SUB, 0, 1)
        head = ([_way(2, Opcode.ADD, 0, 1)], [_way(3, Opcode.MUL, 2, 2)])
        if same_bundle:
            tail = ([clobber, _way(4, Opcode.ADD, 3, 0)],)
        else:
            tail = ([clobber], [_way(4, Opcode.ADD, 3, clobber.dest.index)])
        outputs = {"out": 4, "last": clobber.dest.index}
        program = _hand_built(*head, *tail, outputs=outputs)
        source = specialize_source(program, has_match_table=False)
        assert ("    r3 = (r2 * r2)\n" in source) == redefined
        cell, oracle = specialize_cell(program), _cell_executor(program, None)
        for args in ((7, 3), (-2, 9)):
            assert cell(*args) == oracle(*args)

    @pytest.mark.parametrize("redefined", [False, True])
    def test_an_equal_slot_reads_the_local_only_while_it_holds_the_value(
        self, redefined
    ):
        """``r3 = a + b`` repeats ``r2``'s slot: it reads ``r2`` -- unless
        ``r2`` was written since, when it computes the sum again."""
        program = _hand_built(
            [_way(2, Opcode.ADD, 0, 1)],
            [_way(4, Opcode.MUL, 2, 2), _way(2 if redefined else 5, Opcode.SUB, 0, 1)],
            [_way(3, Opcode.ADD, 0, 1)],
            outputs={"square": 4, "diff": 2 if redefined else 5, "sum": 3},
        )
        source = specialize_source(program, has_match_table=False)
        assert ("    r3 = r2\n" in source) != redefined
        cell, oracle = specialize_cell(program), _cell_executor(program, None)
        for args in ((7, 3), (-2, 9)):
            assert cell(*args) == oracle(*args)

    def test_a_value_read_twice_or_by_its_own_bundle_keeps_its_local(self):
        program = _hand_built(
            [_way(2, Opcode.ADD, 0, 1)],
            [_way(3, Opcode.MUL, 2, 2), _way(4, Opcode.SUB, 0, 1)],
            [_way(5, Opcode.ADD, 3, 4)],
            outputs={"out": 5},
        )
        source = specialize_source(program, has_match_table=False)
        assert "    r2 = (r0 + r1)\n" in source  # read twice
        assert "r5 = ((r2 * r2) + (r0 - r1))" in source  # each read once
        assert specialize_cell(program)(7, 3) == _cell_executor(program, None)(7, 3)

    def test_chains_gate_is_evaluated_once_and_its_gap_cost_lazily(self):
        """DPMap's tree evaluates Chain's last select twice (``r23``
        and inside ``r24``): value numbering reads ``r23`` instead, and
        the gap cost -- ``_log2`` included -- sits in the branches the
        gate takes."""
        source = fused_source(_compiled("chain"), False)
        assert source.count("r11 > 500") == 1
        assert "r24 = (r23 if f_i < r23 else f_i)" in source
        assert "r22 =" not in source and "r15 =" not in source
        calls = []
        namespace = {"_log2": lambda x: calls.append(x) or math.log2(x)}
        exec(compile(source, "<chain>", "exec"), namespace)
        anchors = [(0, 0), (100, 90), (7000, 120), (7050, 160), (7060, 7000)]
        job = {"anchors": [[x, y, 19] for x, y in anchors], "n": 4}
        from repro.engine.runners import _chain_operands

        final = namespace["_sweep"](*_chain_operands("chain", job))
        kept = [
            (xi - xj, yi - yj)
            for j, (xj, yj) in enumerate(anchors)
            for xi, yi in anchors[j + 1 : j + 5]
            if 0 < xi - xj <= 5000 and 0 < yi - yj <= 5000
            and abs((xi - xj) - (yi - yj)) <= 500
        ]
        assert 0 < len(calls) == sum(dx != dy for dx, dy in kept) < 10
        assert final == fuse_sweep(_compiled("chain"))(*_chain_operands("chain", job))

    def test_nesting_adds_no_call(self):
        """A nested value is the same expression in another place: the
        unarmed sweeps call what the eager ones did -- nothing, and
        Chain's ``int(_log2(...))`` once."""
        for compiled in engine_programs():
            match = match_table_for(compiled.kernel) is not None and MATCH_LOOKUP
            source = "\n".join(cell_lines(compiled, match)[0])
            tree = ast.parse(source)
            calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
            assert called_names(source) <= {"_log2", "int"}
            assert len(calls) == (2 if compiled.kernel == "chain" else 0)

    @pytest.mark.parametrize("kernel", ENGINE_KERNELS)
    def test_armed_sources_are_byte_identical_to_the_eager_emitters(self, kernel):
        from repro.opt import contract_for, default_pipeline

        programs = (
            _compiled(kernel),
            compile_program(
                kernel, 2, build_dfg(kernel), default_pipeline(contract_for(kernel))
            ),
        )
        with_table = match_table_for(kernel) is not None
        digests = tuple(
            hashlib.sha1(
                fused_source(compiled, with_table, armed=True).encode()
            ).hexdigest()[:16]
            for compiled in programs
        )
        assert digests == ARMED_SOURCES[kernel]

    @settings(max_examples=60, deadline=None)
    @given(job=JOBS, optimized=st.booleans())
    @example(job=EDGES[0][0], optimized=False)
    @example(job=EDGES[1][0], optimized=True)
    @example(job=EDGES[3][0], optimized=False)
    @example(job=EDGES[4][0], optimized=True)
    @example(job=EDGES[5][0], optimized=True)
    def test_fused_equals_interpreted_equals_armed(self, job, optimized):
        _three_ways(*job, optimized)

    @pytest.mark.parametrize("job, rail", EDGES)
    def test_edge_cases_reach_their_rails(self, job, rail):
        counts = _three_ways(*job, optimized=False)
        if rail is not None:
            assert counts[rail] > 0


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
