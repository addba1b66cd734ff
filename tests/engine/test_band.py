"""Chain's band sweep: the anchor-only cone in numpy, the fold over the
lanes the gates keep.

What these tests pin: the band sweep equals the scalar fused sweep and
the interpreter (``_cell_executor``) on DPMap's program and on the
optimized one, at the window edges, for duplicate and collinear
anchors, at every gate's edge, with LOG2_LUT lanes at and past its
table, and at and past the proved input bound (where it falls back);
a forged Chain program -- other gap and gate constants, other literals
anywhere -- vectorizes correctly or falls back, never diverges; the
fold is call-free per pair; the ``job:run`` span names the path; and an
inline engine imports numpy only when a task is large enough for the
band.  CI's "One recurrence per kernel" and "Call-free cells" steps run
this file (``-k ChainBand`` in the latter).
"""

import ast
import dataclasses
import math
import os
import pathlib
import subprocess
import sys
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dfg.expressions import LOG2_LANES, expression_namespace, log2_lanes
from repro.dfg.graph import Opcode
from repro.dfg.kernels import chain_dfg
from repro.engine.cache import compile_program
from repro.engine.runners import _cell_executor, _chain_operands, build_dfg, run_job
from repro.engine.specialize import SpecializationError
from repro.engine.sweep import (
    BAND_MIN_LANES,
    band_sweep,
    chain_band_cell,
    chain_band_source,
    fused_source,
    wavefront_sweep,
)
from repro.isa.compute import Imm, SlotOp
from repro.opt import contract_for, default_pipeline

#: Anchor steps that put pairs on every gate's edge (dx or dy 5000 /
#: 5001, |dx - dy| 500 / 501), on one diagonal, and on one point.
EDGE_STEPS = [
    (0, 0), (1, 1), (7, 7), (500, 0), (501, 0), (0, 500), (0, 501),
    (5000, 4500), (5001, 4500), (4500, 5000), (4500, 5001), (5000, 5000),
    (5001, 5001), (2500, 2000), (2500, 1999), (250, 250), (3, 9),
]

_STEPS = st.lists(
    st.one_of(
        st.sampled_from(EDGE_STEPS),
        st.tuples(st.integers(0, 6000), st.integers(0, 6000)),
        st.tuples(st.integers(0, 60), st.integers(0, 60)),
    ),
    max_size=40,
)


def _program(optimized=False, dfg=None):
    pipeline = default_pipeline(contract_for("chain")) if optimized else None
    return compile_program("chain", 2, dfg or build_dfg("chain"), pipeline)


def _scalar(compiled):
    namespace = expression_namespace()
    exec(compile(fused_source(compiled, False), "<scalar>", "exec"), namespace)
    return namespace["_sweep"]


def _anchors(steps, start=(0, 0)):
    x, y = start
    anchors = []
    for dx, dy in steps:
        x, y = x + dx, y + dy
        anchors.append([x, y, 19])
    return anchors


def _three_ways(compiled, anchors, window):
    """Band, scalar fused and interpreted runs of one task: equal
    scores and parents.  Returns the path the band sweep took."""
    payload = {"anchors": anchors, "n": window}
    operands = _chain_operands("chain", payload)
    scalar = _scalar(compiled)
    band = band_sweep(compiled, scalar)(*operands)
    path = band.pop("path", "fused")
    assert band == scalar(*operands)
    oracle = _cell_executor(compiled, None)
    inputs, outputs = tuple(compiled.input_regs), tuple(compiled.output_regs)
    interpreted = wavefront_sweep("chain", inputs, outputs)(oracle, *operands)
    assert band == interpreted
    return path


class TestChainBandEqualsTheScalarSweep:
    @settings(max_examples=80, deadline=None)
    @given(steps=_STEPS, window=st.integers(1, 50), optimized=st.booleans())
    @example(steps=[(0, 0)], window=4, optimized=False)  # N = 1
    @example(steps=[(3, 3)] * 6, window=64, optimized=True)  # N <= n
    @example(steps=[(40, 30)] * 9, window=1, optimized=False)  # n = 1
    @example(steps=[(0, 0)] * 9, window=5, optimized=True)  # one point
    @example(steps=EDGE_STEPS * 2, window=8, optimized=False)
    @example(steps=EDGE_STEPS[::-1] * 2, window=33, optimized=True)
    def test_band_equals_fused_equals_interpreted(self, steps, window, optimized):
        _three_ways(_program(optimized), _anchors(steps, (-300, 7)), window)

    @pytest.mark.parametrize("optimized", [False, True])
    def test_every_gate_edge_takes_the_band(self, optimized):
        anchors = _anchors(EDGE_STEPS * 3)
        assert _three_ways(_program(optimized), anchors, 40) == "band"

    @pytest.mark.parametrize("optimized", [False, True])
    def test_inputs_at_the_proved_bound_run_the_band_and_past_it_fall_back(
        self, optimized
    ):
        compiled = _program(optimized)
        bound = chain_band_cell(compiled).bound
        assert bound >= 1 << 40  # far past any genome coordinate
        steps = [(10, 12), (40, 30), (3000, 2900)]  # x spans 3050, y 2942
        for start, path in (
            ((bound - 3050, bound - 2942), "band"),
            ((bound - 3049, 0), "fused"),
            ((-bound - 10, -bound - 12), "band"),
            ((-bound - 11, 0), "fused"),
        ):
            assert _three_ways(compiled, _anchors(steps, start), 3) == path

    def test_a_score_below_the_contracts_floor_falls_back(self):
        compiled = _program()
        # An Anchor refuses w <= 0; the sweep reads any x, y, w.
        anchors = [types.SimpleNamespace(x=x, y=y, w=-1) for x, y, _ in _anchors([(9, 9)] * 4)]
        scalar = _scalar(compiled)
        final = band_sweep(compiled, scalar)(anchors, 3)
        assert "path" not in final and final == scalar(anchors, 3)


class TestChainBandLog2Lanes:
    def test_lanes_reproduce_the_scalar_lut_in_and_past_the_table(self):
        import numpy

        values = [
            -(1 << 40), -1, 0, 1, 2, 3, 4, 1023, 1024, 1025, LOG2_LANES - 1,
            LOG2_LANES, LOG2_LANES + 1, (1 << 20) + 1, (1 << 49) - 1,
            1 << 49, (1 << 53) + 1, (1 << 62) - 1,
        ]
        lanes = log2_lanes(numpy.array(values, numpy.int64)).tolist()
        assert lanes == [0 if v <= 0 else int(math.log2(v) * 2.0) for v in values]
        square = numpy.array([values[:9], values[9:]], numpy.int64)
        assert log2_lanes(square).tolist() == [lanes[:9], lanes[9:]]

    @pytest.mark.parametrize("optimized", [False, True])
    def test_a_wide_gate_sends_log2_past_its_table(self, optimized):
        """With the distance and drift caps at 10^6, the gate keeps
        pairs whose |dx - dy| is past the LUT table."""
        dfg = chain_dfg(max_distance=10**6, max_diag_diff=10**6)
        compiled = _program(optimized, dfg)
        assert "_log2_lanes" in "\n".join(chain_band_cell(compiled).kept)
        steps = [(LOG2_LANES * 3, 1), (5, LOG2_LANES + 1), (1, 1), (9000, 20)] * 4
        assert _three_ways(compiled, _anchors(steps), 6) == "band"


_LITERALS = st.one_of(
    st.sampled_from([0, 1, -1, 500, 501, 5000, -(1 << 30), 1 << 30]),
    st.integers(-(1 << 20), 1 << 20),
    st.integers(-(1 << 62), 1 << 62),
)


def _forged(compiled, literals):
    """*compiled* with its immediates replaced, in order, by *literals*."""
    fresh = iter(literals)

    def slot(op):
        if op is None:
            return None
        operands = tuple(
            Imm(next(fresh, item.value)) if isinstance(item, Imm) else item
            for item in op.operands
        )
        return SlotOp(op.opcode, operands)

    bundles = []
    for bundle in compiled.instructions:
        ways = {
            name: dataclasses.replace(
                way, left=slot(way.left), right=slot(way.right), mul=slot(way.mul)
            )
            for name, way in (("cu0", bundle.cu0), ("cu1", bundle.cu1))
            if way is not None
        }
        bundles.append(dataclasses.replace(bundle, **ways))
    return dataclasses.replace(compiled, instructions=tuple(bundles))


class TestChainBandForgedPrograms:
    @pytest.mark.parametrize("optimized", [False, True])
    @pytest.mark.parametrize(
        "weight, distance, drift", [(7, 300, 40), (40, 9000, 2000), (19, 1, 0)]
    )
    def test_other_gap_and_gate_constants(self, optimized, weight, distance, drift):
        dfg = chain_dfg(avg_seed_weight=weight, max_distance=distance, max_diag_diff=drift)
        compiled = _program(optimized, dfg)
        anchors = _anchors(EDGE_STEPS * 2 + [(distance, distance - drift)] * 3)
        assert _three_ways(compiled, anchors, 12) == "band"

    @settings(max_examples=60, deadline=None)
    @given(
        literals=st.lists(_LITERALS, min_size=1, max_size=14),
        steps=_STEPS,
        window=st.integers(1, 20),
        optimized=st.booleans(),
    )
    @example(literals=[0] * 14, steps=EDGE_STEPS, window=9, optimized=False)
    @example(literals=[1 << 62] * 14, steps=EDGE_STEPS, window=9, optimized=True)
    def test_forged_literals_vectorize_or_fall_back(
        self, literals, steps, window, optimized
    ):
        compiled = _forged(_program(optimized), literals)
        _three_ways(compiled, _anchors(steps, (-50, 3)), window)

    def test_a_score_that_can_fall_is_refused(self):
        """MIN in place of the final MAX lets a score drop below the
        floor the skip proof assumes: the split refuses the program."""
        compiled = _program(optimized=True)
        last = compiled.instructions[-1]
        slot = last.cu0.right
        assert slot.opcode is Opcode.MAX
        falling = dataclasses.replace(
            last, cu0=dataclasses.replace(last.cu0, right=SlotOp(Opcode.MIN, slot.operands))
        )
        forged = dataclasses.replace(
            compiled, instructions=compiled.instructions[:-1] + (falling,)
        )
        with pytest.raises(SpecializationError, match="can leave the interval"):
            chain_band_cell(forged)
        scalar = _scalar(forged)
        assert band_sweep(forged, scalar) is scalar
        _three_ways(forged, _anchors(EDGE_STEPS), 5)

    def test_ties_go_to_the_later_anchor_when_the_selects_say_so(self):
        """The selects with their operands swapped keep the score on a
        tie but hand the parent to the later anchor: the fold's guard
        is ``f_i <= candidate``, and two equal anchors tie on the next."""
        compiled = _program(optimized=True)
        last = compiled.instructions[-1]
        f, parent = last.cu0.right, last.cu1.left
        assert (f.opcode, parent.opcode) == (Opcode.MAX, Opcode.CMP_GT)
        candidate, score, j, kept = parent.operands
        swapped = dataclasses.replace(
            last,
            cu0=dataclasses.replace(last.cu0, right=SlotOp(Opcode.MAX, (candidate, score))),
            cu1=dataclasses.replace(
                last.cu1, left=SlotOp(Opcode.CMP_GT, (score, candidate, kept, j))
            ),
        )
        forged = dataclasses.replace(
            compiled, instructions=compiled.instructions[:-1] + (swapped,)
        )
        assert " <= " in chain_band_cell(forged).guard
        anchors = [[0, 0, 19], [0, 0, 19], [100, 100, 19]]
        assert _three_ways(forged, anchors, 2) == "band"
        operands = _chain_operands("chain", {"anchors": anchors, "n": 2})
        assert band_sweep(forged, _scalar(forged))(*operands)["parents"] == [-1, -1, 1]

    def test_a_product_past_int64_falls_back(self):
        """With the caps at 2^62 the gate keeps a pair whose gap term
        ``76 * dd`` passes int64: past the proved bound, the task runs
        scalar."""
        compiled = _program(dfg=chain_dfg(max_distance=1 << 62, max_diag_diff=1 << 62))
        bound = chain_band_cell(compiled).bound
        assert bound < 1 << 61
        assert _three_ways(compiled, [[0, 0, 19], [1 << 61, 1 << 40, 19]], 1) == "fused"
        assert _three_ways(compiled, [[0, 0, 19], [bound, 1 << 40, 19]], 1) == "band"

    def test_an_opcode_without_a_lane_template_is_refused(self):
        compiled = _program()
        first = compiled.instructions[0]
        slot = first.cu0.right
        forged = dataclasses.replace(
            compiled,
            instructions=(
                dataclasses.replace(
                    first,
                    cu0=dataclasses.replace(
                        first.cu0, right=SlotOp(Opcode.LOG_SUM_LUT, slot.operands)
                    ),
                ),
                *compiled.instructions[1:],
            ),
        )
        with pytest.raises(SpecializationError, match="no lane template"):
            chain_band_cell(forged)
        _three_ways(forged, _anchors(EDGE_STEPS), 5)


class TestChainBandSource:
    """The split's shape on DPMap's program; CI's "Call-free cells"
    step runs this class too (``-k ChainBand``)."""

    @pytest.mark.parametrize("optimized", [False, True])
    def test_the_fold_is_call_free_per_pair(self, optimized):
        tree = ast.parse(chain_band_source(_program(optimized)))
        (fold,) = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.For) and isinstance(node.target, ast.Tuple)
            and node.target.elts[0].id == "j" and len(node.target.elts) > 2
        ]
        calls = [node for stmt in fold.body for node in ast.walk(stmt) if isinstance(node, ast.Call)]
        assert calls == []

    def test_gates_decide_in_numpy_and_the_fold_reads_one_lane_list(self):
        cell = chain_band_cell(_program())
        source = "\n".join(cell.block + [cell.keep] + cell.kept)
        for constant in ("400", "76", "100", "500", "5000"):
            assert constant in source  # from the DFG, not the emitter
        assert "_log2_lanes" in "\n".join(cell.kept)  # past the gate only
        assert len(cell.exports) == 1
        assert cell.keep.count(" <= ") == 3 and cell.keep.count(" > 0)") == 2

    def test_the_emitter_holds_no_chain_constant(self):
        import inspect

        from repro.engine import band, sweep

        for module in (band, sweep):
            text = inspect.getsource(module)
            for constant in ("76", "500", "5000", "1073741824"):
                assert constant not in text, (module.__name__, constant)


def _traced_chain(anchors):
    payload = {"anchors": anchors, "_trace": {"trace_id": "t", "job_id": 1}}
    value = run_job("chain", _program(), payload)
    (span,) = value.pop("_trace_spans")
    return span["args"]["path"]


class TestChainBandPath:
    def test_the_span_names_the_sweep_that_ran(self):
        small = _anchors([(40, 30)] * 24)  # 24 x 23 lanes
        large = _anchors([(40, 30)] * 96)
        assert 24 * 23 < BAND_MIN_LANES <= 96 * 64
        assert _traced_chain(small) == "fused"
        assert _traced_chain(large) == "band"
        armed = {"anchors": large, "_sentinels": True, "_trace": {"trace_id": "t"}}
        (span,) = run_job("chain", _program(), armed)["_trace_spans"]
        assert span["args"]["path"] == "fused"

    def test_an_inline_engine_imports_numpy_only_for_a_band_task(self):
        """All five kernels at 16x12 with 24 anchors leave numpy
        unimported; a 96-anchor Chain task then runs the band."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["band"]


SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

NUMPY_PROBE = """
import random, sys
from repro.engine import Engine, EngineConfig, make_job
from repro.engine.cache import compile_program
from repro.engine.runners import build_dfg, run_job
from repro.workloads.anchors import generate_chain_workload

rng = random.Random(3)
dna = lambda k: "".join(rng.choice("ACGT") for _ in range(k))
signal = lambda k: [rng.randint(-400, 400) for _ in range(k)]
small, large = (
    [[a.x, a.y, a.w] for a in generate_chain_workload(1, count, seed=5).tasks[0].anchors]
    for count in (24, 96)
)
jobs = [
    make_job("bsw", {"query": dna(16), "target": dna(12)}),
    make_job("pairhmm", {"read": dna(16), "haplotype": dna(12)}),
    make_job("lcs", {"x": dna(16), "y": dna(12)}),
    make_job("dtw", {"a": signal(16), "b": signal(12)}),
    make_job("chain", {"anchors": small}),
]
with Engine(EngineConfig(workers=0)) as engine:
    engine.submit_many(jobs)
    assert all(result.ok for result in engine.drain())
    assert "numpy" not in sys.modules, "a 16x12 drain imported numpy"
    engine.submit_many([make_job("chain", {"anchors": large})])
    assert all(result.ok for result in engine.drain())
    assert "numpy" in sys.modules, "a 96-anchor chain task ran without numpy"
payload = {"anchors": large, "_trace": {"trace_id": "t"}}
value = run_job("chain", compile_program("chain", 2, build_dfg("chain")), payload)
print(value["_trace_spans"][0]["args"]["path"])
"""
