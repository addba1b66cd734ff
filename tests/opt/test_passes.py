"""The rewrite passes, the re-packer, and the pipeline's invariants."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.dfg.graph import DataFlowGraph, Opcode, OPCODE_ARITY
from repro.dpmap.codegen import CellProgram, compile_cell, run_program, verify_program
from repro.guard.verifier import check_program
from repro.isa.compute import CUInstruction, Imm, Reg, SlotOp, VLIWInstruction
from repro.opt.model import is_pure_copy, linearize
from repro.opt.passes import (
    CommonSubexpressionPass,
    ConstantFoldPass,
    CopyPropagationPass,
    DeadCodePass,
    PassPipeline,
    SimplifySlotsPass,
    default_pipeline,
    encode_instructions,
    pack_ways,
)


def way(dest, opcode, *operands, root=None, right=None):
    return CUInstruction(
        kind="tree",
        dest=Reg(dest),
        left=SlotOp(opcode, tuple(operands)),
        right=right,
        root=root,
    )


def program(bundles, inputs, outputs):
    return CellProgram(
        mapping=None,
        instructions=[
            VLIWInstruction(cu0=b[0], cu1=b[1] if len(b) > 1 else None)
            for b in bundles
        ],
        input_regs=dict(inputs),
        output_regs=dict(outputs),
        node_regs={},
    )


def run_pass(one_pass, prog):
    stats = {}
    lp = one_pass.run(linearize(prog), stats)
    return lp, stats


class TestConstantFold:
    def test_imm_only_slot_becomes_copy(self):
        prog = program(
            [[way(1, Opcode.ADD, Imm(2), Imm(3))]],
            inputs={"a": 0},
            outputs={"o": 1},
        )
        lp, stats = run_pass(ConstantFoldPass(), prog)
        assert stats == {"constants_folded": 1}
        assert is_pure_copy(lp.ways[0]) == Imm(5)

    def test_imm_only_mul_frees_the_multiplier(self):
        prog = program(
            [[CUInstruction(kind="mul", dest=Reg(1), mul=SlotOp(Opcode.MUL, (Imm(4), Imm(6))))]],
            inputs={"a": 0},
            outputs={"o": 1},
        )
        lp, stats = run_pass(ConstantFoldPass(), prog)
        assert stats == {"constants_folded": 1}
        assert lp.ways[0].kind == "tree"
        assert is_pure_copy(lp.ways[0]) == Imm(24)

    def test_root_folds_through_copy_leaves(self):
        w = CUInstruction(
            kind="tree",
            dest=Reg(1),
            left=SlotOp(Opcode.COPY, (Imm(7),)),
            right=SlotOp(Opcode.COPY, (Imm(5),)),
            root=Opcode.SUB,
        )
        prog = program([[w]], inputs={"a": 0}, outputs={"o": 1})
        lp, stats = run_pass(ConstantFoldPass(), prog)
        assert is_pure_copy(lp.ways[0]) == Imm(2)

    def test_root_swapped_reverses_fold_order(self):
        w = CUInstruction(
            kind="tree",
            dest=Reg(1),
            left=SlotOp(Opcode.COPY, (Imm(7),)),
            right=SlotOp(Opcode.COPY, (Imm(5),)),
            root=Opcode.SUB,
            root_swapped=True,
        )
        prog = program([[w]], inputs={"a": 0}, outputs={"o": 1})
        lp, _ = run_pass(ConstantFoldPass(), prog)
        assert is_pure_copy(lp.ways[0]) == Imm(-2)

    def test_lut_opcodes_never_fold(self):
        w = way(1, Opcode.MATCH_SCORE, Imm(1), Imm(1))
        prog = program([[w]], inputs={"a": 0}, outputs={"o": 1})
        lp, stats = run_pass(ConstantFoldPass(), prog)
        assert stats == {}
        assert lp.ways[0] is w


class TestCopyPropagation:
    def test_forwarding_into_readers(self):
        copy = CUInstruction(
            kind="tree", dest=Reg(1), right=SlotOp(Opcode.COPY, (Reg(0),))
        )
        prog = program(
            [[copy], [way(2, Opcode.ADD, Reg(1), Imm(3))]],
            inputs={"a": 0},
            outputs={"o": 2},
        )
        lp, stats = run_pass(CopyPropagationPass(), prog)
        assert stats == {"copies_propagated": 1}
        assert lp.ways[1].left.operands == (Reg(0), Imm(3))

    def test_output_copy_retargets_the_map(self):
        copy = CUInstruction(
            kind="tree", dest=Reg(2), right=SlotOp(Opcode.COPY, (Reg(1),))
        )
        prog = program(
            [[way(1, Opcode.ADD, Reg(0), Imm(1))], [copy]],
            inputs={"a": 0},
            outputs={"o": 2},
        )
        lp, _ = run_pass(CopyPropagationPass(), prog)
        assert lp.output_regs == {"o": 1}

    def test_imm_copy_feeding_an_output_stays(self):
        copy = CUInstruction(
            kind="tree", dest=Reg(1), right=SlotOp(Opcode.COPY, (Imm(9),))
        )
        prog = program([[copy]], inputs={"a": 0}, outputs={"o": 1})
        lp, stats = run_pass(CopyPropagationPass(), prog)
        assert stats == {}
        assert lp.output_regs == {"o": 1}


class TestCommonSubexpression:
    def test_duplicate_way_becomes_copy(self):
        prog = program(
            [
                [way(1, Opcode.ADD, Reg(0), Imm(2)), way(2, Opcode.ADD, Reg(0), Imm(2))],
                [way(3, Opcode.MAX, Reg(1), Reg(2))],
            ],
            inputs={"a": 0},
            outputs={"o": 3},
        )
        lp, stats = run_pass(CommonSubexpressionPass(), prog)
        assert stats == {"subexpressions_shared": 1}
        assert is_pure_copy(lp.ways[1]) == Reg(1)

    def test_duplicate_slot_reuses_single_op_way(self):
        dup = SlotOp(Opcode.CMP_GT, (Reg(0), Imm(5), Imm(1), Imm(0)))
        single = CUInstruction(kind="tree", dest=Reg(1), left=dup)
        consumer = CUInstruction(
            kind="tree",
            dest=Reg(2),
            left=dup,
            right=SlotOp(Opcode.COPY, (Reg(0),)),
            root=Opcode.ADD,
        )
        prog = program(
            [[single], [consumer]], inputs={"a": 0}, outputs={"o": 2, "p": 1}
        )
        lp, stats = run_pass(CommonSubexpressionPass(), prog)
        assert stats == {"subexpressions_shared": 1}
        assert lp.ways[1].left == SlotOp(Opcode.COPY, (Reg(1),))


class TestSimplifySlots:
    def test_dead_right_slot_dropped(self):
        w = CUInstruction(
            kind="tree",
            dest=Reg(1),
            left=SlotOp(Opcode.ADD, (Reg(0), Imm(1))),
            right=SlotOp(Opcode.SUB, (Reg(0), Imm(1))),
        )
        prog = program([[w]], inputs={"a": 0}, outputs={"o": 1})
        lp, stats = run_pass(SimplifySlotsPass(), prog)
        assert stats == {"dead_slots_removed": 1}
        assert lp.ways[0].right is None

    def test_copy_fed_root_collapses_to_one_slot(self):
        w = CUInstruction(
            kind="tree",
            dest=Reg(1),
            left=SlotOp(Opcode.COPY, (Reg(0),)),
            right=SlotOp(Opcode.COPY, (Imm(3),)),
            root=Opcode.MAX,
        )
        prog = program([[w]], inputs={"a": 0}, outputs={"o": 1})
        lp, stats = run_pass(SimplifySlotsPass(), prog)
        assert stats == {"slots_simplified": 1}
        assert lp.ways[0].left is None
        assert lp.ways[0].right == SlotOp(Opcode.MAX, (Reg(0), Imm(3)))
        assert lp.ways[0].root is None


class TestDeadCode:
    def test_unreachable_cone_removed(self):
        prog = program(
            [
                [way(1, Opcode.ADD, Reg(0), Imm(1)), way(2, Opcode.SUB, Reg(0), Imm(1))],
                [way(3, Opcode.ADD, Reg(2), Imm(1))],
                [way(4, Opcode.MAX, Reg(1), Imm(0))],
            ],
            inputs={"a": 0},
            outputs={"o": 4},
        )
        lp, stats = run_pass(DeadCodePass(), prog)
        assert stats == {"ways_eliminated": 2}
        assert [w.dest.index for w in lp.ways] == [1, 4]


class TestPackWays:
    def test_respects_no_same_bundle_forwarding(self):
        prog = program(
            [
                [way(1, Opcode.ADD, Reg(0), Imm(1))],
                [way(2, Opcode.ADD, Reg(1), Imm(1))],
                [way(3, Opcode.SUB, Reg(0), Imm(5))],
            ],
            inputs={"a": 0},
            outputs={"o": 2, "p": 3},
        )
        lp = linearize(prog)
        bundles, moved = pack_ways(lp)
        assert len(bundles) == 2  # r3 rides along with r1 or r2
        assert moved >= 1
        writer_bundle = {}
        for index, bundle in enumerate(bundles):
            for w in bundle.ways:
                writer_bundle[w.dest.index] = index
        assert writer_bundle[1] < writer_bundle[2]

    def test_deterministic(self):
        prog = compile_cell_for("chain")
        lp = linearize(prog)
        first, _ = pack_ways(lp)
        second, _ = pack_ways(lp)
        assert encode_instructions(first) == encode_instructions(second)


def compile_cell_for(kernel):
    from repro.engine.runners import build_dfg

    return compile_cell(build_dfg(kernel))


class TestPipeline:
    def test_signature_is_stable_and_contract_sensitive(self):
        plain = default_pipeline()
        kept = default_pipeline(["h", "e"])
        assert plain.signature() == default_pipeline().signature()
        assert plain.signature() != kept.signature()
        assert kept.signature().endswith("|keep=e,h")

    def test_unchanged_program_returned_as_same_object(self):
        prog = compile_cell_for("dtw")
        outcome = default_pipeline().run(prog)
        assert outcome.program is prog
        assert not outcome.changed

    def test_idempotent_on_kernels(self):
        for kernel in ("bsw", "pairhmm", "chain", "dtw"):
            from repro.opt import contract_for

            pipeline = default_pipeline(contract_for(kernel))
            once = pipeline.run(compile_cell_for(kernel))
            twice = pipeline.run(once.program)
            assert twice.program.content_hash() == once.program.content_hash()

    def test_semantics_preserved_on_hand_program(self):
        # Exercises every pass at once: constants, copies, a duplicate
        # way, a dead right slot and a dead cone.
        copy = CUInstruction(
            kind="tree", dest=Reg(2), right=SlotOp(Opcode.COPY, (Reg(0),))
        )
        prog = program(
            [
                [way(1, Opcode.ADD, Imm(2), Imm(3)), copy],
                [way(3, Opcode.ADD, Reg(2), Imm(4)), way(4, Opcode.ADD, Reg(2), Imm(4))],
                [way(5, Opcode.MAX, Reg(3), Reg(4), root=Opcode.MIN,
                     right=SlotOp(Opcode.COPY, (Reg(1),)))],
                [way(6, Opcode.SUB, Reg(5), Imm(1))],
                [way(7, Opcode.SUB, Reg(5), Imm(2))],
            ],
            inputs={"a": 0},
            outputs={"o": 6},
        )
        outcome = default_pipeline().run(prog)
        assert outcome.changed
        assert len(outcome.program.instructions) < len(prog.instructions)
        for a in (-64, -1, 0, 7, 64):
            assert run_program(outcome.program, {"a": a}) == run_program(
                prog, {"a": a}
            )

    def test_scheduler_never_regresses_bundle_count(self):
        for kernel in ("bsw", "pairhmm", "poa", "chain", "dtw", "lcs"):
            from repro.dfg.kernels import KERNEL_DFGS

            prog = compile_cell(KERNEL_DFGS[kernel]())
            outcome = default_pipeline().run(prog)
            assert len(outcome.program.instructions) <= len(prog.instructions)
            assert "scheduler_regressed" not in outcome.stats

    def test_optimized_programs_stay_legal(self):
        prog = compile_cell_for("bsw")
        outcome = default_pipeline(["h", "e", "f"]).run(prog)
        assert check_program(outcome.program).ok


# ----------------------------------------------------------------------
# property tests: the pipeline preserves semantics on random DFGs

_OP_POOL = [
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MAX,
    Opcode.MIN,
    Opcode.MUL,
    Opcode.COPY,
    Opcode.CMP_GT,
    Opcode.CMP_EQ,
    Opcode.LOG2_LUT,
]


@st.composite
def random_dfg(draw):
    """A random well-formed DFG with 3-12 operators (some constant-fed)."""
    node_count = draw(st.integers(min_value=3, max_value=12))
    input_count = draw(st.integers(min_value=2, max_value=4))
    dfg = DataFlowGraph("random")
    inputs = [dfg.input(f"i{k}") for k in range(input_count)]
    refs = list(inputs) + [
        dfg.const(draw(st.integers(min_value=-8, max_value=8)))
    ]
    made = []
    for _ in range(node_count):
        opcode = draw(st.sampled_from(_OP_POOL))
        arity = OPCODE_ARITY[opcode]
        operands = [
            refs[draw(st.integers(min_value=0, max_value=len(refs) - 1))]
            for _ in range(arity)
        ]
        node = dfg.op(opcode, *operands)
        refs.append(node)
        made.append(node)
    output_count = draw(st.integers(min_value=1, max_value=min(3, len(made))))
    for k in range(output_count):
        dfg.mark_output(f"o{k}", made[-(k + 1)])
    return dfg


class TestPipelineProperties:
    @given(random_dfg(), st.integers(min_value=-64, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_semantics_preserved_and_idempotent(self, dfg, base):
        pipeline = default_pipeline()
        prog = compile_cell(dfg)
        outcome = pipeline.run(prog)
        optimized = outcome.program
        assert len(optimized.instructions) <= len(prog.instructions)
        assert check_program(optimized).ok
        inputs = {
            name: base + k for k, name in enumerate(sorted(dfg.inputs))
        }
        assert verify_program(optimized, inputs)
        again = pipeline.run(optimized)
        assert again.program.content_hash() == optimized.content_hash()
