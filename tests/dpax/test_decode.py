"""The decode-at-load compilers against the functional model.

The per-cycle interpreter is gone; what a decoded bundle must compute
is pinned here by a small evaluator built directly on
:func:`repro.dfg.graph._apply` (the concrete opcode table), over
random valid bundles covering every opcode, every datapath mode and
both match-table settings.
"""

import gc
import random
import weakref

import pytest

from repro.dfg.graph import FOUR_INPUT_OPCODES, OPCODE_ARITY, Opcode, _apply
from repro.dpax.decode import decode_bundle, decode_control
from repro.dpax.pe import PE, pack_lanes_n, sat_lane, unpack_lanes_n, wrap32
from repro.dpax.pe_array import PEArray
from repro.dpax.storage import RegisterFile
from repro.isa.compute import CUInstruction, Imm, Reg, SlotOp, VLIWInstruction
from repro.isa.control import IN_PORT, halt, mv, reg, set_unit

RF_SIZE = 8
#: (datapath, simd_lanes)
MODES = [("int", 1), ("fp", 1), ("int", 2), ("int", 4)]


def reference_bundle(bundle, words, datapath, lanes, match_table):
    """The RF image after *bundle*, straight from ``_apply``: operands
    are read from the pre-bundle image, SIMD modes run lane-wise with
    saturating lanes, the integer datapath wraps to 32 bits."""
    simd = lanes in (2, 4)
    bits = 32 // lanes if simd else 32

    def apply_op(opcode, args):
        if not simd:
            return _apply(opcode, args, match_table, None)
        unpacked = [unpack_lanes_n(arg & 0xFFFFFFFF, lanes) for arg in args]
        return pack_lanes_n(
            [
                sat_lane(_apply(opcode, [arg[k] for arg in unpacked], match_table, None), bits)
                for k in range(lanes)
            ],
            lanes,
        )

    def run_slot(slot):
        args = []
        for operand in slot.operands:
            if not isinstance(operand, Imm):
                args.append(words[operand.index])
            elif simd:
                args.append(pack_lanes_n([sat_lane(operand.value, bits)] * lanes, lanes))
            else:
                args.append(operand.value)
        return apply_op(slot.opcode, args)

    def run_way(way):
        # A leaf whose output nothing consumes is read (and counted)
        # but its value is unobservable, so it is not evaluated here.
        if way.kind == "mul":
            return run_slot(way.mul)
        if way.root is None:
            return run_slot(way.left if way.left is not None else way.right)
        if OPCODE_ARITY[way.root] == 1:
            return apply_op(way.root, [run_slot(way.left)])
        left, right = run_slot(way.left), run_slot(way.right)
        return apply_op(way.root, [right, left] if way.root_swapped else [left, right])

    values = [run_way(way) for way in bundle.ways]
    after = list(words)
    for way, value in zip(bundle.ways, values):
        after[way.dest.index] = wrap32(int(value)) if datapath == "int" else value
    return after


def random_slot(rng, opcodes):
    opcode = rng.choice(opcodes)
    operands = tuple(
        Imm(rng.choice([0, 1, -1, 5, 200, -70000, 1 << 20]))
        if rng.random() < 0.3
        else Reg(rng.randrange(RF_SIZE))
        for _ in range(OPCODE_ARITY[opcode])
    )
    return SlotOp(opcode, operands)


def random_way(rng):
    dest = Reg(rng.randrange(RF_SIZE))
    if rng.random() < 0.15:
        return CUInstruction(kind="mul", dest=dest, mul=random_slot(rng, [Opcode.MUL]))
    everything = list(OPCODE_ARITY)
    two_input = [op for op in everything if op not in FOUR_INPUT_OPCODES]
    left = random_slot(rng, everything) if rng.random() < 0.8 else None
    right = random_slot(rng, two_input) if left is None or rng.random() < 0.7 else None
    roots = [None]
    if left is not None:
        roots += [op for op in two_input if OPCODE_ARITY[op] == 1]
    if left is not None and right is not None:
        roots += [op for op in two_input if OPCODE_ARITY[op] == 2 and op is not Opcode.MUL]
    return CUInstruction(
        kind="tree", dest=dest, left=left, right=right,
        root=rng.choice(roots), root_swapped=rng.random() < 0.3,
    )


def random_bundle(rng):
    cu0 = random_way(rng) if rng.random() < 0.9 else None
    cu1 = random_way(rng) if cu0 is None or rng.random() < 0.8 else None
    bundle = VLIWInstruction(cu0=cu0, cu1=cu1)
    bundle.validate()
    return bundle


def random_words(rng, datapath):
    if datapath == "fp" and rng.random() < 0.5:
        return [rng.choice([0.0, 0.5, -3.25, 1e9, rng.uniform(-8, 8)]) for _ in range(RF_SIZE)]
    pool = [0, 1, -1, 7, (1 << 31) - 1, -(1 << 31), rng.randrange(-(1 << 31), 1 << 31)]
    return [rng.choice(pool) for _ in range(RF_SIZE)]


def outcome(function):
    try:
        return function()
    except (TypeError, ValueError, OverflowError) as error:
        return type(error)


def opcodes_of(bundle):
    seen = set()
    for way in bundle.ways:
        for slot in (way.mul, way.left, way.right):
            if slot is not None:
                seen.add(slot.opcode)
        if way.root is not None:
            seen.add(way.root)
    return seen


@pytest.mark.parametrize("datapath,lanes", MODES)
@pytest.mark.parametrize("with_table", [False, True])
def test_decoded_bundles_match_the_functional_model(datapath, lanes, with_table):
    rng = random.Random(f"{datapath}/{lanes}/{with_table}")
    match_table = (lambda a, b: a * 3 - b + 1) if with_table else None
    covered = set()
    for _ in range(600):
        bundle = random_bundle(rng)
        words = random_words(rng, datapath)
        run, ways, alu_ops = decode_bundle(
            bundle, RF_SIZE, datapath == "int", lanes, with_table
        )
        rf = RegisterFile(RF_SIZE)
        rf._words[:] = words

        def decoded():
            run(rf, match_table)
            return list(rf._words)

        want = outcome(lambda: reference_bundle(bundle, words, datapath, lanes, match_table))
        got = outcome(decoded)
        assert got == want, bundle.text()
        if isinstance(want, list):
            covered |= opcodes_of(bundle)
            assert [type(x) for x in got] == [type(x) for x in want]
            reads = sum(
                isinstance(operand, Reg)
                for way in bundle.ways
                for slot in ((way.mul,) if way.kind == "mul" else (way.left, way.right))
                if slot is not None
                for operand in slot.operands
            )
            assert (rf.reads, rf.writes) == (reads, len(bundle.ways))
            assert (ways, alu_ops) == (
                len(bundle.ways), sum(way.alu_ops for way in bundle.ways)
            )
    # Every opcode the functional model evaluates ran to a result.
    assert covered == set(OPCODE_ARITY)


class TestCallFreeTemplates:
    """Decoded bundles share the engine's MAX/MIN lowering, the SIMD
    lane clamp included; CI runs this class on its own."""

    @pytest.mark.parametrize("lanes", [1, 2, 4])
    def test_bundle_sources_are_the_same_text_and_call_no_builtin(self, lanes):
        from repro.dpax.decode import _bundle_body
        from tests.engine.test_specialize import (
            ALLOWED_CALLS,
            called_names,
            engine_programs,
        )

        for compiled in engine_programs():
            for bundle in compiled.instructions:
                for with_table in (False, True):
                    body = _bundle_body(bundle.ways, 64, True, lanes, with_table)
                    again = _bundle_body(bundle.ways, 64, True, lanes, with_table)
                    assert body == again
                    source = "\n".join(body)
                    assert called_names(source) <= ALLOWED_CALLS, (
                        bundle.text(), called_names(source) - ALLOWED_CALLS
                    )

    @pytest.mark.parametrize("lanes", [1, 2, 4])
    @pytest.mark.parametrize(
        "root, swapped",
        [(Opcode.MAX, False), (Opcode.MIN, True), (Opcode.LOG2_LUT, False)],
    )
    def test_a_nested_operand_runs_once_per_lane(self, lanes, root, swapped):
        """The root reads its left operand twice and the lane clamp
        reads every result twice: the match table under them must
        still be called once per lane, low lane first.  (Left-before-
        right is pinned where both leaves can call,
        tests/engine/test_specialize.py: the right ALU takes no table.)"""
        way = CUInstruction(
            kind="tree",
            dest=Reg(4),
            left=SlotOp(Opcode.MATCH_SCORE, (Reg(0), Reg(1))),
            right=None
            if root is Opcode.LOG2_LUT
            else SlotOp(Opcode.ADD, (Reg(2), Reg(3))),
            root=root,
            root_swapped=swapped,
        )
        bundle = VLIWInstruction(cu0=way)
        words = [0x00050003, 0x00010002, 2, 3, 0, 0, 0, 0]
        calls = []

        def table(a, b):
            calls.append((a, b))
            return a * 7 - b

        run, _, _ = decode_bundle(bundle, RF_SIZE, True, lanes, True)
        rf = RegisterFile(RF_SIZE)
        rf._words[:] = words
        run(rf, table)
        if lanes == 1:
            assert calls == [(words[0], words[1])]
        else:
            assert calls == list(
                zip(unpack_lanes_n(words[0], lanes), unpack_lanes_n(words[1], lanes))
            )
        calls.clear()
        assert list(rf._words) == reference_bundle(bundle, words, "int", lanes, table)


class TestMemos:
    def test_decoded_programs_form_no_cycle_with_their_unit(self):
        # Handlers take the PE/array as an argument; had they closed
        # over it, a dropped array would wait for the cyclic collector.
        gc.disable()
        try:
            array = PEArray()
            array.load_pe(0, [mv(reg(0), IN_PORT), halt()], [])
            array.load_array_control([set_unit(0, 1), halt()])
            array.run(10)
            dropped = [weakref.ref(array), weakref.ref(array.pes[0])]
            del array
            assert [ref() for ref in dropped] == [None, None]
        finally:
            gc.enable()

    def test_equal_instructions_share_one_handler(self):
        first, second = PE(0), PE(1)
        program = [mv(reg(0), IN_PORT), halt()]
        first.load(program, [])
        second.load([mv(reg(0), IN_PORT), halt()], [])
        assert first._ops[0] is second._ops[0] is decode_control(program[0], "pe", True)

    def test_bundle_memo_ignores_which_match_table_is_bound(self, rng):
        # Mappings build a fresh match-table closure per run; the memo
        # must hit anyway (and must not pin the closures).
        from repro.kernels.poa import PartialOrderGraph
        from repro.mapping.longrange import run_poa_row_dp

        graph = PartialOrderGraph("ACGTAC")
        first = run_poa_row_dp(graph, "ACGAC")
        misses = decode_bundle.cache_info().misses
        assert run_poa_row_dp(graph, "ACGAC").h == first.h
        assert decode_bundle.cache_info().misses == misses
