"""Differential harness: clean kernels agree; corrupted codegen is
caught, shrunk, and serialized as a minimal reproducer."""

import dataclasses
import json

import pytest

from repro.dfg.graph import Opcode
from repro.dpmap.codegen import compile_cell, verify_program
from repro.guard import diff
from repro.guard.diff import (
    DIFF_KERNELS,
    KernelPrograms,
    compile_kernel_programs,
    dfg_from_dict,
    dfg_to_dict,
    generate_payload,
    payload_size,
    probe_cell,
    restrict_outputs,
    run_case,
    shrink_mismatch,
    shrink_payload,
)
from repro.guard.sentinels import make_sentinel
from repro.isa.compute import SlotOp

#: Semantics-changing, structure-preserving opcode flips (the model of
#: a codegen bug: a legal program computing the wrong function).
_FLIP = {
    Opcode.ADD: Opcode.SUB,
    Opcode.SUB: Opcode.ADD,
    Opcode.MIN: Opcode.MAX,
    Opcode.MAX: Opcode.MIN,
}


def _flip_first_op(instructions):
    """Instructions with the first flippable ALU opcode swapped."""
    out = list(instructions)
    for i, bundle in enumerate(out):
        for way_attr in ("cu0", "cu1"):
            way = getattr(bundle, way_attr)
            if way is None:
                continue
            if way.root in _FLIP:
                new_way = dataclasses.replace(way, root=_FLIP[way.root])
                out[i] = dataclasses.replace(bundle, **{way_attr: new_way})
                return out
            for slot_attr in ("left", "right", "mul"):
                slot = getattr(way, slot_attr)
                if slot is not None and slot.opcode in _FLIP:
                    new_way = dataclasses.replace(
                        way, **{slot_attr: SlotOp(_FLIP[slot.opcode], slot.operands)}
                    )
                    out[i] = dataclasses.replace(bundle, **{way_attr: new_way})
                    return out
    raise AssertionError("no flippable opcode found")


def _corrupt_cell(program):
    return dataclasses.replace(
        program, instructions=_flip_first_op(program.instructions)
    )


class TestPayloadGeneration:
    def test_pure_in_seed_and_index(self):
        for kernel in DIFF_KERNELS:
            assert generate_payload(kernel, 7, 3) == generate_payload(kernel, 7, 3)
            assert generate_payload(kernel, 7, 3) != generate_payload(kernel, 8, 3)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            generate_payload("nope", 0, 0)


class TestCleanDifferential:
    @pytest.mark.parametrize("kernel", DIFF_KERNELS)
    def test_compiled_matches_reference(self, kernel):
        programs = compile_kernel_programs(kernel)
        sentinel = make_sentinel(kernel)
        for index in range(3):
            payload = generate_payload(kernel, 11, index)
            outcome = run_case(kernel, payload, programs, sentinel)
            assert outcome.ok, (kernel, index, outcome.expected, outcome.actual)

    @pytest.mark.parametrize("kernel", DIFF_KERNELS)
    def test_clean_cell_probes(self, kernel):
        programs = compile_kernel_programs(kernel)
        for _, program in programs.named_cells():
            assert probe_cell(kernel, program, 11, 0) is None


class TestCorruptedCodegen:
    def test_mismatch_detected_and_payload_shrunk(self):
        clean = compile_kernel_programs("dtw")
        corrupted = KernelPrograms(
            kernel="dtw",
            compiled=dataclasses.replace(
                clean.compiled,
                instructions=tuple(_flip_first_op(clean.compiled.instructions)),
            ),
            cells=clean.cells,
        )
        payload = generate_payload("dtw", 7, 0)
        assert not run_case("dtw", payload, corrupted).ok

        reproducer = shrink_mismatch("dtw", 7, 0, payload, corrupted)
        assert reproducer.kind == "payload"
        # Minimal and still failing: the reproducer replays standalone.
        assert payload_size("dtw", reproducer.payload) <= payload_size("dtw", payload)
        assert not run_case("dtw", reproducer.payload, corrupted).ok
        assert run_case("dtw", reproducer.payload, clean).ok
        # Serializes to self-contained JSON with both answers.
        record = json.loads(reproducer.to_json())
        assert record["kernel"] == "dtw"
        assert record["expected"] != record["actual"]

    def test_specialized_cell_diverging_from_interpreter_is_a_finding(
        self, monkeypatch
    ):
        """A codegen bug: the interpreter (and so the reference) is
        right, the fused sweep every executor runs is not."""
        from repro.engine import runners

        real = runners.fused_sweep

        def off_by_one(compiled, armed=False):
            sweep = real(compiled, armed)

            def wrong(*operands):
                final = sweep(*operands)
                return {**final, "d": [value + 1 for value in final["d"]]}

            return wrong

        programs = compile_kernel_programs("dtw")
        payload = generate_payload("dtw", 7, 0)
        assert run_case("dtw", payload, programs).ok
        monkeypatch.setattr(runners, "fused_sweep", off_by_one)
        outcome = run_case("dtw", payload, programs, make_sentinel("dtw"))
        assert not outcome.ok
        # expected is the oracle's answer, actual the fused one.
        assert outcome.expected["distance"] == diff.reference_answer(
            "dtw", payload
        )["distance"]
        assert outcome.actual["distance"] != outcome.expected["distance"]
        reproducer = shrink_mismatch("dtw", 7, 0, payload, programs)
        assert payload_size("dtw", reproducer.payload) <= payload_size("dtw", payload)
        assert reproducer.expected != reproducer.actual

    def test_armed_counts_diverging_from_the_interpreter_are_a_finding(
        self, monkeypatch
    ):
        """The armed sweep computes the right value but miscounts one
        hazard: only a run under a sentinel can see it."""
        from repro.engine import runners

        real = runners.fused_sweep

        def miscounting(compiled, armed=False):
            sweep = real(compiled, armed)
            if not armed:
                return sweep

            def wrong(*operands):
                final = sweep(*operands)
                return {**final, "underflows": final["underflows"] + 1}

            return wrong

        programs = compile_kernel_programs("pairhmm")
        payload = generate_payload("pairhmm", 7, 0)
        monkeypatch.setattr(runners, "fused_sweep", miscounting)
        assert run_case("pairhmm", payload, programs).ok
        sentinel = make_sentinel("pairhmm")
        outcome = run_case("pairhmm", payload, programs, sentinel)
        assert not outcome.ok
        # expected is the interpreter's answer and counts, actual the armed ones.
        expected, actual = dict(outcome.expected), dict(outcome.actual)
        assert expected.pop("_sentinels") == sentinel.snapshot()
        counts = actual.pop("_sentinels")
        assert expected == actual
        assert counts == {**sentinel.snapshot(), "underflows": sentinel.underflows + 1}
        reproducer = shrink_mismatch("pairhmm", 7, 0, payload, programs)
        assert payload_size("pairhmm", reproducer.payload) < payload_size("pairhmm", payload)
        assert reproducer.expected != reproducer.actual

    def test_cell_probe_shrinks_to_minimal_dfg(self, monkeypatch):
        clean_cell = compile_kernel_programs("dtw").cells["cell"]

        # Model a deterministic compiler bug: every compile_cell the
        # harness performs emits the flipped program.
        def buggy_compile(dfg):
            return _corrupt_cell(compile_cell(dfg))

        monkeypatch.setattr(diff, "compile_cell", buggy_compile)
        reproducer = probe_cell("dtw", _corrupt_cell(clean_cell), 7, 0)
        assert reproducer is not None and reproducer.kind == "cell"
        assert reproducer.expected != reproducer.actual
        # The shrunk DFG is no bigger than the kernel's, and the case
        # replays from JSON alone: the buggy compiler still fails it...
        dfg = dfg_from_dict(reproducer.dfg)
        assert len(dfg.nodes) <= len(clean_cell.mapping.dfg.nodes)
        assert not verify_program(buggy_compile(dfg), reproducer.inputs)
        # ...and the real compiler passes it.
        assert verify_program(compile_cell(dfg), reproducer.inputs)


class TestShrinkers:
    def test_payload_shrink_is_greedy_and_monotone(self):
        payload = generate_payload("bsw", 7, 5)
        payload["query"] += "GG"

        def still_fails(candidate):
            return "GG" in candidate["query"]

        shrunk = shrink_payload("bsw", payload, still_fails)
        assert still_fails(shrunk)
        assert payload_size("bsw", shrunk) <= payload_size("bsw", payload)
        assert shrunk["query"] == "GG"  # fully minimized for this predicate

    def test_shrink_ignores_raising_candidates(self):
        payload = {"query": "ACGT", "target": "ACGT"}

        def touchy(candidate):
            if len(candidate["query"]) < 2:
                raise RuntimeError("boom")
            return True

        shrunk = shrink_payload("bsw", payload, touchy)
        assert len(shrunk["query"]) >= 2


class TestDFGSerialization:
    @pytest.mark.parametrize("kernel", DIFF_KERNELS)
    def test_roundtrip_preserves_structure(self, kernel):
        for _, program in compile_kernel_programs(kernel).named_cells():
            dfg = program.mapping.dfg
            clone = dfg_from_dict(dfg_to_dict(dfg))
            assert clone.content_hash() == dfg.content_hash()

    def test_restrict_outputs_preserves_cone_semantics(self):
        from repro.dfg.kernels import bellman_ford_dfg

        dfg = bellman_ford_dfg()
        cone = restrict_outputs(dfg, ["dist"])
        assert len(cone.nodes) < len(dfg.nodes)
        inputs = {name: 3 for name in dfg.inputs}
        cone_inputs = {name: 3 for name in cone.inputs}
        assert cone.evaluate(cone_inputs)["dist"] == dfg.evaluate(inputs)["dist"]
