"""The interval analysis sees every compiled cell program exactly as
the golden file says, and refuses a program that is not SSA.

``golden_observations.json`` was generated while the analysis still
walked each program as its own linearized way list (see
:mod:`tests.static.golden_observations`); a difference here is a change
in what a certificate proves, not a flaky test.
"""

import dataclasses
import json

import pytest

from repro.dpmap.codegen import compile_cell
from repro.engine.cache import compile_program
from repro.engine.runners import build_dfg
from repro.opt import NonSSAProgramError, linearize
from repro.static.certify import certify_program, compiled_certificate
from tests.static.golden_observations import GOLDEN_PATH, observe, programs

GOLDEN = json.loads(GOLDEN_PATH.read_text())
CASES = {case: (kernel, label, program) for case, kernel, label, program in programs()}


def test_same_cases():
    assert sorted(GOLDEN) == sorted(CASES)
    assert len(CASES) == 24


@pytest.mark.parametrize("case", sorted(CASES))
def test_observations_identical(case):
    assert json.loads(json.dumps(observe(*CASES[case]))) == GOLDEN[case]


def _written_twice(program):
    """*program* with its last bundle's first way writing the register
    its first bundle's first way writes."""
    first, last = program.instructions[0].ways[0], program.instructions[-1]
    assert last.cu0 is not None and last.cu0.dest != first.dest
    twice = dataclasses.replace(last, cu0=dataclasses.replace(last.cu0, dest=first.dest))
    instructions = type(program.instructions)([*program.instructions[:-1], twice])
    return dataclasses.replace(program, instructions=instructions), first.dest.index


def test_a_register_written_twice_stays_uncertified():
    cell, register = _written_twice(compile_cell(build_dfg("dtw")))
    with pytest.raises(NonSSAProgramError) as linear:
        linearize(cell)
    assert str(linear.value) == f"register r{register} written by more than one way"
    with pytest.raises(NonSSAProgramError) as certified:
        certify_program("dtw", cell)
    assert str(certified.value) == str(linear.value)

    compiled, _ = _written_twice(compile_program("dtw", 2, build_dfg("dtw")))
    with pytest.raises(NonSSAProgramError, match=str(linear.value)):
        certify_program("dtw", compiled)
    assert compiled_certificate("dtw", compiled) is None
