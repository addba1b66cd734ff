"""Interval lattice: order, join/meet/widen/narrow, transfer soundness."""

import random

import pytest

from repro.dfg.graph import OPCODE_ARITY, Opcode
from repro.dpax.pe import INT32_MAX, INT32_MIN
from repro.static.intervals import (
    INT32,
    Interval,
    WIDENING_RAILS,
    transfer,
)


class TestLattice:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 4)

    def test_unbounded_endpoints(self):
        top = Interval.top()
        assert not top.bounded
        assert top.contains(-(10**18)) and top.contains(10**18)
        assert Interval(0, None).contains(10**18)
        assert not Interval(0, None).contains(-1)

    def test_join_is_hull(self):
        assert Interval(0, 3).join(Interval(10, 12)) == Interval(0, 12)
        assert Interval(None, 0).join(Interval(5, 9)) == Interval(None, 9)

    def test_meet_of_disjoint_is_none(self):
        assert Interval(0, 3).meet(Interval(10, 12)) is None
        assert Interval(0, 10).meet(Interval(5, 20)) == Interval(5, 10)

    def test_within_and_ordering(self):
        assert Interval(1, 2).within(Interval(0, 3))
        assert Interval(1, 2).within(Interval.top())
        assert not Interval.top().within(Interval(1, 2))

    def test_widen_jumps_to_rails(self):
        older = Interval(0, 100)
        newer = Interval(0, 150)
        widened = older.widen(newer)
        # 150 grows past 100, so the high endpoint jumps to the first
        # rail at or above it rather than creeping by 50 each pass.
        assert widened.hi in WIDENING_RAILS
        assert widened.hi >= 150
        # Stable endpoints never move.
        assert widened.lo == 0

    def test_widen_is_ascending(self):
        older = Interval(-5, 5)
        newer = Interval(-2000, 3_000_000)
        widened = older.widen(newer)
        assert newer.within(widened) and older.within(widened)

    def test_narrow_refines_only_infinite_endpoints(self):
        widened = Interval(0, None)
        refined = widened.narrow(Interval(0, 700))
        assert refined == Interval(0, 700)
        # A finite endpoint is a proof; narrowing never loosens it.
        assert Interval(0, 10).narrow(Interval(0, 700)) == Interval(0, 10)


def _concrete_apply(opcode, args):
    """The functional model's scalar semantics, for sampling checks."""
    from repro.dfg import graph

    return graph._apply(opcode, list(args), None, None)


_SAMPLED_OPCODES = [
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.MAX,
    Opcode.MIN,
    Opcode.SHL16,
    Opcode.SHR16,
    Opcode.CARRY,
    Opcode.BORROW,
    Opcode.CMP_GT,
    Opcode.CMP_EQ,
    Opcode.LOG2_LUT,
    Opcode.LOG_SUM_LUT,
]


class TestTransferSoundness:
    @pytest.mark.parametrize("opcode", _SAMPLED_OPCODES, ids=lambda o: o.value)
    def test_concrete_results_inside_abstract(self, opcode):
        rng = random.Random(hash(opcode.value) & 0xFFFF)
        arity = OPCODE_ARITY[opcode]
        for _ in range(200):
            intervals = []
            points = []
            for _ in range(arity):
                a = rng.randint(-(1 << 18), 1 << 18)
                b = rng.randint(-(1 << 18), 1 << 18)
                lo, hi = min(a, b), max(a, b)
                intervals.append(Interval(lo, hi))
                points.append(rng.randint(lo, hi))
            abstract = transfer(opcode, intervals)
            concrete = _concrete_apply(opcode, points)
            assert abstract.contains(concrete), (
                f"{opcode.value}{points} = {concrete} "
                f"outside {abstract} (from {intervals})"
            )

    def test_mul_sign_corners(self):
        result = transfer(Opcode.MUL, [Interval(-3, 2), Interval(-5, 7)])
        # Corners: (-3)*7=-21 and (-3)*(-5)=15.
        assert result == Interval(-21, 15)

    def test_match_score_uses_contract_range(self):
        default = transfer(Opcode.MATCH_SCORE, [Interval(0, 3), Interval(0, 3)])
        assert default == Interval(-1, 1)
        custom = transfer(
            Opcode.MATCH_SCORE,
            [Interval(0, 3), Interval(0, 3)],
            match_range=Interval(-4, 10),
        )
        assert custom == Interval(-4, 10)

    def test_log2_lut_joins_zero_for_nonpositive_inputs(self):
        # The LUT maps value <= 0 to 0; an interval straddling zero must
        # therefore include 0 in its image.
        result = transfer(Opcode.LOG2_LUT, [Interval(-5, 1 << 12)])
        assert result.contains(0)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            transfer(Opcode.ADD, [Interval(0, 1)])

    def test_int32_constant(self):
        assert INT32 == Interval(INT32_MIN, INT32_MAX)
