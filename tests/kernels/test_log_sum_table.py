"""The PairHMM Log_sum table, built from its steps, against its formula."""

import math

from repro.kernels.pairhmm import (
    LOG_FRACTION_BITS,
    _LOG_SUM_TABLE,
    _LOG_SUM_TABLE_SPAN,
    log_sum_lookup,
)

SCALE = 1 << LOG_FRACTION_BITS


def formula(diff):
    """log2(1 + 2^-d) in fixed point, evaluated directly."""
    return int(round(math.log2(1.0 + 2.0 ** (-diff / SCALE)) * SCALE))


def test_every_entry_matches_the_formula():
    assert _LOG_SUM_TABLE_SPAN == 16 * SCALE
    assert len(_LOG_SUM_TABLE) == _LOG_SUM_TABLE_SPAN
    wrong = [
        (diff, entry, formula(diff))
        for diff, entry in enumerate(_LOG_SUM_TABLE)
        if entry != formula(diff)
    ]
    assert not wrong, f"{len(wrong)} entries differ, first (diff, table, formula): {wrong[:5]}"


def test_table_falls_from_scale_to_zero_in_unit_steps():
    assert _LOG_SUM_TABLE[0] == SCALE
    assert _LOG_SUM_TABLE[-1] == 0
    drops = [a - b for a, b in zip(_LOG_SUM_TABLE, _LOG_SUM_TABLE[1:])]
    assert set(drops) == {0, 1}
    assert sum(drops) == SCALE  # one step per value, 4,096 in all


def test_entries_are_exact_ints():
    assert {type(entry) for entry in _LOG_SUM_TABLE} == {int}


def test_lookup_at_the_span_edge():
    assert log_sum_lookup(0, -(_LOG_SUM_TABLE_SPAN - 1)) == _LOG_SUM_TABLE[-1]
    assert log_sum_lookup(0, -_LOG_SUM_TABLE_SPAN) == 0
    assert log_sum_lookup(5, 5) == 5 + SCALE
