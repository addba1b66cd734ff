"""Chain's measured-vs-model gap, pinned (ROADMAP item 3).

``DEFAULT_CYCLES_PER_CELL["chain"] = 39.0`` was calibrated on one 4-PE
array; the simulator measures 54.0 per-PE cycles/cell on 8 PEs and
87.5 on 16.  That is the mapping's serial ``f[n-1] -> f[n]`` recurrence
(:func:`chain_slot_cycles`; docs/architecture.md, "Chain slot time"),
not simulator error: the steady-state cost of one more anchor is an
exact, explainable integer at every chain length.
"""

import random

import pytest

from repro.kernels.chain import Anchor
from repro.mapping.sliding1d import run_chain
from repro.perfmodel.throughput import DEFAULT_CYCLES_PER_CELL, chain_slot_cycles


def cycles(count, total_pes):
    rng = random.Random(5)
    anchors, x, y = [], 0, 0
    for _ in range(count):
        x += rng.randint(5, 60)
        y += rng.randint(5, 60)
        anchors.append(Anchor(x, y))
    return run_chain(anchors, total_pes=total_pes).cycles


@pytest.mark.parametrize("total_pes,slot", [(4, 41), (8, 48), (16, 80)])
def test_steady_state_slot_time(total_pes, slot):
    assert chain_slot_cycles(total_pes) == slot
    assert (cycles(120, total_pes) - cycles(60, total_pes)) / 60 == slot


def test_model_default_is_the_single_array_figure():
    # 39.0 sits between the PE-bound slot (35) and the single-array
    # slot (41) it was measured on: 39.4 at 40 anchors, fill included.
    assert 35 < DEFAULT_CYCLES_PER_CELL["chain"] < chain_slot_cycles(4)
    assert cycles(40, 4) / 40 == pytest.approx(DEFAULT_CYCLES_PER_CELL["chain"], rel=0.02)
