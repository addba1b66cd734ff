"""Control-program generation for 1D DP tables: the Chain kernel.

Figure 5(c)/(d)'s mapping: anchor states march forward through a long
PE chain (16 arrays concatenate into 64 PEs for the real kernel) while
finalized predecessor values -- *broadcasts* -- follow them from the
FIFO.  Each PE delays the broadcast stream by one anchor slot, so an
anchor traversing P PEs meets its P most recent predecessors, exactly
the reordered chaining window N = P.  When an anchor exits the chain
its score is final: the tail PE emits it to the output buffer and
feeds it back through the FIFO as the next broadcast ("cell #1 is
moved out from the last PE; meanwhile, cell #1 is loaded from the FIFO
to each PE", Section 3.1).

Per anchor slot a PE:

1. pops the anchor state (x, y, w, f, parent, index) from upstream;
2. pops the current broadcast (x_j, y_j, f_j, j_idx) -- the head PE
   from the FIFO, others from upstream -- and immediately forwards it
   downstream ("loaded from the FIFO to each PE sequentially": the
   ripple completes within the step, under the compute);
3. runs the mapped Chain cell program (the fixed-point scoring of
   :mod:`repro.kernels.chain_fixed`);
4. pushes the updated state downstream.

The broadcast stream is *advanced* by one slot per PE -- each non-head
PE discards one broadcast at startup -- so the anchor at PE p in slot
n meets predecessor ``a[n-P+p]``: the head applies the oldest
in-window predecessor and the tail applies ``a[n-1]``, whose final
score it just minted one slot earlier (the serial f[n-1] -> f[n]
recurrence costs only the tail-to-FIFO hop, which is what makes the
reordered kernel parallel).  The FIFO starts with P sentinel
broadcasts.  The tail emits (score, parent) to the output buffer and
pushes the exiting anchor into the head FIFO as the next broadcast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.dfg.kernels import chain_dfg
from repro.dpmap.codegen import CellProgram, compile_cell
from repro.dpax.machine import DPAxMachine
from repro.isa.control import (
    ControlOp,
    FIFO_PORT,
    IN_PORT,
    OUT_PORT,
    areg,
    ibuf,
    obuf,
    reg,
)
from repro.kernels.chain import Anchor, ChainResult
from repro.kernels.chain_fixed import SCALE
from repro.mapping.builder import ControlBuilder

#: Sentinel broadcast: coordinates beyond any anchor so the dx/dy gates
#: reject every pairing with it.
SENTINEL_XY = 1 << 25

#: Anchor state words, in port order.
STATE_FIELDS = ("x_i", "y_i", "w", "f_i", "parent", "own_idx")

#: Broadcast words, in port order.
BC_FIELDS = ("x_j", "y_j", "f_j", "j_idx")


@dataclass
class ChainPrograms:
    """Generated load-out for a chain of PE arrays."""

    cell_program: CellProgram
    pe_control: List[List]  # indexed by global PE position
    pe_compute: List[List]
    head_array_control: List
    last_array_control: List
    middle_array_control: List
    anchor_count: int


def build_chain_programs(
    anchor_count: int, total_pes: int, pes_per_array: int = 4
) -> ChainPrograms:
    """Generate programs for chaining *anchor_count* anchors on a
    *total_pes*-deep chain (window N = total_pes)."""
    if anchor_count <= 0:
        raise ValueError("need at least one anchor")
    if total_pes < 1 or total_pes % pes_per_array != 0:
        raise ValueError("total_pes must be a positive multiple of the array size")

    cell = compile_cell(chain_dfg())
    own_idx_reg = cell.register_count
    tmp_reg = cell.register_count + 1

    def state_reg(field: str) -> int:
        if field == "own_idx":
            return own_idx_reg
        return cell.input_regs[field]

    bundles = len(cell.instructions)
    pe_control = [
        _chain_pe_program(
            cell, position, total_pes, anchor_count, state_reg, tmp_reg, bundles
        )
        for position in range(total_pes)
    ]
    return ChainPrograms(
        cell_program=cell,
        pe_control=pe_control,
        pe_compute=[list(cell.instructions) for _ in range(total_pes)],
        head_array_control=_chain_head_array_program(
            anchor_count, pes_per_array, total_pes
        ),
        last_array_control=_chain_last_array_program(anchor_count, pes_per_array),
        middle_array_control=_chain_middle_array_program(pes_per_array),
        anchor_count=anchor_count,
    )


def _chain_pe_program(
    cell: CellProgram,
    position: int,
    total_pes: int,
    anchor_count: int,
    state_reg,
    tmp_reg: int,
    bundles: int,
) -> List:
    is_head = position == 0
    is_tail = position == total_pes - 1
    bc_src = FIFO_PORT if is_head else IN_PORT
    b = ControlBuilder()

    # Advance the broadcast stream by one slot relative to upstream:
    # every non-head PE drops the first broadcast it receives.
    if not is_head:
        for _ in BC_FIELDS:
            b.mv(reg(tmp_reg), IN_PORT)

    b.li(areg(0), 0)
    b.li(areg(1), anchor_count)
    b.label("slot_top")
    for field in STATE_FIELDS:
        b.mv(reg(state_reg(field)), IN_PORT)
    for field in BC_FIELDS:
        b.mv(reg(cell.input_regs[field]), bc_src)
    if not is_tail:
        # Forward the broadcast immediately -- the ripple to the next
        # PE overlaps this PE's compute.
        for field in BC_FIELDS:
            b.mv(OUT_PORT, reg(cell.input_regs[field]))
    b.set_unit(0, bundles)
    if is_tail:
        # Exiting anchor: final (score, parent) to the output buffer via
        # the tail queue, and a new broadcast into the head FIFO.
        b.mv(OUT_PORT, reg(cell.output_regs["f"]))
        b.mv(OUT_PORT, reg(cell.output_regs["parent"]))
        b.mv(FIFO_PORT, reg(state_reg("x_i")))
        b.mv(FIFO_PORT, reg(state_reg("y_i")))
        b.mv(FIFO_PORT, reg(cell.output_regs["f"]))
        b.mv(FIFO_PORT, reg(state_reg("own_idx")))
    else:
        for field in ("x_i", "y_i", "w"):
            b.mv(OUT_PORT, reg(state_reg(field)))
        b.mv(OUT_PORT, reg(cell.output_regs["f"]))
        b.mv(OUT_PORT, reg(cell.output_regs["parent"]))
        b.mv(OUT_PORT, reg(state_reg("own_idx")))
    b.addi(0, 0, 1)
    b.branch(ControlOp.BLT, 0, 1, "slot_top")
    # Flush the broadcast pipeline: downstream PEs consume a stream
    # advanced by one slot per hop, so PE p must relay P-p-1 more
    # broadcasts after its own last slot.
    if not is_tail:
        for _ in range((total_pes - position - 1) * len(BC_FIELDS)):
            b.mv(reg(tmp_reg), bc_src)
            b.mv(OUT_PORT, reg(tmp_reg))
    b.halt()
    return b.finish()


def _chain_head_array_program(
    anchor_count: int, pes_per_array: int, total_pes: int
) -> List:
    """Head array: FIFO sentinel preload, PE starts, anchor pumping."""
    b = ControlBuilder()
    # One sentinel broadcast per PE in the chain: the head consumes
    # index n - P at slot n, so slots 0..P-1 see sentinels.
    for _ in range(total_pes):
        b.li(FIFO_PORT, SENTINEL_XY)
        b.li(FIFO_PORT, SENTINEL_XY)
        b.li(FIFO_PORT, 0)
        b.li(FIFO_PORT, -1)
    for pe_index in range(pes_per_array):
        b.set_unit(pe_index, 1)
    b.li(areg(0), 0)
    b.li(areg(1), anchor_count)
    b.li(areg(2), 0)  # ibuf pointer
    b.label("push_top")
    for _ in STATE_FIELDS:
        b.mv(OUT_PORT, ibuf(2, indirect=True))
        b.addi(2, 2, 1)
    b.addi(0, 0, 1)
    b.branch(ControlOp.BLT, 0, 1, "push_top")
    b.halt()
    return b.finish()


def _chain_last_array_program(anchor_count: int, pes_per_array: int) -> List:
    """Last array: PE starts, result draining into the output buffer."""
    b = ControlBuilder()
    for pe_index in range(pes_per_array):
        b.set_unit(pe_index, 1)
    b.li(areg(3), 0)
    b.li(areg(4), anchor_count)
    b.li(areg(5), 0)  # obuf pointer
    b.label("pop_top")
    for _ in range(2):  # (score, parent) per anchor
        b.mv(obuf(5, indirect=True), IN_PORT)
        b.addi(5, 5, 1)
    b.addi(3, 3, 1)
    b.branch(ControlOp.BLT, 3, 4, "pop_top")
    b.halt()
    return b.finish()


def _chain_middle_array_program(pes_per_array: int) -> List:
    b = ControlBuilder()
    for pe_index in range(pes_per_array):
        b.set_unit(pe_index, 1)
    b.halt()
    return b.finish()


@dataclass
class ChainRun:
    """Result of a simulated chaining pass."""

    result: ChainResult
    cycles: int
    cells: int
    finished: bool
    #: :class:`repro.obs.profile.ProfileReport` when run with profiling.
    profile: Optional[object] = None

    @property
    def cycles_per_cell(self) -> float:
        return self.cycles / self.cells if self.cells else 0.0


def probe_anchors(rng: random.Random) -> List[Anchor]:
    """The 24-anchor chain the perf model is calibrated on and the
    utilization study profiles (the 1-D counterpart of
    :func:`repro.mapping.kernels2d.probe_task`)."""
    anchors = []
    x = y = 0
    for _ in range(24):
        x += rng.randint(1, 60)
        y += rng.randint(1, 60)
        anchors.append(Anchor(x, y))
    return anchors


def run_chain(
    anchors: Sequence[Anchor],
    total_pes: int = 8,
    pes_per_array: int = 4,
    max_cycles: int = 20_000_000,
    profile: bool = False,
) -> ChainRun:
    """Simulate reordered chaining (window N = *total_pes*) on DPAx.

    Returns scores/parents decoded from the output buffer, comparable
    against :func:`repro.kernels.chain_fixed.chain_reordered_fixed`
    with ``n=total_pes`` (scores in 1/400 fixed-point units).
    """
    count = len(anchors)
    if count == 0:
        raise ValueError("need at least one anchor")
    programs = build_chain_programs(count, total_pes, pes_per_array)
    array_count = total_pes // pes_per_array
    machine = DPAxMachine(integer_arrays=array_count, fp_arrays=0)
    if profile:
        machine.enable_profiling()
    if array_count > 1:
        machine.concatenate(list(range(array_count)))

    head = machine.int_arrays[0]
    last = machine.int_arrays[-1]
    state_words: List[int] = []
    for index, anchor in enumerate(anchors):
        state_words.extend(
            [anchor.x, anchor.y, anchor.w, anchor.w * SCALE, -1, index]
        )
    head.ibuf.preload(state_words, base=0)

    for position in range(total_pes):
        array = machine.int_arrays[position // pes_per_array]
        array.load_pe(
            position % pes_per_array,
            programs.pe_control[position],
            programs.pe_compute[position],
        )
    if array_count == 1:
        # One array plays head and tail: pump all anchors, then drain.
        # The tail queue must hold every result until the drain starts.
        head.tail_queue.capacity = 2 * count + 8
        combined = programs.head_array_control[:-1] + _strip_sets(
            programs.last_array_control
        )
        head.load_array_control(combined)
    else:
        head.load_array_control(programs.head_array_control)
        last.load_array_control(programs.last_array_control)
        for array in machine.int_arrays[1:-1]:
            array.load_array_control(programs.middle_array_control)

    sim = machine.run(max_cycles=max_cycles)
    raw = last.obuf.dump(0, 2 * count)
    scores = [float(raw[2 * i]) for i in range(count)]
    parents = [raw[2 * i + 1] for i in range(count)]
    best = max(range(count), key=lambda k: scores[k])
    return ChainRun(
        result=ChainResult(
            scores=scores, parents=parents, best_index=best, cells=count * total_pes
        ),
        cycles=sim.cycles,
        cells=count * total_pes,
        finished=sim.finished,
        profile=sim.profile,
    )


def _strip_sets(control: List) -> List:
    """Drop the redundant PE-start instructions from a merged program."""
    return [instr for instr in control if instr.op is not ControlOp.SET]
