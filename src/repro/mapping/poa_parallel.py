"""Parallel POA: column-tiled graph alignment across a 4-PE array.

The single-PE program in :mod:`repro.mapping.longrange` validates the
scratchpad mechanism; this mapping adds the missing parallelism.  The
sequence (columns) is tiled across the four PEs; every PE keeps *its
columns* of every row's H/F values in its own scratchpad, which works
because POA's long-range dependencies are **row-wise** -- a cell needs
predecessor rows at its own column, never at another PE's columns
(plus one shared boundary column, stored by both neighbors).

Per graph row (topological order), PE p:

1. pops the row's metadata (base code, predecessor count, predecessor
   SPM row addresses -- identical on every PE, since all tiles share
   the same row stride) and forwards a copy downstream;
2. pops the boundary handoff (H, E at its left boundary column) from
   upstream -- the head PE uses the DP's column-0 constants;
3. sweeps its columns exactly like the single-PE program (edge-fold
   loop per predecessor from the SPM, then the combine block),
   staging the per-cell trace directions in a scratchpad row;
4. pushes its right-boundary (H, E) downstream *first*, then its
   tile's (H, dir) outputs read back from the SPM, then relays the
   upstream tiles' outputs.

Pushing the boundary before the bulk outputs is what keeps the rows
pipelined: the downstream PE starts its row after two words, while
the output relays drain behind the compute.  Steady state runs PE p
on row r while PE p+1 is on row r-1 -- a 4-deep row wavefront, the
same skew the 2D kernels use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.dfg.kernels import poa_edge_dfg, poa_final_dfg
from repro.dpmap.codegen import compile_cell, offset_cell_program
from repro.dpax.pe import PEConfig
from repro.dpax.pe_array import PEArray
from repro.isa.control import (
    ControlOp,
    IN_PORT,
    OUT_PORT,
    Loc,
    Space,
    areg,
    ibuf,
    obuf,
    reg,
    spm,
)
from repro.kernels.poa import PartialOrderGraph
from repro.mapping.builder import ControlBuilder
from repro.mapping.longrange import NEG
from repro.seq.alphabet import encode
from repro.seq.scoring import AffineGap, ScoringScheme

#: PEs sharing one task (one 4-PE array).
PES = 4

#: Rows of metadata kept in flight ahead of the output drain -- the
#: pipeline depth of the row wavefront.
META_LOOKAHEAD = PES


def _areg_loc(index: int) -> Loc:
    return Loc(Space.ADDR, index)


@dataclass
class ParallelPOARun:
    """Column-tiled POA outcome."""

    h: List[List[int]]  # [row][j], j in 1..L (global columns)
    directions: List[List[int]]
    cycles: int
    cells: int
    finished: bool

    @property
    def cycles_per_cell(self) -> float:
        return self.cycles / self.cells if self.cells else 0.0


def run_poa_parallel(
    graph: PartialOrderGraph,
    sequence: str,
    scheme: Optional[ScoringScheme] = None,
    max_cycles: int = 30_000_000,
) -> ParallelPOARun:
    """Align *sequence* to *graph* on four column-tiled PEs.

    The sequence length must divide evenly by four (pad or trim at the
    workload layer).  Results are cell-exact against
    :func:`repro.kernels.poa.graph_dp_tables`.
    """
    if scheme is None:
        scheme = ScoringScheme()
    gap = scheme.gap
    if not isinstance(gap, AffineGap):
        raise TypeError("the POA mapping is affine-gap only")
    if not sequence:
        raise ValueError("cannot align an empty sequence")
    if len(sequence) % PES != 0:
        raise ValueError(
            f"sequence length {len(sequence)} must be a multiple of {PES} "
            "(pad columns to a tile boundary)"
        )

    rows = len(graph.nodes)
    cols = len(sequence)
    tile = cols // PES
    row_stride = tile + 1  # boundary column + owned columns
    h_base = tile  # seq tile occupies [0, tile)
    f_stride = rows * row_stride
    pred_base = h_base + 2 * rows * row_stride
    max_preds = max((len(n.predecessors) for n in graph.nodes), default=0)
    stage_base = pred_base + max(max_preds, 1)
    spm_needed = stage_base + tile + 8

    substitution = scheme.substitution

    def match_table(a: int, b: int) -> int:
        return substitution.match if a == b else substitution.mismatch

    edge = compile_cell(poa_edge_dfg(gap.open, gap.extend))
    final = offset_cell_program(
        compile_cell(poa_final_dfg(gap.open, gap.extend)),
        edge.register_count,
        rf_size=96,  # matches the PEConfig below
    )
    compute = list(edge.instructions) + list(final.instructions)
    tmp_reg = final.register_count  # past both programs' allocations

    order = graph.topological_order()
    position = {node_index: pos for pos, node_index in enumerate(order)}

    # Metadata stream (shared by all PEs): per row, base code, pred
    # count, pred H-row base addresses in the shared tile layout.
    meta_words: List[int] = []
    for node_index in order:
        node = graph.nodes[node_index]
        meta_words.append(encode(node.base)[0])
        meta_words.append(len(node.predecessors))
        for pred in node.predecessors:
            meta_words.append(h_base + position[pred] * row_stride)

    array = PEArray(
        array_index=0,
        pe_config=PEConfig(
            match_table=match_table,
            spm_size=spm_needed,
            rf_size=96,
            in_capacity=max(32, 2 * tile + 16),
        ),
        pe_count=PES,
    )
    array.tail_queue.capacity = max(64, 2 * cols + 16)
    words = list(encode(sequence)) + meta_words
    array.ibuf.preload(words, base=0)
    for pe_index in range(PES):
        control = _tile_pe_program(
            edge, final, len(edge.instructions), len(final.instructions),
            pe_index, rows, cols, tile, h_base, f_stride, pred_base, stage_base,
            tmp_reg, open_cost=gap.open + gap.extend,
        )
        array.load_pe(pe_index, control, list(compute))
    array.load_array_control(
        _tile_array_program(graph, order, cols, tile)
    )

    cycles, finished = array.run(max_cycles)

    # Decode: per row, tiles arrive tail-first (tile3, tile2, tile1,
    # tile0), each as (H, dir) word pairs over its columns.
    raw = array.obuf.dump(0, 2 * rows * cols)
    h = [[0] * cols for _ in range(rows)]
    directions = [[0] * cols for _ in range(rows)]
    cursor = 0
    for row_position in range(rows):
        node_index = order[row_position]
        for tile_index in reversed(range(PES)):
            for j in range(tile):
                column = tile_index * tile + j
                h[node_index][column] = raw[cursor]
                directions[node_index][column] = raw[cursor + 1]
                cursor += 2
    return ParallelPOARun(
        h=h,
        directions=directions,
        cycles=cycles,
        cells=rows * cols,
        finished=finished,
    )


def _tile_pe_program(
    edge, final, edge_bundles: int, final_bundles: int,
    pe_index: int, rows: int, cols: int, tile: int,
    h_base: int, f_stride: int, pred_base: int, stage_base: int,
    tmp_reg: int, open_cost: int,
) -> List:
    """One column tile's control program (see module docstring)."""
    is_first = pe_index == 0
    is_tail = pe_index == PES - 1
    b = ControlBuilder()

    def er(name: str) -> Loc:
        return reg(edge.input_regs[name])

    def eo(name: str) -> Loc:
        return reg(edge.output_regs[name])

    def fr(name: str) -> Loc:
        return reg(final.input_regs[name])

    def fo(name: str) -> Loc:
        return reg(final.output_regs[name])

    # a-register roles match the single-PE program, plus a8 as the
    # generic loop limit for seq-forward / output / relay loops.
    b.li(areg(12), 0)
    b.li(areg(10), rows)
    b.li(areg(9), tile + 1)
    b.li(areg(11), pred_base)
    b.li(areg(6), h_base)

    # Own sequence tile into SPM[0, tile).
    b.li(areg(3), 0)
    b.li(areg(8), tile)
    b.label("seq_top")
    b.mv(spm(3, indirect=True), IN_PORT)
    b.addi(3, 3, 1)
    b.branch(ControlOp.BLT, 3, 8, "seq_top")
    # Forward the remaining tiles downstream.
    remaining = cols - (pe_index + 1) * tile
    if remaining > 0:
        b.li(areg(3), 0)
        b.li(areg(8), remaining)
        b.label("seqfwd_top")
        b.mv(reg(tmp_reg), IN_PORT)
        b.mv(OUT_PORT, reg(tmp_reg))
        b.addi(3, 3, 1)
        b.branch(ControlOp.BLT, 3, 8, "seqfwd_top")

    b.li(areg(0), 0)
    b.label("row_top")
    # Metadata: base code, predecessor count, predecessor addresses --
    # consumed and (except at the tail) forwarded.
    b.mv(fr("t"), IN_PORT)
    if not is_tail:
        b.mv(OUT_PORT, fr("t"))
    b.mv(_areg_loc(1), IN_PORT)
    if not is_tail:
        b.mv(OUT_PORT, _areg_loc(1))
    b.li(areg(5), 0)
    b.branch(ControlOp.BEQ, 1, 12, "preds_loaded")
    b.label("predload_top")
    b.add(3, 11, 5)
    b.mv(spm(3, indirect=True), IN_PORT)
    if not is_tail:
        b.mv(OUT_PORT, spm(3, indirect=True))
    b.addi(5, 5, 1)
    b.branch(ControlOp.BLT, 5, 1, "predload_top")
    b.label("preds_loaded")

    # Left-boundary handoff: H/E at this tile's left edge.
    if is_first:
        b.li(fr("h_left"), 0)
        b.li(fr("e_left"), NEG)
    else:
        b.mv(fr("h_left"), IN_PORT)
        b.mv(fr("e_left"), IN_PORT)
    # The boundary H joins this tile's SPM row (diag source for col 1).
    b.mv(spm(6, indirect=True), fr("h_left"))

    b.li(areg(2), 1)
    b.label("col_top")
    b.addi(4, 2, -1)
    b.mv(fr("q"), spm(4, indirect=True))
    b.branch(ControlOp.BEQ, 1, 12, "no_preds")
    b.li(er("diag_best"), NEG)
    b.li(er("up_best"), NEG)
    b.li(areg(5), 0)
    b.label("pred_top")
    b.add(3, 11, 5)
    b.mv(_areg_loc(4), spm(3, indirect=True))
    b.add(3, 4, 2)
    b.addi(3, 3, -1)
    b.mv(er("h_pred_diag"), spm(3, indirect=True))
    b.addi(3, 3, 1)
    b.mv(er("h_pred_up"), spm(3, indirect=True))
    b.addi(3, 3, f_stride)
    b.mv(er("f_pred_up"), spm(3, indirect=True))
    b.set_unit(0, edge_bundles)
    b.mv(er("diag_best"), eo("diag_best"))
    b.mv(er("up_best"), eo("up_best"))
    b.addi(5, 5, 1)
    b.branch(ControlOp.BLT, 5, 1, "pred_top")
    b.branch(ControlOp.BEQ, 12, 12, "fold_done")
    b.label("no_preds")
    b.li(er("diag_best"), 0)
    b.li(er("up_best"), -open_cost)
    b.label("fold_done")

    b.mv(fr("diag_best"), er("diag_best"))
    b.mv(fr("up_best"), er("up_best"))
    b.set_unit(edge_bundles, final_bundles)
    b.add(3, 6, 2)
    b.mv(spm(3, indirect=True), fo("h"))
    b.addi(3, 3, f_stride)
    b.mv(spm(3, indirect=True), er("up_best"))
    # Stage the direction for the post-row output sweep.
    b.addi(3, 2, stage_base - 1)
    b.mv(spm(3, indirect=True), fo("dir"))
    b.mv(fr("h_left"), fo("h"))
    b.mv(fr("e_left"), fo("e"))
    b.addi(2, 2, 1)
    b.branch(ControlOp.BLT, 2, 9, "col_top")

    # Boundary first (unblocks the downstream row), then the tile's
    # outputs from the SPM, then the upstream relays.
    if not is_tail:
        b.mv(OUT_PORT, fr("h_left"))
        b.mv(OUT_PORT, fr("e_left"))
    b.li(areg(5), 1)
    b.label("out_top")
    b.add(3, 6, 5)
    b.mv(OUT_PORT, spm(3, indirect=True))
    b.addi(3, 5, stage_base - 1)
    b.mv(OUT_PORT, spm(3, indirect=True))
    b.addi(5, 5, 1)
    b.branch(ControlOp.BLT, 5, 9, "out_top")
    relay_words = 2 * tile * pe_index
    if relay_words:
        b.li(areg(5), 0)
        b.li(areg(8), relay_words)
        b.label("relay_top")
        b.mv(reg(tmp_reg), IN_PORT)
        b.mv(OUT_PORT, reg(tmp_reg))
        b.addi(5, 5, 1)
        b.branch(ControlOp.BLT, 5, 8, "relay_top")

    b.addi(6, 6, tile + 1)
    b.addi(0, 0, 1)
    b.branch(ControlOp.BLT, 0, 10, "row_top")
    b.halt()
    return b.finish()


def _tile_array_program(
    graph: PartialOrderGraph, order: List[int], cols: int, tile: int
) -> List:
    """Array control: sequence, metadata with lookahead, output drain.

    Metadata rows are pushed :data:`META_LOOKAHEAD` rows ahead of the
    output drain so the four-deep row wavefront never starves.
    Metadata rows vary in length, so the push pointer walks the input
    buffer reading each row's predecessor count.
    """
    rows = len(order)
    b = ControlBuilder()
    # a0 seq counter, a1 push pointer, a2 drain row, a3 pred count,
    # a4 inner counter, a5 obuf pointer, a7 limits, a12 zero.
    # PEs start first: they drain the sequence stream as it is pushed
    # (a long sequence would otherwise overflow the head PE's queue
    # before anyone consumes it).
    for pe_index in range(PES):
        b.set_unit(pe_index, 1)
    b.li(areg(12), 0)
    b.li(areg(0), 0)
    b.li(areg(7), cols)
    b.li(areg(1), 0)
    b.label("seq_top")
    b.mv(OUT_PORT, ibuf(1, indirect=True))
    b.addi(1, 1, 1)
    b.addi(0, 0, 1)
    b.branch(ControlOp.BLT, 0, 7, "seq_top")

    lookahead = min(META_LOOKAHEAD, rows)
    # a8 counts meta rows pushed, a2 counts rows drained.
    b.li(areg(8), 0)
    b.li(areg(2), 0)
    b.li(areg(5), 0)
    b.li(areg(9), lookahead)
    b.li(areg(10), rows)
    b.li(areg(11), 2 * cols)

    b.label("prime_top")
    _push_one_meta_row(b)
    b.addi(8, 8, 1)
    b.branch(ControlOp.BLT, 8, 9, "prime_top")

    b.label("drain_top")
    # Drain one row's outputs.
    b.li(areg(4), 0)
    b.label("pop_top")
    b.mv(obuf(5, indirect=True), IN_PORT)
    b.addi(5, 5, 1)
    b.addi(4, 4, 1)
    b.branch(ControlOp.BLT, 4, 11, "pop_top")
    b.addi(2, 2, 1)
    # Push the next meta row, if any remain.
    b.branch(ControlOp.BGE, 8, 10, "no_more_meta")
    _push_one_meta_row(b)
    b.addi(8, 8, 1)
    b.label("no_more_meta")
    b.branch(ControlOp.BLT, 2, 10, "drain_top")
    b.halt()
    return b.finish()


_META_PUSH_SEQ = 0


def _push_one_meta_row(b: ControlBuilder) -> None:
    """Emit the variable-length metadata push (uses a1, a3, a4)."""
    global _META_PUSH_SEQ
    _META_PUSH_SEQ += 1
    suffix = f"_{_META_PUSH_SEQ}"
    b.mv(OUT_PORT, ibuf(1, indirect=True))  # base code
    b.addi(1, 1, 1)
    b.mv(_areg_loc(3), ibuf(1, indirect=True))  # pred count
    b.mv(OUT_PORT, ibuf(1, indirect=True))
    b.addi(1, 1, 1)
    b.li(areg(4), 0)
    b.branch(ControlOp.BEQ, 3, 12, f"meta_done{suffix}")
    b.label(f"meta_pred{suffix}")
    b.mv(OUT_PORT, ibuf(1, indirect=True))
    b.addi(1, 1, 1)
    b.addi(4, 4, 1)
    b.branch(ControlOp.BLT, 4, 3, f"meta_pred{suffix}")
    b.label(f"meta_done{suffix}")
