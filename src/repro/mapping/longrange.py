"""Graph-structured kernels on the scratchpad: POA and Bellman-Ford.

Section 3.1: "Long-range dependencies in the graph structure are
supported by scratchpad memories (SPM) inside each PE ... the result
for each cell is not only stored in registers for reuse by the next
cell, but also stored in SPM for potential reuse by later cells."

These generators emit single-PE programs that exercise exactly that
mechanism with data-dependent control flow:

- **POA**: the whole (graph-row x sequence) DP runs on one PE; every
  row's H/F values land in the SPM, and each cell's control thread
  walks the node's predecessor list (streamed from the input buffer as
  pre-computed SPM row base addresses -- the "dependency information
  loaded from the input data buffer" of Section 7.2), loading
  arbitrarily distant rows through indirect addressing.  The compute
  thread alternates two mapped programs: the per-edge fold
  (:func:`repro.dfg.kernels.poa_edge_dfg`) and the cell combine
  (:func:`repro.dfg.kernels.poa_final_dfg`).
- **Bellman-Ford**: the distance and predecessor arrays live in the
  SPM; edges stream per relaxation round, and every relaxation loads /
  stores through indirect addresses -- BF's dependency distance is
  unbounded, the Section 7.6.5 case.

Parallel multi-PE POA is modeled analytically in
:mod:`repro.perfmodel` (the paper itself reports POA as data-movement
bound); the single-PE program is the architectural validation of the
long-range mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.dfg.kernels import bellman_ford_dfg, poa_edge_dfg, poa_final_dfg
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
from repro.kernels.bellman_ford import Edge
from repro.kernels.poa import PartialOrderGraph
from repro.mapping.builder import ControlBuilder
from repro.seq.alphabet import encode
from repro.seq.scoring import AffineGap, ScoringScheme

#: Integer stand-in for minus infinity in gap states.
NEG = -(1 << 20)

#: Integer stand-in for plus infinity in shortest-path distances.
BF_INF = 1 << 25


def _areg_loc(index: int) -> Loc:
    return Loc(Space.ADDR, index)


# ======================================================================
# POA
# ======================================================================


@dataclass
class POARun:
    """Simulated POA row DP: per-cell H values and trace directions."""

    h: List[List[int]]  # [row][j], j in 1..L
    directions: List[List[int]]
    cycles: int
    cells: int
    finished: bool
    spm_accesses: int
    #: :class:`repro.obs.profile.ProfileReport` when run with profiling.
    profile: Optional[object] = None

    @property
    def cycles_per_cell(self) -> float:
        return self.cycles / self.cells if self.cells else 0.0


def run_poa_row_dp(
    graph: PartialOrderGraph,
    sequence: str,
    scheme: Optional[ScoringScheme] = None,
    max_cycles: int = 30_000_000,
    profile: bool = False,
) -> POARun:
    """Align *sequence* to *graph* on a single scratchpad-backed PE.

    Returns the full H table for cell-exact comparison against
    :func:`repro.kernels.poa.graph_dp_tables`.  ``profile=True``
    attaches cycle accounting, as in ``run_wavefront``/``run_chain``.
    """
    if scheme is None:
        scheme = ScoringScheme()
    gap = scheme.gap
    if not isinstance(gap, AffineGap):
        raise TypeError("the POA mapping is affine-gap only")
    if not sequence:
        raise ValueError("cannot align an empty sequence")

    rows = len(graph.nodes)
    cols = len(sequence)
    row_stride = cols + 1
    h_base = cols  # seq codes occupy [0, cols)
    f_stride = rows * row_stride  # f table follows the h table
    pred_base = h_base + 2 * rows * row_stride
    max_preds = max((len(n.predecessors) for n in graph.nodes), default=0)
    spm_needed = pred_base + max(max_preds, 1)

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
    edge_bundles = len(edge.instructions)
    final_bundles = len(final.instructions)

    control = _poa_pe_program(
        edge, final, edge_bundles, final_bundles,
        rows, cols, h_base, f_stride, pred_base,
        open_cost=gap.open + gap.extend,
    )

    # Input stream: sequence codes, then per row (in topological order,
    # since a row's predecessors must already sit in the SPM): base
    # code, pred count, pre-multiplied predecessor H-row base addresses.
    order = graph.topological_order()
    position = {node_index: pos for pos, node_index in enumerate(order)}
    words: List[int] = list(encode(sequence))
    for node_index in order:
        node = graph.nodes[node_index]
        words.append(encode(node.base)[0])
        words.append(len(node.predecessors))
        for pred in node.predecessors:
            words.append(h_base + position[pred] * row_stride)

    array = PEArray(
        array_index=0,
        pe_config=PEConfig(
            match_table=match_table, spm_size=spm_needed + 8, rf_size=96
        ),
        pe_count=1,
    )
    array.tail_queue.capacity = 2 * rows * cols + 8
    array_profile = array.enable_profiling() if profile else None
    array.ibuf.preload(words, base=0)
    array.load_pe(0, control, compute)
    array.load_array_control(_stream_and_drain_program(len(words), 2 * rows * cols))

    cycles, finished = array.run(max_cycles)

    raw = array.obuf.dump(0, 2 * rows * cols)
    # Rows arrive in topological order; re-index by node index so the
    # result lines up with graph_dp_tables.
    h: List[List[int]] = [[0] * cols for _ in range(rows)]
    directions: List[List[int]] = [[0] * cols for _ in range(rows)]
    cursor = 0
    for node_index in order:
        for j in range(cols):
            h[node_index][j] = raw[cursor]
            directions[node_index][j] = raw[cursor + 1]
            cursor += 2
    pe = array.pes[0]
    return POARun(
        h=h,
        directions=directions,
        cycles=cycles,
        cells=rows * cols,
        finished=finished,
        spm_accesses=pe.spm.accesses,
        profile=array_profile.report() if array_profile is not None else None,
    )


def _poa_pe_program(
    edge, final, edge_bundles: int, final_bundles: int,
    rows: int, cols: int, h_base: int, f_stride: int, pred_base: int,
    open_cost: int,
) -> List:
    """The single-PE POA control program (see module docstring)."""
    b = ControlBuilder()

    def er(name: str) -> Loc:
        return reg(edge.input_regs[name])

    def eo(name: str) -> Loc:
        return reg(edge.output_regs[name])

    def fr(name: str) -> Loc:
        return reg(final.input_regs[name])

    def fo(name: str) -> Loc:
        return reg(final.output_regs[name])

    # a-register roles:
    # a0 row counter    a1 pred count    a2 column j      a3 addr temp
    # a4 addr temp 2    a5 pred counter  a6 row H base    a8 loop limit
    # a9 cols+1         a10 rows         a11 pred base    a12 zero
    b.li(areg(12), 0)
    b.li(areg(10), rows)
    b.li(areg(9), cols + 1)
    b.li(areg(11), pred_base)
    b.li(areg(6), h_base)

    # Load the sequence codes into SPM[0, cols).
    b.li(areg(3), 0)
    b.li(areg(8), cols)
    b.label("seq_top")
    b.mv(spm(3, indirect=True), IN_PORT)
    b.addi(3, 3, 1)
    b.branch(ControlOp.BLT, 3, 8, "seq_top")

    b.li(areg(0), 0)
    b.label("row_top")
    b.mv(fr("t"), IN_PORT)  # the node's base
    b.mv(_areg_loc(1), IN_PORT)  # predecessor count
    # Predecessor base addresses into the SPM pred region.
    b.li(areg(5), 0)
    b.branch(ControlOp.BEQ, 1, 12, "preds_loaded")
    b.label("predload_top")
    b.add(3, 11, 5)
    b.mv(spm(3, indirect=True), IN_PORT)
    b.addi(5, 5, 1)
    b.branch(ControlOp.BLT, 5, 1, "predload_top")
    b.label("preds_loaded")

    # Column-0 boundary: H = 0, F = NEG.
    b.li(spm(6, indirect=True), 0)
    b.addi(3, 6, f_stride)
    b.li(spm(3, indirect=True), NEG)
    b.li(fr("h_left"), 0)
    b.li(fr("e_left"), NEG)

    b.li(areg(2), 1)
    b.label("col_top")
    # q = sequence[j - 1] from SPM.
    b.addi(4, 2, -1)
    b.mv(fr("q"), spm(4, indirect=True))
    # Fold predecessors (or the virtual start row).
    b.branch(ControlOp.BEQ, 1, 12, "no_preds")
    b.li(er("diag_best"), NEG)
    b.li(er("up_best"), NEG)
    b.li(areg(5), 0)
    b.label("pred_top")
    b.add(3, 11, 5)
    b.mv(_areg_loc(4), spm(3, indirect=True))  # a4 = pred row H base
    b.add(3, 4, 2)
    b.addi(3, 3, -1)
    b.mv(er("h_pred_diag"), spm(3, indirect=True))  # H[pred][j-1]
    b.addi(3, 3, 1)
    b.mv(er("h_pred_up"), spm(3, indirect=True))  # H[pred][j]
    b.addi(3, 3, f_stride)
    b.mv(er("f_pred_up"), spm(3, indirect=True))  # F[pred][j]
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

    # Combine block.
    b.mv(fr("diag_best"), er("diag_best"))
    b.mv(fr("up_best"), er("up_best"))
    b.set_unit(edge_bundles, final_bundles)
    # Store H[r][j] and F[r][j] (= up_best) to the SPM.
    b.add(3, 6, 2)
    b.mv(spm(3, indirect=True), fo("h"))
    b.addi(3, 3, f_stride)
    b.mv(spm(3, indirect=True), er("up_best"))
    # Emit (H, dir) for the trace-back consumer (Section 7.2's 8-byte
    # per-cell output traffic).
    b.mv(OUT_PORT, fo("h"))
    b.mv(OUT_PORT, fo("dir"))
    b.mv(fr("h_left"), fo("h"))
    b.mv(fr("e_left"), fo("e"))
    b.addi(2, 2, 1)
    b.branch(ControlOp.BLT, 2, 9, "col_top")

    b.addi(6, 6, cols + 1)
    b.addi(0, 0, 1)
    b.branch(ControlOp.BLT, 0, 10, "row_top")
    b.halt()
    return b.finish()


# ======================================================================
# Bellman-Ford
# ======================================================================


@dataclass
class BFRun:
    """Simulated Bellman-Ford: distances and predecessors from the SPM."""

    distances: List[int]
    predecessors: List[int]
    cycles: int
    relaxations: int
    finished: bool
    spm_accesses: int


def run_bellman_ford(
    vertex_count: int,
    edges: Sequence[Edge],
    source: int = 0,
    rounds: Optional[int] = None,
    max_cycles: int = 60_000_000,
) -> BFRun:
    """Single-source shortest paths on a scratchpad-backed PE.

    Edge weights must be integers (the integer datapath); distances of
    :data:`BF_INF` mean unreachable.  Runs ``rounds`` relaxation rounds
    (default ``vertex_count - 1``).
    """
    if vertex_count <= 0:
        raise ValueError("vertex_count must be positive")
    if not 0 <= source < vertex_count:
        raise ValueError("source out of range")
    for e in edges:
        if int(e.weight) != e.weight:
            raise ValueError("the integer datapath needs integer weights")
    if rounds is None:
        rounds = max(1, vertex_count - 1)

    cell = compile_cell(bellman_ford_dfg())
    control = _bf_pe_program(cell, vertex_count, len(edges), source, rounds)

    words: List[int] = []
    for e in edges:
        words.extend([e.src, e.dst, int(e.weight)])

    array = PEArray(
        array_index=0,
        pe_config=PEConfig(spm_size=2 * vertex_count + 8, rf_size=64),
        pe_count=1,
    )
    array.tail_queue.capacity = 2 * vertex_count + 8
    array.ibuf.preload(words, base=0)
    array.load_pe(0, control, list(cell.instructions))
    array.load_array_control(
        _bf_array_program(len(edges), rounds, 2 * vertex_count)
    )

    cycles, finished = array.run(max_cycles)

    raw = array.obuf.dump(0, 2 * vertex_count)
    pe = array.pes[0]
    return BFRun(
        distances=raw[:vertex_count],
        predecessors=raw[vertex_count:],
        cycles=cycles,
        relaxations=rounds * len(edges),
        finished=finished,
        spm_accesses=pe.spm.accesses,
    )


def _bf_pe_program(
    cell, vertex_count: int, edge_count: int, source: int, rounds: int
) -> List:
    b = ControlBuilder()

    def r(name: str) -> Loc:
        return reg(cell.input_regs[name])

    def o(name: str) -> Loc:
        return reg(cell.output_regs[name])

    # a0 round ctr   a1 rounds       a2 edge ctr   a3 edge count
    # a4 u           a5 v            a6 addr temp  a7 pred base (=V)
    # a8 vertex ctr  a9 vertex count
    b.li(areg(7), vertex_count)
    b.li(areg(9), vertex_count)

    # Initialize dist[] = INF, pred[] = -1; dist[source] = 0.
    b.li(areg(8), 0)
    b.label("init_top")
    b.li(spm(8, indirect=True), BF_INF)
    b.add(6, 8, 7)
    b.li(spm(6, indirect=True), -1)
    b.addi(8, 8, 1)
    b.branch(ControlOp.BLT, 8, 9, "init_top")
    b.li(spm(source), 0)

    b.li(areg(0), 0)
    b.li(areg(1), rounds)
    b.label("round_top")
    b.li(areg(2), 0)
    b.li(areg(3), edge_count)
    b.label("edge_top")
    b.mv(_areg_loc(4), IN_PORT)  # u
    b.mv(_areg_loc(5), IN_PORT)  # v
    b.mv(r("weight"), IN_PORT)
    b.mv(r("dist_u"), spm(4, indirect=True))
    b.mv(r("dist_v"), spm(5, indirect=True))
    b.mv(r("u_idx"), _areg_loc(4))
    b.add(6, 5, 7)
    b.mv(r("pred"), spm(6, indirect=True))
    b.set_unit(0, len(cell.instructions))
    b.mv(spm(5, indirect=True), o("dist"))
    b.mv(spm(6, indirect=True), o("pred"))
    b.addi(2, 2, 1)
    b.branch(ControlOp.BLT, 2, 3, "edge_top")
    b.addi(0, 0, 1)
    b.branch(ControlOp.BLT, 0, 1, "round_top")

    # Drain dist[] then pred[].
    b.li(areg(8), 0)
    b.label("drain_dist")
    b.mv(OUT_PORT, spm(8, indirect=True))
    b.addi(8, 8, 1)
    b.branch(ControlOp.BLT, 8, 9, "drain_dist")
    b.li(areg(8), 0)
    b.label("drain_pred")
    b.add(6, 8, 7)
    b.mv(OUT_PORT, spm(6, indirect=True))
    b.addi(8, 8, 1)
    b.branch(ControlOp.BLT, 8, 9, "drain_pred")
    b.halt()
    return b.finish()


def _bf_array_program(edge_count: int, rounds: int, result_words: int) -> List:
    """Stream the edge list once per round, then drain the results."""
    b = ControlBuilder()
    b.set_unit(0, 1)
    b.li(areg(0), 0)
    b.li(areg(1), rounds)
    b.label("round_top")
    b.li(areg(2), 0)
    b.li(areg(3), 3 * edge_count)
    b.li(areg(4), 0)  # ibuf pointer, reset per round
    b.label("stream_top")
    b.mv(OUT_PORT, ibuf(4, indirect=True))
    b.addi(4, 4, 1)
    b.addi(2, 2, 1)
    b.branch(ControlOp.BLT, 2, 3, "stream_top")
    b.addi(0, 0, 1)
    b.branch(ControlOp.BLT, 0, 1, "round_top")
    b.li(areg(5), 0)
    b.li(areg(6), result_words)
    b.li(areg(7), 0)  # obuf pointer
    b.label("drain_top")
    b.mv(obuf(7, indirect=True), IN_PORT)
    b.addi(7, 7, 1)
    b.addi(5, 5, 1)
    b.branch(ControlOp.BLT, 5, 6, "drain_top")
    b.halt()
    return b.finish()


def _stream_and_drain_program(input_words: int, result_words: int) -> List:
    """Array program: start PE 0, stream the input, drain the output."""
    b = ControlBuilder()
    b.set_unit(0, 1)
    b.li(areg(0), 0)
    b.li(areg(1), input_words)
    b.label("stream_top")
    b.mv(OUT_PORT, ibuf(0, indirect=True))
    b.addi(0, 0, 1)
    b.branch(ControlOp.BLT, 0, 1, "stream_top")
    b.li(areg(2), 0)
    b.li(areg(3), result_words)
    b.li(areg(4), 0)
    b.label("drain_top")
    b.mv(obuf(4, indirect=True), IN_PORT)
    b.addi(4, 4, 1)
    b.addi(2, 2, 1)
    b.branch(ControlOp.BLT, 2, 3, "drain_top")
    b.halt()
    return b.finish()
