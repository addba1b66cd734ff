"""Control-program generation for 2D DP tables (Figure 5a/b).

The mapping of Section 3.1: each PE statically holds one target element
(one DP-table row); query elements stream through the PE chain; each
cell's same-row state stays in the PE's registers, previous-row values
arrive over the systolic port, and the FIFO carries the last PE's row
back to the first PE for the next 4-row pass.

The generator is kernel-agnostic: a :class:`Wavefront2DSpec`
(declared in :mod:`repro.dfg.stencils`, where the serving engine reads
the same object) names, per cell, which DFG inputs are *streamed*, *static*, *received* from
the upstream PE, *delayed* copies of received values (the diagonal),
*own* previous-cell outputs (the vertical state), or preloaded
*parameters*.  Boundary handling threads the DP table's row-0 values
through the same ports: each pass starts with a boundary tuple so the
delayed (diagonal) registers initialize exactly like the reference
recurrence (see ``tests/mapping`` for cell-exact validation against
the reference kernels).

Requirements the caller must satisfy (documented limitations of this
reproduction's codegen, not of the architecture): the target length
must be a multiple of the PE count, and banding is handled by the
throughput model rather than by trimming the systolic schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dfg.stencils import Wavefront2DSpec
from repro.dpmap.codegen import CellProgram, compile_cell
from repro.dpax.pe import PEConfig
from repro.dpax.pe_array import PEArray
from repro.isa.compute import CUInstruction, Reg, SlotOp, VLIWInstruction
from repro.isa.control import (
    ControlOp,
    FIFO_PORT,
    IN_PORT,
    OUT_PORT,
    Loc,
    Space,
    areg,
    ibuf,
    obuf,
    reg,
)
from repro.mapping.builder import ControlBuilder


@dataclass
class WavefrontPrograms:
    """Generated load-out for one PE array."""

    spec: Wavefront2DSpec
    cell_program: CellProgram
    array_control: List
    pe_control: List[List]
    pe_compute: List[List[VLIWInstruction]]
    passes: int
    query_length: int
    target_length: int
    epilogue_width: int

    @property
    def bundles_per_cell(self) -> int:
        return len(self.pe_compute[0])


def build_wavefront_programs(
    spec: Wavefront2DSpec,
    target_length: int,
    query_length: int,
    pe_count: int = 4,
) -> WavefrontPrograms:
    """Generate array + per-PE programs for one (target, query) task."""
    spec.validate()
    if target_length % pe_count != 0:
        raise ValueError(
            f"target length {target_length} must be a multiple of the PE "
            f"count {pe_count} (pad rows to a pass boundary)"
        )
    if query_length <= 0:
        raise ValueError("query length must be positive")
    passes = target_length // pe_count

    cell = compile_cell(spec.dfg)
    next_reg = cell.register_count
    tmp_reg = next_reg
    next_reg += 1
    acc_regs: Dict[str, int] = {}
    for acc_name, _, _ in spec.accumulators:
        acc_regs[acc_name] = next_reg
        next_reg += 1
    # Phantom recv values (received only to be delayed) get registers
    # beyond the cell program's allocation.
    recv_regs: Dict[str, int] = {}
    for recv_input, _ in spec.recv:
        if recv_input in cell.input_regs:
            recv_regs[recv_input] = cell.input_regs[recv_input]
        else:
            recv_regs[recv_input] = next_reg
            next_reg += 1

    compute = list(cell.instructions)
    for acc_name, fold_op, out_name in spec.accumulators:
        acc = Reg(acc_regs[acc_name])
        out = Reg(cell.output_regs[out_name])
        compute.append(
            VLIWInstruction(
                cu0=CUInstruction(
                    kind="tree", dest=acc, right=SlotOp(fold_op, (acc, out))
                )
            )
        )
    bundles = len(compute)

    pe_control = [
        _pe_program(
            spec, cell, pe_index, pe_count, passes, query_length,
            tmp_reg, acc_regs, recv_regs, bundles,
        )
        for pe_index in range(pe_count)
    ]
    array_control = _array_program(spec, pe_count, passes, query_length, target_length)
    epilogue_width = len(spec.epilogue)
    return WavefrontPrograms(
        spec=spec,
        cell_program=cell,
        array_control=array_control,
        pe_control=pe_control,
        pe_compute=[list(compute) for _ in range(pe_count)],
        passes=passes,
        query_length=query_length,
        target_length=target_length,
        epilogue_width=epilogue_width,
    )


def _epilogue_reg(
    spec: Wavefront2DSpec, cell: CellProgram, acc_regs: Dict[str, int], name: str
) -> int:
    """Resolve an epilogue name: accumulator, input register or output."""
    if name in acc_regs:
        return acc_regs[name]
    if name in cell.input_regs:
        return cell.input_regs[name]
    if name in cell.output_regs:
        return cell.output_regs[name]
    raise ValueError(f"epilogue name {name!r} is not a register")


def _pe_program(
    spec: Wavefront2DSpec,
    cell: CellProgram,
    pe_index: int,
    pe_count: int,
    passes: int,
    query_length: int,
    tmp_reg: int,
    acc_regs: Dict[str, int],
    recv_regs: Dict[str, int],
    bundles: int,
) -> List:
    """One PE's control program (see module docstring for the shape)."""
    is_first = pe_index == 0
    is_tail = pe_index == pe_count - 1
    recv_src = FIFO_PORT if is_first else IN_PORT
    send_dst = FIFO_PORT if is_tail else OUT_PORT

    def r(name: str) -> Loc:
        if name in cell.input_regs:
            return reg(cell.input_regs[name])
        return reg(recv_regs[name])

    b = ControlBuilder()
    # One-time parameter and accumulator initialization.
    for name, value in spec.params.items():
        b.li(r(name), value)
    for acc_name, _, _ in spec.accumulators:
        b.li(reg(acc_regs[acc_name]), spec.accumulator_init.get(acc_name, 0))

    # Pass loop: a0 = pass counter, a1 = pass count.
    b.li(areg(0), 0)
    b.li(areg(1), passes)
    b.label("pass_top")

    # Static (target) element: keep one, forward the rest downstream.
    b.mv(r(spec.static_input), IN_PORT)
    for _ in range(pe_count - 1 - pe_index):
        b.mv(reg(tmp_reg), IN_PORT)
        b.mv(OUT_PORT, reg(tmp_reg))

    # Boundary tuple: row-0 values of the upstream column initialize the
    # delayed (diagonal) registers.
    recv_to_delayed = {source: dest for dest, source in spec.delayed.items()}
    for recv_input, _ in spec.recv:
        dest = recv_to_delayed.get(recv_input)
        b.mv(r(dest) if dest else reg(tmp_reg), recv_src)

    # Own (vertical) state initializes to this row's row-0 values.
    for own_input, own_output in spec.own.items():
        b.li(r(own_input), spec.boundary_row[own_output])

    # Send this row's row-0 values downstream as the next boundary tuple.
    for _, out_name in spec.recv:
        b.li(send_dst, spec.boundary_row[out_name])

    # Inner loop over the query stream: a2 = cell counter, a3 = length.
    b.li(areg(2), 0)
    b.li(areg(3), query_length)
    b.label("cell_top")
    b.mv(r(spec.stream_input), IN_PORT)
    for recv_input, _ in spec.recv:
        b.mv(r(recv_input), recv_src)
    b.set_unit(0, bundles)
    if not is_tail:
        b.mv(OUT_PORT, r(spec.stream_input))
    for _, out_name in spec.recv:
        b.mv(send_dst, reg(cell.output_regs[out_name]))
    for delayed_input, from_recv in spec.delayed.items():
        b.mv(r(delayed_input), r(from_recv))
    for own_input, own_output in spec.own.items():
        b.mv(r(own_input), reg(cell.output_regs[own_output]))
    b.addi(2, 2, 1)
    b.branch(ControlOp.BLT, 2, 3, "cell_top")

    # Per-pass epilogue: drain own values, then relay upstream PEs'.
    for name in spec.epilogue:
        b.mv(OUT_PORT, reg(_epilogue_reg(spec, cell, acc_regs, name)))
    for _ in range(pe_index * len(spec.epilogue)):
        b.mv(reg(tmp_reg), IN_PORT)
        b.mv(OUT_PORT, reg(tmp_reg))

    b.addi(0, 0, 1)
    b.branch(ControlOp.BLT, 0, 1, "pass_top")
    b.halt()
    return b.finish()


def _array_program(
    spec: Wavefront2DSpec,
    pe_count: int,
    passes: int,
    query_length: int,
    target_length: int,
) -> List:
    """The array control thread: FIFO preload, PE start, data pumping.

    Input-buffer layout: targets at [0, T), the query at [T, T+Q).
    Output-buffer layout: per pass, ``len(epilogue) * pe_count`` words
    in tail-to-head PE order.
    """
    b = ControlBuilder()
    # Pass-1 FIFO preload: the (0,0) corner tuple, then Q column-0 tuples.
    for _, out_name in spec.recv:
        b.li(FIFO_PORT, spec.first_corner[out_name])
    b.li(areg(0), 0)
    b.li(areg(1), query_length)
    b.label("fifo_top")
    for _, out_name in spec.recv:
        b.li(FIFO_PORT, spec.first_column[out_name])
    b.addi(0, 0, 1)
    b.branch(ControlOp.BLT, 0, 1, "fifo_top")

    for pe_index in range(pe_count):
        b.set_unit(pe_index, 1)

    epilogue_words = len(spec.epilogue) * pe_count
    b.li(areg(2), 0)  # pass counter
    b.li(areg(3), passes)
    b.li(areg(4), 0)  # static (target) pointer
    b.li(areg(5), 0)  # obuf pointer
    b.label("pass_top")
    for _ in range(pe_count):
        b.mv(OUT_PORT, ibuf(4, indirect=True))
        b.addi(4, 4, 1)
    b.li(areg(6), target_length)  # query base
    b.li(areg(0), 0)
    b.label("stream_top")
    b.mv(OUT_PORT, ibuf(6, indirect=True))
    b.addi(6, 6, 1)
    b.addi(0, 0, 1)
    b.branch(ControlOp.BLT, 0, 1, "stream_top")
    if epilogue_words:
        b.li(areg(0), 0)
        b.li(areg(7), epilogue_words)
        b.label("epilogue_top")
        b.mv(obuf(5, indirect=True), IN_PORT)
        b.addi(5, 5, 1)
        b.addi(0, 0, 1)
        b.branch(ControlOp.BLT, 0, 7, "epilogue_top")
    b.addi(2, 2, 1)
    b.branch(ControlOp.BLT, 2, 3, "pass_top")
    b.halt()
    return b.finish()


@dataclass
class WavefrontRun:
    """Result of simulating one 2D task."""

    cycles: int
    cells: int
    #: epilogue_values[pass][pe_index][name] (pe_index = row within pass)
    epilogue_values: List[List[Dict[str, int]]]
    finished: bool
    stats: object
    #: :class:`repro.obs.profile.ProfileReport` when run with profiling.
    profile: Optional[object] = None

    @property
    def cycles_per_cell(self) -> float:
        return self.cycles / self.cells if self.cells else 0.0

    def epilogue_series(self, name: str) -> List[int]:
        """All drained values of *name*, row-major across passes."""
        return [
            values[name]
            for pass_values in self.epilogue_values
            for values in pass_values
        ]


def run_wavefront(
    spec: Wavefront2DSpec,
    target: Sequence[int],
    stream: Sequence[int],
    pe_count: int = 4,
    max_cycles: int = 5_000_000,
    simd_lanes: int = 1,
    datapath: str = "int",
    profile: bool = False,
) -> WavefrontRun:
    """Build programs for one task and run them on a fresh PE array.

    With ``simd_lanes=4`` the datapath runs four 8-bit lanes per word:
    the caller supplies *packed* target/stream words and a spec whose
    boundary constants are packed (see :mod:`repro.mapping.simd`).
    ``datapath="fp"`` runs on a floating-point PE array (Figure 4),
    with float boundary constants and match-table values.
    ``profile=True`` attaches per-PE cycle accounting
    (:mod:`repro.obs.profile`) and returns it on ``WavefrontRun.profile``.
    """
    programs = build_wavefront_programs(spec, len(target), len(stream), pe_count)
    config = PEConfig(
        match_table=spec.match_table, simd_lanes=simd_lanes, datapath=datapath
    )
    array = PEArray(array_index=0, pe_config=config, pe_count=pe_count)
    array_profile = array.enable_profiling() if profile else None
    array.ibuf.preload(list(target), base=0)
    array.ibuf.preload(list(stream), base=len(target))
    array.load_array_control(programs.array_control)
    for pe_index in range(pe_count):
        array.load_pe(
            pe_index, programs.pe_control[pe_index], programs.pe_compute[pe_index]
        )

    cycles, finished = array.run(max_cycles)

    width = programs.epilogue_width
    epilogue_values: List[List[Dict[str, int]]] = []
    if width:
        raw = array.obuf.dump(0, programs.passes * width * pe_count)
        for pass_index in range(programs.passes):
            chunk = raw[
                pass_index * width * pe_count : (pass_index + 1) * width * pe_count
            ]
            # Arrival order is tail-to-head; re-index head-to-tail.
            per_pe: List[Dict[str, int]] = [None] * pe_count  # type: ignore
            for slot, pe_index in enumerate(reversed(range(pe_count))):
                values = chunk[slot * width : (slot + 1) * width]
                per_pe[pe_index] = dict(zip(spec.epilogue, values))
            epilogue_values.append(per_pe)

    return WavefrontRun(
        cycles=cycles,
        cells=len(target) * len(stream),
        epilogue_values=epilogue_values,
        finished=finished,
        stats=array.merged_pe_stats(),
        profile=array_profile.report() if array_profile is not None else None,
    )
