"""Inter-cell dependency stencils of the 2D kernels: BSW, PairHMM, LCS, DTW.

A DP kernel is an objective function (a DFG, :mod:`repro.dfg.kernels`)
plus the pattern in which cells feed each other.  A
:class:`Wavefront2DSpec` states that pattern once, by binding every DFG
input to a dataflow role and giving the table's boundary values, and
both executions of the recurrence are generated from it: the systolic
control programs of :mod:`repro.mapping.wavefront2d` (the simulator)
and the row-major sweeps of :mod:`repro.engine.sweep` (the serving
engine).  What the optimizer may prune (:meth:`consumed_outputs`) and
what the certifier treats as recurrent (:meth:`feedback`,
:meth:`match_range`) are read off the same declaration.

This module sits beside the DFG builders whose inputs it binds and
imports nothing above them, so the engine loads it without
:mod:`repro.mapping` or the simulator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.dfg.graph import DataFlowGraph, Opcode
from repro.dfg.kernels import bsw_dfg, dtw_dfg, lcs_dfg, pairhmm_dfg
from repro.kernels.pairhmm import HMMParameters, to_fixed
from repro.seq.alphabet import DNA_ALPHABET
from repro.seq.scoring import AffineGap, ScoringScheme

#: "Minus infinity" for integer gap states: deep enough that gap
#: extensions never win against real scores, shallow enough that
#: arithmetic on it stays far from 32-bit wraparound.
NEG = -(1 << 20)

#: DTW's unreachable-cell cost.
INF = 1 << 20


@dataclass
class Wavefront2DSpec:
    """Dataflow roles of one 2D kernel's DFG inputs and outputs."""

    name: str
    dfg: DataFlowGraph
    stream_input: str
    static_input: str
    #: (input name, upstream output name), in port transfer order.
    recv: List[Tuple[str, str]]
    #: input name -> recv input whose previous value it takes (diagonal).
    delayed: Dict[str, str]
    #: input name -> own output of the previous cell (vertical state).
    own: Dict[str, str]
    #: input name -> constant preloaded once (transition weights etc.).
    params: Dict[str, int] = field(default_factory=dict)
    #: output name -> its DP row-0 value (constant along the row).
    boundary_row: Dict[str, int] = field(default_factory=dict)
    #: output name -> its DP column-0 per-row value.
    first_column: Dict[str, int] = field(default_factory=dict)
    #: output name -> its DP (0,0) corner value.
    first_corner: Dict[str, int] = field(default_factory=dict)
    #: register names (inputs or accumulators) drained per pass.
    epilogue: List[str] = field(default_factory=list)
    #: (accumulator, fold op, output): acc = op(acc, output) per cell.
    accumulators: List[Tuple[str, Opcode, str]] = field(default_factory=list)
    accumulator_init: Dict[str, int] = field(default_factory=dict)
    match_table: Optional[Callable[[int, int], int]] = None

    def validate(self) -> None:
        names = set(self.dfg.inputs)
        outputs = set(self.dfg.outputs)
        roles = (
            {self.stream_input, self.static_input}
            | {pair[0] for pair in self.recv}
            | set(self.delayed)
            | set(self.own)
            | set(self.params)
        )
        missing = names - roles
        if missing:
            raise ValueError(f"DFG inputs without a dataflow role: {sorted(missing)}")
        # Recv names outside the DFG are allowed: "phantom" values that
        # are received only so the next cell can take a delayed copy
        # (e.g. PairHMM's i_left, consumed only as i_diag).
        for _, out in self.recv:
            if out not in outputs:
                raise ValueError(f"recv references unknown output {out!r}")
        for out in list(self.own.values()):
            if out not in outputs:
                raise ValueError(f"own references unknown output {out!r}")
        recv_names = {pair[0] for pair in self.recv}
        for dest, source in self.delayed.items():
            if source not in recv_names:
                raise ValueError(
                    f"delayed input {dest!r} copies {source!r}, which is "
                    f"not received"
                )

    def consumed_outputs(self) -> Tuple[str, ...]:
        """The cell outputs a sweep of this recurrence reads back."""
        return tuple(
            dict.fromkeys(
                [out for _, out in self.recv]
                + list(self.own.values())
                + [out for _, _, out in self.accumulators]
            )
        )

    def feedback(self) -> Dict[str, Tuple[str, ...]]:
        """Output -> the DFG inputs it feeds on later cells (diagonal,
        vertical, horizontal); phantom recv names feed nothing."""
        recv_output = dict(self.recv)
        edges: Dict[str, List[str]] = {out: [] for out in self.consumed_outputs()}
        for name, source in self.delayed.items():
            edges[recv_output[source]].append(name)
        for name, out in self.own.items():
            edges[out].append(name)
        for name, out in self.recv:
            if name in self.dfg.inputs:
                edges[out].append(name)
        return {out: tuple(names) for out, names in edges.items() if names}

    def match_range(self) -> Optional[Tuple[int, int]]:
        """(min, max) of the MATCH_SCORE table over the DNA alphabet."""
        if self.match_table is None:
            return None
        codes = range(len(DNA_ALPHABET))
        scores = [self.match_table(a, b) for a in codes for b in codes]
        return min(scores), max(scores)


def bsw_wavefront_spec(scheme: Optional[ScoringScheme] = None) -> Wavefront2DSpec:
    """Local affine Smith-Waterman on the systolic array.

    The per-PE static element is a target base; the query streams.  The
    running best score accumulates per PE (``hmax``) and drains each
    pass -- local alignment's answer is the max over all of them.
    """
    if scheme is None:
        scheme = ScoringScheme()
    gap = scheme.gap
    if not isinstance(gap, AffineGap):
        raise TypeError("the BSW systolic kernel is affine-gap only")
    substitution = scheme.substitution

    def match_table(a: int, b: int) -> int:
        return substitution.match if a == b else substitution.mismatch

    return Wavefront2DSpec(
        name="bsw",
        dfg=bsw_dfg(gap_open=gap.open, gap_extend=gap.extend),
        stream_input="q",
        static_input="t",
        recv=[("h_left", "h"), ("f_left", "f")],
        delayed={"h_diag": "h_left"},
        own={"h_up": "h", "e_up": "e"},
        boundary_row={"h": 0, "e": NEG, "f": NEG},
        first_column={"h": 0, "f": NEG},
        first_corner={"h": 0, "f": NEG},
        epilogue=["hmax"],
        accumulators=[("hmax", Opcode.MAX, "h")],
        accumulator_init={"hmax": 0},
        match_table=match_table,
    )


def pairhmm_wavefront_spec(
    params: Optional[HMMParameters] = None,
) -> Wavefront2DSpec:
    """PairHMM forward pass in the log2 fixed-point domain.

    Haplotype bases are static per PE; read bases stream.  Emissions
    come from the MATCH_SCORE LUT (constant base quality), transition
    weights are preloaded parameters, and each PE drains its column's
    last-row (m, i) states per pass -- the host log-sums them into the
    likelihood, mirroring GATK's final row sum.
    """
    if params is None:
        params = HMMParameters()
    error = 10.0 ** (-params.base_quality / 10.0)
    emit_match = to_fixed(1.0 - error)
    emit_mismatch = to_fixed(error / 3.0)
    floor = NEG

    def match_table(a: int, b: int) -> int:
        return emit_match if a == b else emit_mismatch

    return Wavefront2DSpec(
        name="pairhmm",
        dfg=pairhmm_dfg(inline_emission=True),
        stream_input="q",
        static_input="t",
        recv=[("m_left", "m"), ("i_left", "i"), ("d_left", "d")],
        delayed={"m_diag": "m_left", "i_diag": "i_left", "d_diag": "d_left"},
        own={"m_up": "m", "i_up": "i"},
        params={
            "a_mm": to_fixed(params.match_to_match),
            "a_im": to_fixed(params.indel_to_match),
            "a_gap": to_fixed(params.gap_open),
            "a_ext": to_fixed(params.gap_extend),
        },
        # Row 0: the read has not started; M and I are impossible, D is
        # uniform over haplotype positions.  The uniform init depends on
        # the haplotype length, patched per task
        # (pairhmm_boundary_for_length): the spec stores a placeholder
        # of log2(1) = 0.
        boundary_row={"m": floor, "i": floor, "d": 0},
        first_column={"m": floor, "i": floor, "d": floor},
        first_corner={"m": floor, "i": floor, "d": floor},
        epilogue=["m_up", "i_up"],
        match_table=match_table,
    )


def pairhmm_boundary_for_length(
    spec: Wavefront2DSpec, haplotype_length: int
) -> Wavefront2DSpec:
    """Patch the uniform row-0 D value for a concrete haplotype length."""
    init = to_fixed(1.0 / haplotype_length)
    return replace(spec, boundary_row={**spec.boundary_row, "d": init})


def lcs_wavefront_spec() -> Wavefront2DSpec:
    """Longest common subsequence: the Section 2.2 teaching kernel."""
    return Wavefront2DSpec(
        name="lcs",
        dfg=lcs_dfg(),
        stream_input="x",
        static_input="y",
        recv=[("c_left", "c")],
        delayed={"c_diag": "c_left"},
        own={"c_up": "c"},
        boundary_row={"c": 0},
        first_column={"c": 0},
        first_corner={"c": 0},
        epilogue=["c_up"],
    )


def dtw_wavefront_spec() -> Wavefront2DSpec:
    """Dynamic time warping over integer signals (Section 7.6.5)."""
    return Wavefront2DSpec(
        name="dtw",
        dfg=dtw_dfg(),
        stream_input="a",
        static_input="b",
        recv=[("d_left", "d")],
        delayed={"d_diag": "d_left"},
        own={"d_up": "d"},
        boundary_row={"d": INF},
        first_column={"d": INF},
        first_corner={"d": 0},
        epilogue=["d_up"],
    )


#: kernel -> (default spec builder, per-task boundary patch or None):
#: the one place a kernel name resolves to its recurrence.
WAVEFRONT_SPECS: Dict[str, Tuple[Callable[[], Wavefront2DSpec], Optional[Callable]]] = {
    "bsw": (bsw_wavefront_spec, None),
    "pairhmm": (pairhmm_wavefront_spec, pairhmm_boundary_for_length),
    "lcs": (lcs_wavefront_spec, None),
    "dtw": (dtw_wavefront_spec, None),
}


@functools.lru_cache(maxsize=None)
def default_spec(kernel: str) -> Wavefront2DSpec:
    """The process-wide default spec of *kernel*, for reading its roles.

    Shared between callers: treat it as immutable.  Anything that
    compiles the DFG calls the builder (or :func:`wavefront_spec`)
    instead, so cold compiles still pay for building it.
    """
    build, _ = WAVEFRONT_SPECS[kernel]
    return build()


def wavefront_spec(kernel: str, static_length: int) -> Wavefront2DSpec:
    """A fresh default spec of *kernel* for tasks whose static sequence
    (target, haplotype) has *static_length* elements."""
    build, patch = WAVEFRONT_SPECS[kernel]
    spec = build()
    return patch(spec, static_length) if patch is not None else spec
