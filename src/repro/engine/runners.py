"""Per-kernel functional execution of compiled cell programs.

Each runner sweeps a job's DP table cell by cell through one cell
function, with the boundary conditions of the corresponding systolic
spec (:mod:`repro.mapping.kernels2d`).  This is the functional model
of the compute thread -- bit-identical to the reference kernels
(approximate only for PairHMM's fixed-point log domain, like the
hardware), but orders of magnitude faster than the cycle-level
simulator, which is what a throughput-oriented serving layer needs.

There is one cell-execution path.  :func:`run_job` streams cells
through the program's specialized function
(:mod:`repro.engine.specialize`: the DPMap-emitted VLIW bundles
compiled once into straight-line Python, memoized per process), on
every backend -- inline, shm workers and the shm degraded floor.  The
interpreter (:func:`_cell_executor`, the same
:func:`repro.dpmap.codegen.execute_way` semantics the PE simulator
uses) is the oracle that path is differentially tested against; it
runs a job only when the payload arms sentinels (it alone carries the
per-ALU observe hook), when specialization failed, or when a caller
passes it explicitly.  Both implement one calling convention: inputs
positional in ``input_regs`` order, outputs a tuple in ``output_regs``
order.

Runners are module-level functions on plain payload dicts, so a job
the SoA slot layout cannot carry still pickles into a worker.

Fault-injection hooks (used by the executor tests and
:mod:`repro.faults` chaos drills): payload keys ``_inject_delay_s``
and ``_inject_exit`` apply **only inside worker processes**, so
the inline fallback path stays healthy by construction.
``_inject_fail`` raises on every backend, and ``_inject_corrupt``
bit-flips the result on every backend -- modelling the accelerator
soft error that no amount of retrying or degradation fixes, which only
the engine's validation guard (re-checking results against
:func:`reference_result`) can catch.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dfg.graph import DataFlowGraph
from repro.dfg.kernels import (
    bsw_dfg,
    chain_dfg,
    dtw_dfg,
    lcs_dfg,
    pairhmm_dfg,
)
from repro.dpmap.codegen import execute_way
from repro.engine.cache import CompiledProgram
from repro.engine.jobs import JobValidationError
from repro.engine.specialize import CELLS, CellFunction, MatchTable
from repro.guard.sentinels import make_sentinel
from repro.kernels.chain import DEFAULT_AVG_SEED_WEIGHT, Anchor
from repro.obs.trace import monotonic_epoch_clock, worker_span

#: Worker-side span clock: wall-anchored monotonic, one anchor per
#: worker process, matching the recorder's default timeline.
_SPAN_CLOCK = monotonic_epoch_clock()
from repro.kernels.pairhmm import (
    LOG_FRACTION_BITS,
    HMMParameters,
    log_sum_lookup,
)
from repro.seq.alphabet import encode
from repro.seq.scoring import ScoringScheme

#: Boundary "minus infinity" / "plus infinity", as in kernels2d.
NEG = -(1 << 20)
INF = 1 << 20

#: Chain lookback window (the paper's reordered N=64 configuration).
DEFAULT_CHAIN_WINDOW = 64

#: Per-kernel consumer contract: the program outputs each runner below
#: actually reads.  DPMap compiles every DFG output (BSW and POA carry
#: traceback ``dir`` bits, for instance) but the score-only sweeps
#: here never consume some of them -- the optimizer's
#: :class:`repro.opt.passes.PruneOutputsPass` uses this map to drop
#: those outputs and eliminate their compute cones.  Any runner change
#: that reads a new output MUST extend its entry (the differential
#: tests against the reference kernels catch a stale contract).
CONSUMED_OUTPUTS: Dict[str, frozenset] = {
    "bsw": frozenset({"h", "e", "f"}),
    "pairhmm": frozenset({"m", "i", "d"}),
    "lcs": frozenset({"c"}),
    "dtw": frozenset({"d"}),
    "chain": frozenset({"f", "parent"}),
}

#: The positional signature each sweep below calls its cell with: the
#: input order the kernel's DFG declares, which is the program's
#: ``input_regs`` order (checked per job by :func:`_output_slots`).
CELL_INPUTS: Dict[str, Tuple[str, ...]] = {
    "bsw": ("q", "t", "h_diag", "h_up", "e_up", "h_left", "f_left"),
    "pairhmm": (
        "a_mm", "m_diag", "a_im", "i_diag", "d_diag", "q", "t",
        "a_gap", "m_up", "a_ext", "i_up", "m_left", "d_left",
    ),
    "lcs": ("c_diag", "c_up", "c_left", "x", "y"),
    "dtw": ("a", "b", "d_up", "d_left", "d_diag"),
    "chain": ("x_i", "x_j", "y_i", "y_j", "w", "f_j", "f_i", "j_idx", "parent"),
}


def build_dfg(kernel: str) -> DataFlowGraph:
    """The objective-function DFG the engine compiles for *kernel*."""
    if kernel == "bsw":
        gap = ScoringScheme().gap
        return bsw_dfg(gap_open=gap.open, gap_extend=gap.extend)
    if kernel == "pairhmm":
        return pairhmm_dfg(inline_emission=True)
    if kernel == "lcs":
        return lcs_dfg()
    if kernel == "dtw":
        return dtw_dfg()
    if kernel == "chain":
        return chain_dfg()
    raise JobValidationError(f"unknown kernel {kernel!r}")


def _pairhmm_fixed() -> Dict[str, int]:
    """PairHMM transition/emission constants in log2 fixed point."""
    params = HMMParameters()
    scale = 1 << LOG_FRACTION_BITS

    def to_fixed(probability: float) -> int:
        return int(round(math.log2(probability) * scale))

    error = 10.0 ** (-params.base_quality / 10.0)
    return {
        "a_mm": to_fixed(params.match_to_match),
        "a_im": to_fixed(params.indel_to_match),
        "a_gap": to_fixed(params.gap_open),
        "a_ext": to_fixed(params.gap_extend),
        "emit_match": to_fixed(1.0 - error),
        "emit_mismatch": to_fixed(error / 3.0),
    }


def match_table_for(kernel: str) -> Optional[Callable[[int, int], int]]:
    """The MATCH_SCORE LUT backing *kernel*'s compiled program."""
    if kernel == "bsw":
        substitution = ScoringScheme().substitution

        def bsw_table(a: int, b: int) -> int:
            return substitution.match if a == b else substitution.mismatch

        return bsw_table
    if kernel == "pairhmm":
        fixed = _pairhmm_fixed()
        emit_match, emit_mismatch = fixed["emit_match"], fixed["emit_mismatch"]

        def hmm_table(a: int, b: int) -> int:
            return emit_match if a == b else emit_mismatch

        return hmm_table
    return None


def payload_cells(kernel: str, payload: Dict[str, Any]) -> int:
    """DP-cell estimate for size binning and throughput accounting."""
    if kernel == "bsw":
        return len(payload["query"]) * len(payload["target"])
    if kernel == "pairhmm":
        return len(payload["read"]) * len(payload["haplotype"])
    if kernel == "lcs":
        return len(payload["x"]) * len(payload["y"])
    if kernel == "dtw":
        return len(payload["a"]) * len(payload["b"])
    if kernel == "chain":
        count = len(payload["anchors"])
        n = int(payload.get("n", DEFAULT_CHAIN_WINDOW))
        full = max(0, count - n)
        short = min(count, n)
        return full * n + short * (short - 1) // 2
    raise JobValidationError(f"unknown kernel {kernel!r}")


def _cell_executor(
    compiled: CompiledProgram,
    match_table: Optional[MatchTable],
    observe: Optional[Callable[[int], None]] = None,
) -> CellFunction:
    """The interpreter: one cell update on a fresh RF image per call.

    The oracle for the specialized cell, with the same calling
    convention.  *observe* sees every intermediate ALU value of the
    sweep -- the numerical sentinels' hook, which only this path has.
    """
    instructions = compiled.instructions
    input_indexes = tuple(compiled.input_regs.values())
    output_indexes = tuple(compiled.output_regs.values())

    def run_cell(*inputs: int) -> Tuple[int, ...]:
        rf: Dict[int, int] = dict(zip(input_indexes, inputs))
        for bundle in instructions:
            results = [
                (way.dest.index, execute_way(way, rf, match_table, observe=observe))
                for way in bundle.ways
            ]
            for dest, value in results:
                rf[dest] = value
        return tuple(rf[index] for index in output_indexes)

    run_cell.path = "interpreted"  # what run_job's span reports
    return run_cell


def _output_slots(
    kernel: str, compiled: CompiledProgram, *names: str
) -> Tuple[int, ...]:
    """Where *names* sit in the cell's output tuple.

    Also the per-job check that *compiled* takes its inputs in the
    order the kernel's sweep passes them: positional arguments in any
    other order would compute garbage silently.
    """
    inputs, outputs = tuple(compiled.input_regs), tuple(compiled.output_regs)
    if inputs != CELL_INPUTS[kernel] or not set(names) <= set(outputs):
        raise JobValidationError(
            f"{kernel} program signature {inputs} -> {outputs} does not fit "
            f"the {kernel} sweep ({CELL_INPUTS[kernel]} -> {names})"
        )
    return tuple(outputs.index(name) for name in names)


# ----------------------------------------------------------------------
# kernel sweeps


def _run_bsw(
    compiled: CompiledProgram, payload: Dict[str, Any], cell: CellFunction
) -> Dict[str, Any]:
    """Local affine alignment; reports the best cell score."""
    query = encode(payload["query"])
    target = encode(payload["target"])
    h_slot, e_slot, f_slot = _output_slots("bsw", compiled, "h", "e", "f")
    cols = len(target) + 1
    h_prev = [0] * cols
    e_prev = [NEG] * cols
    best = 0
    for q in query:
        h_curr = [0] * cols  # column 0: H = 0 (local alignment)
        e_curr = [NEG] * cols
        f_left = NEG
        for j in range(1, cols):
            out = cell(
                q,
                target[j - 1],
                h_prev[j - 1],
                h_prev[j],
                e_prev[j],
                h_curr[j - 1],
                f_left,
            )
            h = h_curr[j] = out[h_slot]
            e_curr[j] = out[e_slot]
            f_left = out[f_slot]
            if h > best:
                best = h
        h_prev, e_prev = h_curr, e_curr
    return {"score": best, "cells": len(query) * len(target)}


def _run_pairhmm(
    compiled: CompiledProgram, payload: Dict[str, Any], cell: CellFunction
) -> Dict[str, Any]:
    """Log2 fixed-point forward pass; reports log10 likelihood."""
    read = encode(payload["read"])
    haplotype = encode(payload["haplotype"])
    fixed = _pairhmm_fixed()
    a_mm, a_im = fixed["a_mm"], fixed["a_im"]
    a_gap, a_ext = fixed["a_gap"], fixed["a_ext"]
    m_slot, i_slot, d_slot = _output_slots("pairhmm", compiled, "m", "i", "d")
    cols = len(haplotype) + 1
    scale = 1 << LOG_FRACTION_BITS
    init_d = int(round(math.log2(1.0 / len(haplotype)) * scale))
    # Row 0: the read has not started -- M and I impossible, D uniform
    # over haplotype positions (cell (0,0) stays floored).
    m_prev = [NEG] * cols
    i_prev = [NEG] * cols
    d_prev = [NEG] + [init_d] * (len(haplotype))
    for q in read:
        m_curr = [NEG] * cols
        i_curr = [NEG] * cols
        d_curr = [NEG] * cols
        for j in range(1, cols):
            out = cell(
                a_mm,
                m_prev[j - 1],
                a_im,
                i_prev[j - 1],
                d_prev[j - 1],
                q,
                haplotype[j - 1],
                a_gap,
                m_prev[j],
                a_ext,
                i_prev[j],
                m_curr[j - 1],
                d_curr[j - 1],
            )
            m_curr[j], i_curr[j], d_curr[j] = out[m_slot], out[i_slot], out[d_slot]
        m_prev, i_prev, d_prev = m_curr, i_curr, d_curr
    total = NEG
    for j in range(1, cols):
        total = log_sum_lookup(total, log_sum_lookup(m_prev[j], i_prev[j]))
    return {
        "log10_likelihood": (total / scale) * math.log10(2),
        "cells": len(read) * len(haplotype),
    }


def _run_lcs(
    compiled: CompiledProgram, payload: Dict[str, Any], cell: CellFunction
) -> Dict[str, Any]:
    x = encode(payload["x"])
    y = encode(payload["y"])
    (c_slot,) = _output_slots("lcs", compiled, "c")
    cols = len(y) + 1
    c_prev = [0] * cols
    for x_i in x:
        c_curr = [0] * cols
        for j in range(1, cols):
            c_curr[j] = cell(
                c_prev[j - 1], c_prev[j], c_curr[j - 1], x_i, y[j - 1]
            )[c_slot]
        c_prev = c_curr
    return {"length": c_prev[-1], "cells": len(x) * len(y)}


def _run_dtw(
    compiled: CompiledProgram, payload: Dict[str, Any], cell: CellFunction
) -> Dict[str, Any]:
    a = [int(v) for v in payload["a"]]
    b = [int(v) for v in payload["b"]]
    (d_slot,) = _output_slots("dtw", compiled, "d")
    cols = len(b) + 1
    d_prev = [0] + [INF] * len(b)  # row 0: only the corner is reachable
    for a_i in a:
        d_curr = [INF] * cols
        for j in range(1, cols):
            d_curr[j] = cell(
                a_i, b[j - 1], d_prev[j], d_curr[j - 1], d_prev[j - 1]
            )[d_slot]
        d_prev = d_curr
    return {"distance": d_prev[-1], "cells": len(a) * len(b)}


def _run_chain(
    compiled: CompiledProgram, payload: Dict[str, Any], cell: CellFunction
) -> Dict[str, Any]:
    """Reordered fixed-point chaining (anchor j pushes to anchor i).

    The compiled DFG folds the average seed weight (19) into its gap
    constant, exactly like :func:`repro.dfg.kernels.chain_dfg`; payload
    anchors must carry that weight for the result to be bit-identical
    to :func:`repro.kernels.chain_fixed.chain_reordered_fixed` (the
    workload generators' default).
    """
    from repro.kernels.chain_fixed import SCALE

    anchors = [Anchor(int(x), int(y), int(w)) for x, y, w in payload["anchors"]]
    for anchor in anchors:
        if anchor.w != DEFAULT_AVG_SEED_WEIGHT:
            raise JobValidationError(
                "the compiled chain program folds avg seed weight "
                f"{DEFAULT_AVG_SEED_WEIGHT} into its gap constant; anchor "
                f"weight {anchor.w} would diverge from the reference"
            )
    n = int(payload.get("n", DEFAULT_CHAIN_WINDOW))
    f_slot, parent_slot = _output_slots("chain", compiled, "f", "parent")
    count = len(anchors)
    scores: List[int] = [anchor.w * SCALE for anchor in anchors]
    parents = [-1] * count
    cells = 0
    for j in range(count):
        hi = min(count, j + 1 + n)
        x_j, y_j = anchors[j].x, anchors[j].y
        for i in range(j + 1, hi):
            cells += 1
            anchor = anchors[i]
            out = cell(
                anchor.x, x_j, anchor.y, y_j, anchor.w,
                scores[j], scores[i], j, parents[i],
            )
            scores[i], parents[i] = out[f_slot], out[parent_slot]
    best = max(range(count), key=lambda k: scores[k]) if count else 0
    return {
        "scores": scores,
        "parents": parents,
        "best_index": best,
        "best_score": scores[best] if count else 0,
        "cells": cells,
    }


_RUNNERS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "bsw": _run_bsw,
    "pairhmm": _run_pairhmm,
    "lcs": _run_lcs,
    "dtw": _run_dtw,
    "chain": _run_chain,
}


def _in_worker() -> bool:
    return multiprocessing.parent_process() is not None


def corrupt_value(value: Dict[str, Any]) -> Dict[str, Any]:
    """Flip one bit (or nudge one float) in a result dict.

    The deterministic stand-in for an accelerator soft error: the
    first numeric field is damaged beyond any validation tolerance,
    everything else is untouched, and the envelope still looks
    perfectly healthy (``ok=True``).
    """
    corrupted = dict(value)
    for key, field_value in corrupted.items():
        if isinstance(field_value, bool):
            continue
        if isinstance(field_value, int):
            corrupted[key] = field_value ^ (1 << 7)
            return corrupted
        if isinstance(field_value, float):
            corrupted[key] = field_value + 64.0
            return corrupted
        if (
            isinstance(field_value, list)
            and field_value
            and isinstance(field_value[0], int)
        ):
            corrupted[key] = [field_value[0] ^ (1 << 7)] + field_value[1:]
            return corrupted
    return corrupted


def specialized_cell(compiled: CompiledProgram) -> Optional[CellFunction]:
    """*compiled*'s memoized specialized cell (``None``: it has none)."""
    return CELLS.get(compiled, match_table_for)


def run_job(
    kernel: str,
    compiled: CompiledProgram,
    payload: Dict[str, Any],
    cell: Optional[CellFunction] = None,
) -> Dict[str, Any]:
    """Execute one job with *compiled* and return its output dict.

    *cell* is the cell function the sweep streams through; ``None``
    (every executor's call) means the program's specialized cell from
    the per-process memo.  The interpreter runs instead when the
    payload arms sentinels -- only it carries the per-ALU observe
    hook, so a passed *cell* is set aside too -- when specialization
    failed, or when the caller passes :func:`_cell_executor`'s closure
    as the oracle.
    """
    if kernel not in _RUNNERS:
        raise JobValidationError(f"unknown kernel {kernel!r}")
    if _in_worker():
        delay = payload.get("_inject_delay_s")
        if delay:
            time.sleep(float(delay))
        if payload.get("_inject_exit"):
            os._exit(3)
    if payload.get("_inject_fail"):
        raise RuntimeError("injected job failure")
    # ``_trace`` carries the engine's correlation ids (see
    # Engine.submit); the span travels back inside the result dict the
    # same way sentinel counts do, because workers are separate
    # processes and cannot share the recorder.
    trace = payload.get("_trace")
    run_started = _SPAN_CLOCK() if trace is not None else 0.0
    sentinel = make_sentinel(kernel) if payload.get("_sentinels") else None
    if sentinel is not None:
        cell = None
    elif cell is None:
        cell = specialized_cell(compiled)
    if cell is None:
        cell = _cell_executor(
            compiled,
            match_table_for(kernel),
            sentinel.observe if sentinel is not None else None,
        )
    value = _RUNNERS[kernel](compiled, payload, cell)
    if payload.get("_inject_corrupt"):
        value = corrupt_value(value)
    if sentinel is not None and isinstance(value, dict):
        value["_sentinels"] = sentinel.snapshot()
    if trace is not None and isinstance(value, dict):
        value["_trace_spans"] = [
            worker_span(
                "job:run",
                run_started,
                _SPAN_CLOCK(),
                kernel=kernel,
                trace_id=trace.get("trace_id") if isinstance(trace, dict) else None,
                job_id=trace.get("job_id") if isinstance(trace, dict) else None,
                tenant=trace.get("tenant") if isinstance(trace, dict) else None,
                in_pool=_in_worker(),
                path=getattr(cell, "path", "specialized"),
            )
        ]
    return value


# ----------------------------------------------------------------------
# reference validation


def reference_result(kernel: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """The reference-kernel answer for *payload* (validation oracle)."""
    if kernel == "bsw":
        from repro.kernels.base import AlignmentMode
        from repro.kernels.sw import align

        result = align(
            payload["query"], payload["target"], mode=AlignmentMode.LOCAL
        )
        return {"score": result.score}
    if kernel == "pairhmm":
        from repro.kernels.pairhmm import pairhmm_forward

        return {
            "log10_likelihood": pairhmm_forward(
                payload["read"], payload["haplotype"]
            )
        }
    if kernel == "lcs":
        from repro.kernels.lcs import lcs_length

        return {"length": lcs_length(payload["x"], payload["y"])}
    if kernel == "dtw":
        from repro.kernels.dtw import dtw_matrix

        return {"distance": int(dtw_matrix(payload["a"], payload["b"])[-1][-1])}
    if kernel == "chain":
        from repro.kernels.chain_fixed import chain_reordered_fixed

        anchors = [Anchor(int(x), int(y), int(w)) for x, y, w in payload["anchors"]]
        result = chain_reordered_fixed(
            anchors, n=int(payload.get("n", DEFAULT_CHAIN_WINDOW))
        )
        return {
            "scores": [int(score) for score in result.scores],
            "parents": result.parents,
            "best_index": result.best_index,
        }
    raise JobValidationError(f"unknown kernel {kernel!r}")


#: Tolerance for PairHMM's fixed-point log-domain approximation, in
#: log10 units (the wavefront tests use 0.01 on tiny tables; real-size
#: tables accumulate a little more LUT truncation).
PAIRHMM_LOG10_TOLERANCE = 0.05


def matches_reference(kernel: str, value: Dict[str, Any], payload: Dict[str, Any]) -> bool:
    """True iff an engine result agrees with the reference kernel."""
    expected = reference_result(kernel, payload)
    if kernel == "pairhmm":
        return (
            abs(value["log10_likelihood"] - expected["log10_likelihood"])
            <= PAIRHMM_LOG10_TOLERANCE
        )
    return all(value[key] == expected[key] for key in expected)
