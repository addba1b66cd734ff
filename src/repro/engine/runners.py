"""Per-kernel functional execution of compiled cell programs.

A job's DP table is swept cell by cell through one cell function.  The
four 2-D kernels run the loop nest :mod:`repro.engine.sweep` generates
from their :class:`~repro.dfg.stencils.Wavefront2DSpec` -- the
declaration the cycle-level simulator executes too; Chain, the one 1-D
windowed kernel, keeps a hand-written sweep here.  Everything else the
engine knows about a kernel by name is its row of
:data:`repro.engine.kernels.KERNELS`; the functions below are lookups
into that table.  This is the functional model of the compute thread
-- bit-identical to the reference kernels (approximate only for
PairHMM's fixed-point log domain, like the hardware), but orders of
magnitude faster than the cycle-level simulator, which is what a
throughput-oriented serving layer needs.

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
order; the sweeps bind both by name, whatever that order is.

Sweeps are module-level functions on plain payload dicts, so a job
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

import multiprocessing
import os
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.dfg.graph import DataFlowGraph
from repro.dfg.kernels import chain_dfg
from repro.dfg.stencils import WAVEFRONT_SPECS, default_spec
from repro.dpmap.codegen import execute_way
from repro.engine.cache import CompiledProgram
from repro.engine.jobs import JobValidationError
from repro.engine.kernels import (  # noqa: F401  (re-exported constant)
    DEFAULT_CHAIN_WINDOW,
    KERNELS,
    EngineKernel,
)
from repro.engine.specialize import CELLS, CellFunction, MatchTable
from repro.engine.sweep import wavefront_sweep
from repro.guard.sentinels import make_sentinel
from repro.kernels.chain import DEFAULT_AVG_SEED_WEIGHT
from repro.obs.trace import monotonic_epoch_clock, worker_span

#: Worker-side span clock: wall-anchored monotonic, one anchor per
#: worker process, matching the recorder's default timeline.
_SPAN_CLOCK = monotonic_epoch_clock()

#: The positional signature :func:`_sweep_chain` calls its cell with
#: (the input order ``chain_dfg`` declares) and the outputs it reads.
_CHAIN_INPUTS = ("x_i", "x_j", "y_i", "y_j", "w", "f_j", "f_i", "j_idx", "parent")
_CHAIN_OUTPUTS = ("f", "parent")


def _row(kernel: str) -> EngineKernel:
    row = KERNELS.get(kernel)
    if row is None:
        raise JobValidationError(f"unknown kernel {kernel!r}")
    return row


#: Per-kernel consumer contract: the program outputs each sweep
#: actually reads.  DPMap compiles every DFG output (BSW and POA carry
#: traceback ``dir`` bits, for instance) but the score-only sweeps
#: never consume some of them -- the optimizer's
#: :class:`repro.opt.passes.PruneOutputsPass` uses this map to drop
#: those outputs and eliminate their compute cones.  A 2-D kernel's
#: entry is what its spec's ``recv``/``own``/``accumulators`` name;
#: Chain's is what :func:`_sweep_chain` reads.
CONSUMED_OUTPUTS: Dict[str, frozenset] = {
    name: frozenset(
        default_spec(name).consumed_outputs()
        if row.dimensions == 2
        else _CHAIN_OUTPUTS
    )
    for name, row in KERNELS.items()
}


def build_dfg(kernel: str) -> DataFlowGraph:
    """The objective-function DFG the engine compiles for *kernel*.

    Built afresh on every call: a cold compile pays for it.
    """
    if _row(kernel).dimensions == 2:
        build_spec, _ = WAVEFRONT_SPECS[kernel]
        return build_spec().dfg
    return chain_dfg()


def match_table_for(kernel: str) -> Optional[Callable[[int, int], int]]:
    """The MATCH_SCORE LUT backing *kernel*'s compiled program."""
    return default_spec(kernel).match_table if kernel in WAVEFRONT_SPECS else None


def payload_cells(kernel: str, payload: Dict[str, Any]) -> int:
    """DP-cell estimate for size binning and throughput accounting."""
    return _row(kernel).cells(payload)


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


# ----------------------------------------------------------------------
# kernel sweeps


def _sweep_wavefront(
    kernel: str, compiled: CompiledProgram, payload: Dict[str, Any], cell: CellFunction
) -> Dict[str, Any]:
    """Sweep a 2-D table as the kernel's spec declares it."""
    row = KERNELS[kernel]
    stream_key, static_key = row.keys
    static = row.codec.encode(payload[static_key])
    spec = default_spec(kernel)
    _, patch = WAVEFRONT_SPECS[kernel]
    if patch is not None:
        spec = patch(spec, len(static))
    sweep = wavefront_sweep(
        kernel, tuple(compiled.input_regs), tuple(compiled.output_regs)
    )
    stream = row.codec.encode(payload[stream_key])
    return sweep(cell, stream, static, spec.boundary_row)


def _sweep_chain(
    kernel: str, compiled: CompiledProgram, payload: Dict[str, Any], cell: CellFunction
) -> Dict[str, Any]:
    """Reordered fixed-point chaining (anchor j pushes to anchor i).

    The compiled DFG folds the average seed weight (19) into its gap
    constant, exactly like :func:`repro.dfg.kernels.chain_dfg`; payload
    anchors must carry that weight for the result to be bit-identical
    to :func:`repro.kernels.chain_fixed.chain_reordered_fixed` (the
    workload generators' default).
    """
    from repro.kernels.chain_fixed import SCALE

    anchors = KERNELS[kernel].codec.encode(payload["anchors"])
    for anchor in anchors:
        if anchor.w != DEFAULT_AVG_SEED_WEIGHT:
            raise JobValidationError(
                "the compiled chain program folds avg seed weight "
                f"{DEFAULT_AVG_SEED_WEIGHT} into its gap constant; anchor "
                f"weight {anchor.w} would diverge from the reference"
            )
    # Positional arguments in any other order would compute garbage
    # silently.
    inputs, outputs = tuple(compiled.input_regs), tuple(compiled.output_regs)
    if inputs != _CHAIN_INPUTS or not set(_CHAIN_OUTPUTS) <= set(outputs):
        raise JobValidationError(
            f"chain program signature {inputs} -> {outputs} does not fit "
            f"the chain sweep ({_CHAIN_INPUTS} -> {_CHAIN_OUTPUTS})"
        )
    f_slot, parent_slot = (outputs.index(name) for name in _CHAIN_OUTPUTS)
    n = int(payload.get("n", DEFAULT_CHAIN_WINDOW))
    count = len(anchors)
    scores = [anchor.w * SCALE for anchor in anchors]
    parents = [-1] * count
    for j in range(count):
        hi = min(count, j + 1 + n)
        x_j, y_j = anchors[j].x, anchors[j].y
        for i in range(j + 1, hi):
            anchor = anchors[i]
            out = cell(
                anchor.x, x_j, anchor.y, y_j, anchor.w,
                scores[j], scores[i], j, parents[i],
            )
            scores[i], parents[i] = out[f_slot], out[parent_slot]
    return {"scores": scores, "parents": parents}


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
    row = _row(kernel)
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
    sweep = _sweep_wavefront if row.dimensions == 2 else _sweep_chain
    value = row.finish(sweep(kernel, compiled, payload, cell))
    value["cells"] = row.cells(payload)
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
    return _row(kernel).reference(payload)


def results_match(
    kernel: str, actual: Dict[str, Any], expected: Dict[str, Any]
) -> bool:
    """True iff *actual* has every field of the reference answer
    *expected*, equal up to the kernel row's tolerance (exactly, for a
    kernel without a row)."""
    row = KERNELS.get(kernel)
    tolerance = row.tolerance if row is not None else {}
    return all(
        key in actual
        and (
            abs(actual[key] - want) <= tolerance[key]
            if key in tolerance
            else actual[key] == want
        )
        for key, want in expected.items()
    )


def matches_reference(kernel: str, value: Dict[str, Any], payload: Dict[str, Any]) -> bool:
    """True iff an engine result agrees with the reference kernel."""
    return results_match(kernel, value, reference_result(kernel, payload))
