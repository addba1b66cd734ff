"""Per-kernel functional execution of compiled cell programs.

A job's DP table is swept by the loop nest :mod:`repro.engine.sweep`
generates for its kernel: the four 2-D kernels' from their
:class:`~repro.dfg.stencils.Wavefront2DSpec` -- the declaration the
cycle-level simulator executes too -- and Chain's, the one 1-D
windowed kernel, from its positional roles.  Everything else the
engine knows about a kernel by name is its row of
:data:`repro.engine.kernels.KERNELS`; the functions below are lookups
into that table.  This is the functional model of the compute thread
-- bit-identical to the reference kernels (approximate only for
PairHMM's fixed-point log domain, like the hardware), but orders of
magnitude faster than the cycle-level simulator, which is what a
throughput-oriented serving layer needs.

There is one cell-execution path.  :func:`run_job` runs the program's
fused sweep (the DPMap-emitted VLIW bundles compiled once into
straight-line Python, :mod:`repro.engine.specialize`, and inlined in
the loop nest, memoized per process) on every backend -- inline, shm
workers and the shm degraded floor -- armed when the payload arms the
numerical sentinels.  The interpreter (:func:`_cell_executor`, the
:func:`repro.dpmap.codegen.execute_way` semantics the PE simulator
uses), called once per cell, is its oracle: it runs a job only when a
caller passes it or when the program cannot be fused.  The sweeps bind
a program's inputs and outputs by name, whatever their order.

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
from repro.dfg.stencils import WAVEFRONT_SPECS, boundary_row, default_spec
from repro.dpmap.codegen import execute_way
from repro.engine.cache import CompiledProgram
from repro.engine.jobs import JobValidationError
from repro.engine.kernels import (  # noqa: F401  (re-exported constant)
    DEFAULT_CHAIN_WINDOW,
    KERNELS,
    EngineKernel,
)
from repro.engine.specialize import CellFunction, MatchTable, observed_per_cell
from repro.engine.sweep import ARMED, SWEEPS, Sweep, wavefront_sweep
from repro.guard.sentinels import make_sentinel
from repro.kernels.chain import DEFAULT_AVG_SEED_WEIGHT
from repro.obs.trace import monotonic_epoch_clock, worker_span

#: Worker-side span clock: wall-anchored monotonic, one anchor per
#: worker process, matching the recorder's default timeline.
_SPAN_CLOCK = monotonic_epoch_clock()


def _row(kernel: str) -> EngineKernel:
    row = KERNELS.get(kernel)
    if row is None:
        raise JobValidationError(f"unknown kernel {kernel!r}")
    return row


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

    The oracle for the fused sweep, armed or not.  *observe* sees every
    intermediate ALU value of the sweep -- the numerical sentinels'
    hook, which the armed fused sweep's counts must equal.
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
# kernel sweeps: what each row's loop is handed


def _wavefront_operands(kernel: str, payload: Dict[str, Any]) -> Tuple[Any, ...]:
    """A 2-D table's stream, static sequence and row 0."""
    row = KERNELS[kernel]
    stream_key, static_key = row.keys
    static = row.codec.encode(payload[static_key])
    stream = row.codec.encode(payload[stream_key])
    return stream, static, boundary_row(kernel, len(static))


def _chain_operands(kernel: str, payload: Dict[str, Any]) -> Tuple[Any, ...]:
    """Chain's anchors and window.

    The compiled DFG folds the average seed weight (19) into its gap
    constant, exactly like :func:`repro.dfg.kernels.chain_dfg`; payload
    anchors must carry that weight for the result to be bit-identical
    to :func:`repro.kernels.chain_fixed.chain_reordered_fixed` (the
    workload generators' default).
    """
    anchors = KERNELS[kernel].codec.encode(payload["anchors"])
    for anchor in anchors:
        if anchor.w != DEFAULT_AVG_SEED_WEIGHT:
            raise JobValidationError(
                "the compiled chain program folds avg seed weight "
                f"{DEFAULT_AVG_SEED_WEIGHT} into its gap constant; anchor "
                f"weight {anchor.w} would diverge from the reference"
            )
    return anchors, int(payload.get("n", DEFAULT_CHAIN_WINDOW))


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


def fused_sweep(compiled: CompiledProgram, armed: bool = False) -> Optional[Sweep]:
    """*compiled*'s memoized fused sweep, *armed* or not (``None``: none)."""
    return (ARMED if armed else SWEEPS).get(compiled, match_table_for)


def run_job(
    kernel: str,
    compiled: CompiledProgram,
    payload: Dict[str, Any],
    cell: Optional[CellFunction] = None,
) -> Dict[str, Any]:
    """Execute one job with *compiled* and return its output dict.

    ``cell=None`` (every executor's call), or a specialized cell, runs
    the program's fused sweep, armed when the payload has
    ``_sentinels`` -- or, for a program that cannot be fused, the
    interpreter, observing when armed.  Any other *cell* -- the
    oracle, :func:`_cell_executor`'s closure -- is called per cell.
    The ``job:run`` span's ``path`` names what ran: ``band``, ``fused``,
    or the called cell's own ``path`` (``interpreted``).
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
    sentinel = fused = None
    if cell is None or getattr(cell, "path", None) == "specialized":
        armed = bool(payload.get("_sentinels"))
        sentinel = make_sentinel(kernel) if armed else None
        fused = fused_sweep(compiled, armed)
        if fused is None:
            observe = sentinel.observe if sentinel else None
            cell = _cell_executor(compiled, match_table_for(kernel), observe)
    operands = (_wavefront_operands if row.dimensions == 2 else _chain_operands)(
        kernel, payload
    )
    if fused is not None:
        path, final = "fused", fused(*operands)
    else:
        inputs, outputs = tuple(compiled.input_regs), tuple(compiled.output_regs)
        path = getattr(cell, "path", "called")
        final = wavefront_sweep(kernel, inputs, outputs)(cell, *operands)
    value = row.finish(final)
    value["cells"] = cells = row.cells(payload)
    if payload.get("_inject_corrupt"):
        value = corrupt_value(value)
    if sentinel is not None and isinstance(value, dict):
        if fused is not None:
            sentinel.merge(final)
            sentinel.values_observed = cells * observed_per_cell(compiled)
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
                path=final.get("path", path),  # Chain's band sweep says so
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
