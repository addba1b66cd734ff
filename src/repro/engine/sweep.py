"""Row-major table sweeps generated from a kernel's dependency stencil.

The simulator turns a :class:`~repro.dfg.stencils.Wavefront2DSpec`
into systolic control programs; this is the same declaration lowered
for the serving engine: one Python loop nest per (kernel, program
signature), outer loop over the streamed sequence, inner loop over the
static one, calling the cell it is handed once per table cell.  ``recv``
inputs read the cell to the left, ``delayed`` ones the diagonal,
``own`` ones the cell above; ``params`` are literals; row 0, column 0
and the corner take the spec's boundary values (row 0 at run time: it
may depend on the task, see ``pairhmm_boundary_for_length``).

Every cell argument is bound **by name**, in whatever order the
program's ``input_regs`` lists its inputs, and every state update
reads the output tuple at the index ``output_regs`` gives that name.
A program whose signature the stencil cannot serve -- an input with no
dataflow role, a consumed output it does not produce -- fails here,
once, before any cell runs.

The cell is called, never inlined: the specialized function, the
interpreter oracle and the sentinel-observing interpreter stay one
calling convention (:mod:`repro.engine.specialize`).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.dfg.graph import Opcode
from repro.dfg.stencils import Wavefront2DSpec, default_spec
from repro.engine.jobs import JobValidationError

#: ``sweep(cell, stream, static, row0)`` -> final state: the last row of
#: every output the recurrence keeps a row of, and every accumulator.
Sweep = Callable[..., Dict[str, Any]]

#: Accumulator fold op -> the comparison under which a value replaces it.
_FOLDS = {Opcode.MAX: ">", Opcode.MIN: "<"}


def sweep_source(
    spec: Wavefront2DSpec, inputs: Sequence[str], outputs: Sequence[str]
) -> str:
    """Source of *spec*'s sweep over a cell taking *inputs*, giving *outputs*."""
    recv_output = dict(spec.recv)
    consumed = spec.consumed_outputs()
    # Outputs the next row reads (above, or diagonally) keep a row;
    # ones only the next cell reads (BSW's F) keep a scalar.
    next_row = set(spec.own.values()) | {
        recv_output[source] for source in spec.delayed.values()
    }
    rowed = [out for out in consumed if out in next_row]
    scalars = [out for out in recv_output.values() if out not in rowed]

    bind = {spec.stream_input: "s", spec.static_input: "static[j - 1]"}
    bind.update((name, repr(value)) for name, value in spec.params.items())
    for name, out in spec.recv:
        bind[name] = f"{out}_curr[j - 1]" if out in rowed else f"{out}_left"
    for name, source in spec.delayed.items():
        bind[name] = f"{recv_output[source]}_prev[j - 1]"
    for name, out in spec.own.items():
        bind[name] = f"{out}_prev[j]"
    unbound = [name for name in inputs if name not in bind]
    missing = [out for out in consumed if out not in outputs]
    if unbound or missing:
        raise JobValidationError(
            f"{spec.name} program signature {tuple(inputs)} -> {tuple(outputs)} "
            f"does not fit the {spec.name} sweep: inputs without a dataflow "
            f"role {unbound}, consumed outputs not produced {missing}"
        )

    folded = {out for _, _, out in spec.accumulators}
    stores: List[Tuple[str, int]] = []
    for out in consumed:
        targets = [f"{out}_new"] if out in folded else []
        if out in rowed:
            targets.append(f"{out}_curr[j]")
        elif out in scalars:
            targets.append(f"{out}_left")
        stores.append((" = ".join(targets), outputs.index(out)))
    call = f"cell({', '.join(bind[name] for name in inputs)})"
    if len(stores) == 1:
        cell_lines = [f"{stores[0][0]} = {call}[{stores[0][1]}]"]
    else:
        cell_lines = [f"out = {call}"]
        cell_lines += [f"{targets} = out[{slot}]" for targets, slot in stores]
    cell_lines += [
        f"if {out}_new {_FOLDS[op]} acc_{acc}: acc_{acc} = {out}_new"
        for acc, op, out in spec.accumulators
    ]

    lines = ["def _sweep(cell, stream, static, row0):", "    cols = len(static) + 1"]
    lines += [
        f"    {out}_prev = [{spec.first_corner.get(out)!r}] + [row0[{out!r}]] * len(static)"
        for out in rowed
    ]
    lines += [
        f"    acc_{acc} = {spec.accumulator_init.get(acc, 0)!r}"
        for acc, _, _ in spec.accumulators
    ]
    lines.append("    for s in stream:")
    lines += [
        f"        {out}_curr = [{spec.first_column.get(out)!r}] * cols" for out in rowed
    ]
    lines += [f"        {out}_left = {spec.first_column[out]!r}" for out in scalars]
    lines.append("        for j in range(1, cols):")
    lines += ["            " + line for line in cell_lines]
    lines += [f"        {out}_prev = {out}_curr" for out in rowed]
    final = [f"{out!r}: {out}_prev" for out in rowed]
    final += [f"{acc!r}: acc_{acc}" for acc, _, _ in spec.accumulators]
    lines.append("    return {" + ", ".join(final) + "}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=64)
def wavefront_sweep(
    kernel: str, inputs: Tuple[str, ...], outputs: Tuple[str, ...]
) -> Sweep:
    """The compiled sweep of *kernel* for one program signature."""
    namespace: Dict[str, Any] = {}
    source = sweep_source(default_spec(kernel), inputs, outputs)
    exec(compile(source, f"<gendp-sweep:{kernel}>", "exec"), namespace)
    return namespace["_sweep"]
