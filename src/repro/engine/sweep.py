"""Table sweeps generated from a kernel's dataflow roles.

The simulator turns a :class:`~repro.dfg.stencils.Wavefront2DSpec`
into systolic control programs; this is the same declaration lowered
for the serving engine: one Python loop nest per (kernel, program),
outer loop over the streamed sequence, inner loop over the static one.
``recv`` inputs read the cell to the left, ``delayed`` ones the
diagonal, ``own`` ones the cell above; ``params`` are literals; row 0,
column 0 and the corner take the spec's boundary values (row 0 at run
time: it may depend on the task, see
:func:`~repro.dfg.stencils.boundary_row`).  The inner loop walks
``zip(static, <row above>[1:], ...)``: the values above arrive with the
column, the left and diagonal ones are carried in locals, and each new
row is built by ``append``.  Chain, the one 1-D windowed kernel, has
its own loop shape (each anchor pushes to the *n* after it) with the
same parts; its roles are :data:`CHAIN_INPUTS`, bound positionally.

A loop nest comes in two forms with one body slot:

- **fused** (:func:`fuse_sweep`, what ``run_job`` runs): the slot holds
  the program's cell itself, :func:`repro.engine.specialize.cell_lines`
  with every input read as the local its role binds and only the cone
  of the outputs the sweep consumes emitted, each value read once
  nested in the expression that reads it.  No call per cell: the
  opcode templates of :mod:`repro.dfg.expressions` index
  ``_LOG_SUM_TABLE`` and ``_MATCH``, the match table tabulated over
  the DNA codes (and only where both operands are those codes, as
  rendered: a copied code is one, a computed one is refused).  The
  **armed** variant emits every way eagerly and returns the
  sentinels' hazard counts too.  :data:`SWEEPS` and :data:`ARMED`
  memoize them per process, by program content.
- **call** (:func:`sweep_source`, :func:`wavefront_sweep`): the slot
  calls the cell it is handed, the interpreter.

Chain's unarmed fused sweep has a third form beside it, the **band**
sweep (:func:`chain_band_source`): the cell split by
:mod:`repro.engine.band` into the cone that reads only anchors, run
as numpy over blocks of (anchor, window) lanes, and the carried cone,
folded over the pairs the gates keep.  A task of
:data:`BAND_MIN_LANES` lanes or more runs it (built at the first such
task, so numpy, the split and :mod:`repro.static` load only then); a
smaller one, one whose inputs fall outside what the split proved, or
a program the split refuses runs the scalar fused sweep.  The band
sweep's final state says ``'path': 'band'``.

Every input is bound **by name**, in whatever order the program's
``input_regs`` lists it.  A program whose signature the roles cannot
serve -- an input with no dataflow role, a consumed output it does not
produce -- fails here, once, before any cell runs.
"""

from __future__ import annotations

import functools
import re
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dfg.expressions import MATCH_LOOKUP, expression_namespace
from repro.dfg.graph import Opcode
from repro.dfg.stencils import WAVEFRONT_SPECS, Wavefront2DSpec, default_spec
from repro.engine.cache import CompiledProgram
from repro.engine.jobs import JobValidationError
from repro.engine.specialize import CellMemo, MatchTable, SpecializationError, cell_lines
from repro.guard.sentinels import SENTINEL_FIELDS, make_sentinel
from repro.seq.alphabet import DNA_ALPHABET

if TYPE_CHECKING:
    from repro.engine.band import BandCell

#: ``sweep([cell,] stream, static, row0)`` / ``sweep([cell,] anchors,
#: n)`` -> final state: the last row of every output the recurrence
#: keeps a row of and every accumulator; Chain's scores and parents.
Sweep = Callable[..., Dict[str, Any]]

#: ``render(bind, consumed)`` -> the body slot's lines and the local
#: (or subscript) each consumed output is read from afterwards.
Render = Callable[[Dict[str, str], Sequence[str]], Tuple[List[str], Dict[str, str]]]

#: Accumulator fold op -> the comparison under which a value replaces it.
_FOLDS = {Opcode.MAX: ">", Opcode.MIN: "<"}

#: Chain's positional signature (the input order ``chain_dfg``
#: declares), the outputs its sweep reads, and each input's local.
CHAIN_INPUTS = ("x_i", "x_j", "y_i", "y_j", "w", "f_j", "f_i", "j_idx", "parent")
CHAIN_OUTPUTS = ("f", "parent")
_CHAIN_LOCALS = {name: name for name in CHAIN_INPUTS} | {"j_idx": "j"}

#: Chain's roles in its band sweep (:mod:`repro.engine.band`): each
#: band input's anchor and point column, what the fold reads every
#: other input from, and the input each output overwrites.
_CHAIN_LANES = {
    "x_i": ("i", 0), "y_i": ("i", 1), "w": ("i", 2), "x_j": ("j", 0), "y_j": ("j", 1)
}
_CHAIN_CARRIED = {"f_j": "scores[j]", "f_i": "scores[i]", "j_idx": "j", "parent": "parents[i]"}
_CHAIN_STATE = {"f": "f_i", "parent": "parent"}

#: Band lanes (anchors x window) from which a Chain task runs its band
#: sweep: below, numpy's fixed cost per call outweighs what the lanes
#: save (see DESIGN.md, "Chain's band").
BAND_MIN_LANES = 1024
#: Lanes per block of the band: what bounds its arrays' memory.
BAND_BLOCK_LANES = 1 << 14


def _wavefront_source(
    spec: Wavefront2DSpec,
    inputs: Sequence[str],
    outputs: Sequence[str],
    render: Render,
    head: str,
    counters: Sequence[str] = (),
) -> str:
    recv_output = dict(spec.recv)
    consumed = spec.consumed_outputs()
    # Outputs the next row reads (above, or diagonally) keep a row.
    next_row = set(spec.own.values()) | {
        recv_output[source] for source in spec.delayed.values()
    }
    rowed = [out for out in consumed if out in next_row]
    lefts = [out for name, out in spec.recv if name in inputs]
    diagonals = [
        recv_output[source] for name, source in spec.delayed.items() if name in inputs
    ]

    bind = {spec.stream_input: "s", spec.static_input: "t"}
    bind.update((name, repr(value)) for name, value in spec.params.items())
    bind.update((name, f"{out}_left") for name, out in spec.recv)
    bind.update(
        (name, f"{recv_output[source]}_diag") for name, source in spec.delayed.items()
    )
    bind.update((name, f"{out}_up") for name, out in spec.own.items())
    unbound = [name for name in inputs if name not in bind]
    missing = [out for out in consumed if out not in outputs]
    if unbound or missing:
        raise JobValidationError(
            f"{spec.name} program signature {tuple(inputs)} -> {tuple(outputs)} "
            f"does not fit the {spec.name} sweep: inputs without a dataflow "
            f"role {unbound}, consumed outputs not produced {missing}"
        )
    body, values = render(bind, consumed)
    body += [f"{out}_curr.append({values[out]})" for out in rowed]
    body += [
        f"if {values[out]} {_FOLDS[op]} acc_{acc}: acc_{acc} = {values[out]}"
        for acc, op, out in spec.accumulators
    ]
    body += [f"{out}_left = {values[out]}" for out in lefts]
    body += [f"{out}_diag = {out}_up" for out in diagonals]

    columns = ["t"] + [f"{out}_up" for out in rowed]
    rows = ["static"] + [f"{out}_prev[1:]" for out in rowed]
    lines = [f"def _sweep({head}stream, static, row0):"]
    lines += [f"    {name} = 0" for name in counters]
    lines += [
        f"    {out}_prev = [{spec.first_corner.get(out)!r}] + [row0[{out!r}]] * len(static)"
        for out in rowed
    ]
    lines += [
        f"    acc_{acc} = {spec.accumulator_init.get(acc, 0)!r}"
        for acc, _, _ in spec.accumulators
    ]
    lines.append("    for s in stream:")
    lines += [f"        {out}_curr = [{spec.first_column.get(out)!r}]" for out in rowed]
    lines += [f"        {out}_left = {spec.first_column.get(out)!r}" for out in lefts]
    lines += [f"        {out}_diag = {out}_prev[0]" for out in diagonals]
    lines.append(
        f"        for {', '.join(columns)}{',' * (len(columns) == 1)} "
        f"in zip({', '.join(rows)}):"
    )
    lines += ["            " + line for line in body]
    lines += [f"        {out}_prev = {out}_curr" for out in rowed]
    final = [f"{out!r}: {out}_prev" for out in rowed]
    final += [f"{acc!r}: acc_{acc}" for acc, _, _ in spec.accumulators]
    final += [f"{name!r}: {name}" for name in counters]
    lines.append("    return {" + ", ".join(final) + "}")
    return "\n".join(lines) + "\n"


def _chain_source(
    inputs: Sequence[str],
    outputs: Sequence[str],
    render: Render,
    head: str,
    counters: Sequence[str] = (),
) -> str:
    """Reordered fixed-point chaining: anchor j pushes to the *n*
    anchors after it (the score of j is final when its turn comes)."""
    from repro.kernels.chain_fixed import SCALE

    # Positional arguments in any other order would compute garbage
    # silently.
    if tuple(inputs) != CHAIN_INPUTS or not set(CHAIN_OUTPUTS) <= set(outputs):
        raise JobValidationError(
            f"chain program signature {tuple(inputs)} -> {tuple(outputs)} does "
            f"not fit the chain sweep ({CHAIN_INPUTS} -> {CHAIN_OUTPUTS})"
        )
    body, values = render(_CHAIN_LOCALS, CHAIN_OUTPUTS)
    body += [f"scores[i] = {values['f']}", f"parents[i] = {values['parent']}"]
    lines = [
        f"def _sweep({head}anchors, n):",
        "    points = [(anchor.x, anchor.y, anchor.w) for anchor in anchors]",
        f"    scores = [w * {SCALE!r} for _, _, w in points]",
        "    parents = [-1] * len(points)",
        *(f"    {name} = 0" for name in counters),
        "    for j, (x_j, y_j, _) in enumerate(points):",
        "        f_j = scores[j]",
        "        hi = j + 1 + n",
        "        for i, (x_i, y_i, w), f_i, parent in zip(",
        "            range(j + 1, hi),",
        "            points[j + 1 : hi],",
        "            scores[j + 1 : hi],",
        "            parents[j + 1 : hi],",
        "        ):",
    ]
    lines += ["            " + line for line in body]
    final = "".join(f", {name!r}: {name}" for name in counters)
    lines.append("    return {'scores': scores, 'parents': parents%s}" % final)
    return "\n".join(lines) + "\n"


def _chain_floor() -> int:
    """The score floor the band's skip proof assumes: the contract's.
    Scores only grow from ``w * SCALE``, so it is the one bound of
    theirs that holds from pair to pair."""
    from repro.static.contracts import kernel_contract

    return kernel_contract("chain").inputs["f_i"].lo


def chain_band_cell(compiled: CompiledProgram) -> "BandCell":
    """*compiled*'s cell split for the band sweep (raises
    :class:`SpecializationError`, a ``ValueError``, for a program the
    split refuses).
    The split is imported here: a process without a band-sized task
    never loads it."""
    from repro.engine.band import split_cell
    from repro.static.intervals import Interval

    return split_cell(
        compiled,
        {name: role for name, (role, _) in _CHAIN_LANES.items()},
        _CHAIN_CARRIED,
        _CHAIN_STATE,
        {name: Interval(_chain_floor(), None) for name in ("f_j", "f_i")},
    )


def chain_band_source(compiled: CompiledProgram) -> str:
    """Source of *compiled*'s band sweep, ``_sweep(anchors, n)``: the
    band cone over blocks of (anchor, window) lanes in numpy, the fold
    over the lanes the gates keep.  A task outside what the split
    proved (inputs past its bound, a score below the contract's floor)
    or without a pair calls ``_scalar``, the fused sweep, instead.
    """
    from repro.kernels.chain_fixed import SCALE

    cell, floor = chain_band_cell(compiled), _chain_floor()
    columns = tuple(sorted({_CHAIN_LANES[name][1] for name in cell.leaves}))
    slices = {"i": "j0 + 1 : j1 + width", "j": "j0 : j1"}
    locals_ = ", ".join(["j", "i"] + [name for name, _ in cell.exports])
    lists = ", ".join(
        ["(r + j0).tolist()", "(ik + (j0 + 1)).tolist()"]
        + [f"{array}.tolist()" for _, array in cell.exports]
    )
    lines = [
        "def _sweep(anchors, n):",
        "    count = len(anchors)",
        "    width = n if n < count else count - 1",
        "    if width < 1:",
        "        return _scalar(anchors, n)",
        "    columns = list(zip(*[(anchor.x, anchor.y, anchor.w) for anchor in anchors]))",
        f"    scores = [w * {SCALE!r} for w in columns[2]]",
        f"    checked = [columns[k] for k in {columns!r}]",
        f"    if min(scores) < {floor!r} or not"
        f" {-cell.bound} <= min(map(min, checked)) <= max(map(max, checked)) <= {cell.bound}:",
        "        return _scalar(anchors, n)",
        "    import numpy as _np",
        # Each column padded with its first anchor's value: the last
        # rows' windows read past the end, on lanes ``real`` drops.
        *(
            f"    c{k} = _np.array(columns[{k}] + columns[{k}][:1] * width, _np.int64)"
            for k in columns
        ),
        "    parents = [-1] * count",
        f"    rows = max(1, {BAND_BLOCK_LANES} // width)",
        "    for j0 in range(0, count - 1, rows):",
        "        j1 = min(j0 + rows, count - 1)",
        *(
            f"        {name} = c{_CHAIN_LANES[name][1]}[{slices[_CHAIN_LANES[name][0]]}]"
            for name in sorted(cell.leaves)
        ),
        *("        " + line for line in cell.block),
        f"        lanes = _np.flatnonzero({cell.keep})" if cell.keep
        else "        lanes = _np.arange((j1 - j0) * width)",
        "        r = lanes // width",
        "        ik = lanes - r * (width - 1)",
        # The last rows' windows run past the last anchor.
        "        real = ik < count - 1 - j0",
        "        if not real.all():",
        "            lanes, r, ik = lanes[real], r[real], ik[real]",
        *("        " + line for line in cell.kept),
        f"        for {locals_} in zip({lists}):",
        *("            " + line for line in cell.fold),
        *(["            if " + cell.guard + ":"] if cell.guard else []),
        f"            {'    ' * bool(cell.guard)}scores[i] = {cell.values['f']}",
        f"            {'    ' * bool(cell.guard)}parents[i] = {cell.values['parent']}",
        "    return {'scores': scores, 'parents': parents, 'path': 'band'}",
    ]
    return "\n".join(lines) + "\n"


def band_sweep(compiled: CompiledProgram, scalar: Sweep) -> Sweep:
    """Compile *compiled*'s :func:`chain_band_source` around *scalar*,
    its fused sweep; *scalar* itself for a program the split refuses."""
    try:
        source = chain_band_source(compiled)
    except ValueError:  # refused, or malformed
        return scalar
    namespace = expression_namespace()
    namespace["_scalar"] = scalar
    exec(compile(source, f"<gendp-band:{compiled.kernel}>", "exec"), namespace)
    return namespace["_sweep"]


def _banded(compiled: CompiledProgram, scalar: Sweep) -> Sweep:
    """*scalar*, with tasks of :data:`BAND_MIN_LANES` lanes or more
    handed to the band sweep, built when the first one comes."""
    band: Optional[Sweep] = None

    def sweep(anchors, n):
        nonlocal band
        count = len(anchors)
        if count * min(n, count - 1) < BAND_MIN_LANES:
            return scalar(anchors, n)
        if band is None:
            band = band_sweep(compiled, scalar)
        return band(anchors, n)

    return sweep


def _source(kernel: str, *args: Any) -> str:
    """*kernel*'s loop nest: the rest of the arguments are its generator's."""
    if kernel in WAVEFRONT_SPECS:
        return _wavefront_source(default_spec(kernel), *args)
    return _chain_source(*args)


def _call(inputs: Sequence[str], outputs: Sequence[str]) -> Render:
    """The call form's body: one call of ``cell``, bound by name."""

    def render(bind, consumed):
        arguments = ", ".join(bind[name] for name in inputs)
        values = {out: f"out[{outputs.index(out)}]" for out in consumed}
        return [f"out = cell({arguments})"], values

    return render


def sweep_source(
    spec: Wavefront2DSpec, inputs: Sequence[str], outputs: Sequence[str]
) -> str:
    """Source of *spec*'s call-form sweep over a cell taking *inputs*,
    giving *outputs*."""
    return _wavefront_source(spec, inputs, outputs, _call(inputs, outputs), "cell, ")


@functools.lru_cache(maxsize=64)
def wavefront_sweep(
    kernel: str, inputs: Tuple[str, ...], outputs: Tuple[str, ...]
) -> Sweep:
    """The compiled call-form sweep of *kernel* for one program signature."""
    namespace: Dict[str, Any] = {}
    source = _source(kernel, inputs, outputs, _call(inputs, outputs), "cell, ")
    exec(compile(source, f"<gendp-sweep:{kernel}>", "exec"), namespace)
    return namespace["_sweep"]


def fused_source(
    compiled: CompiledProgram, has_match_table: bool, armed: bool = False
) -> str:
    """Source of *compiled*'s fused sweep (*armed*: its armed variant)."""
    regs = compiled.input_regs
    match = MATCH_LOOKUP if has_match_table else False
    sentinel = make_sentinel(compiled.kernel) if armed else None
    counters = SENTINEL_FIELDS[1:] if armed else ()

    def render(bind, consumed):
        bound = {regs[name]: bind[name] for name in regs}
        return cell_lines(compiled, match, bound, consumed, sentinel)

    inputs, outputs = tuple(regs), tuple(compiled.output_regs)
    return _source(compiled.kernel, inputs, outputs, render, "", counters)


def fuse_sweep(
    compiled: CompiledProgram,
    match_table: Optional[MatchTable] = None,
    armed: bool = False,
) -> Sweep:
    """Compile *compiled*'s :func:`fused_source`.

    ``_MATCH[a][b]`` is ``match_table(a, b)`` for every pair of DNA
    codes, the only values the DNA codec gives a table's operands, so
    a program whose MATCH_SCORE reads anything but the two sequence
    elements is refused (:class:`SpecializationError`).
    """
    source = fused_source(compiled, match_table is not None, armed)
    namespace = expression_namespace()
    if match_table is not None:
        lookups = re.findall(r"_MATCH\[[st]\]\[[st]\]", source)
        if source.count("_MATCH[") != len(lookups):
            raise SpecializationError(
                "MATCH_SCORE reads something besides the sequences"
            )
        codes = range(len(DNA_ALPHABET))
        namespace["_MATCH"] = tuple(
            tuple(match_table(a, b) for b in codes) for a in codes
        )
    exec(compile(source, f"<gendp-fused:{compiled.kernel}>", "exec"), namespace)
    if armed or compiled.kernel in WAVEFRONT_SPECS:
        return namespace["_sweep"]
    return _banded(compiled, namespace["_sweep"])


#: The process's fused sweeps, one per program content: a fresh engine
#: or a respawned worker never compiles one again.
SWEEPS = CellMemo(fuse_sweep)
#: Their armed variants.
ARMED = CellMemo(functools.partial(fuse_sweep, armed=True))
