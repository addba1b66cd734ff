"""The simulator's one cycle loop, generated once per machine shape.

Every way of advancing the simulator -- ``PE.step``, ``PEArray.step``
and ``run``, ``DPAxMachine.step`` and ``run`` -- is a call of one
generated function, ``cycles(units, max_cycles, active)``.  It is
compiled once per process for each *shape*: the PE count of every
array it drives (or a bare PE, for ``PE.step``) and whether each is
profiled.  The arrays themselves are arguments, never captured, so the
memoised function forms no reference cycle with them.

Within a cycle the order is fixed: for each array, its control thread,
then its PEs in chain order -- the bundle at ``compute_pc`` if a window
is open (else an idle cycle), then the control thread -- then the FIFO
depth sample when profiled.  What a run cannot change is bound to
locals once per call: each PE's decoded handlers and bundles, register
file, match table, statistics and profile tables, each array's handlers
and FIFO.  The counters only the loop writes (cycles, bundles, ALU ops,
idle cycles, stalls) are locals too, stored back when the call returns
or raises.  The profiled variant calls nothing the unprofiled one does
not: it bumps the profile's way and stall-reason tables in place, and
touches the timeline and the FIFO depth histogram only when a PE
switches between compute and idle or the depth changes; the open
segment and the current depth run are closed when the call returns.

A stalled control thread is not re-run.  Its handler returned a
:data:`~repro.dpax.decode.Wait` record; each later cycle tests that
record instead -- still empty, still full, window still open -- and,
while it holds, counts the stall (and its reason, when profiled, and
the source read a retry would repeat) exactly as a retry would.  Only when
the record no longer holds does the handler run again, and it may stall
on something else: a fenced ``mv r <- in`` waits for the window, then
for the port.  Nothing can unblock a thread behind the loop's back
within one call -- a queue's other end is another thread of the same
loop, and only a PE's own ``set`` opens its window -- and records are
dropped when the call returns, so ``step()`` and ``run()`` can be
mixed freely.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.dpax.decode import _compile

#: Per unit the loop drives: ``(PEs, profiled)`` for a PE array, with
#: PEs None for a bare PE.
Shape = Tuple[Tuple[Optional[int], bool], ...]


def _indent(lines: List[str], depth: int = 1) -> List[str]:
    return ["    " * depth + line for line in lines]


def _thread(
    unit: str, profiled: bool, window: bool, bind: List[str], store: List[str]
) -> List[str]:
    """The cycle of one control thread (its bindings and write-back go
    to *bind* and *store*): run the handler at ``pc`` unless its wait
    record, unpacked into ``w<unit>`` (the record), ``q``/``l``/``r``/
    ``c<unit>`` (its fields), still holds.  *Profiled*, a record's
    stalls go to its reason in ``stalls<unit>`` once, when it stops
    holding or the call ends (``s<unit>``: the stall count it started
    from).  Only a PE thread (*window*) can wait on its compute window."""
    w, q, limit, reason, counted, since = (f"{name}{unit}" for name in "wqlrcs")
    stalls = f"control_stalls{unit}"
    flush = [f"stalls{unit}[{reason}] += {stalls} - {since}"] if profiled else []
    call = [
        f"{w} = ops{unit}[{unit}.pc]({unit})",
        f"if {w} is not None:",
        f"    {q}, {limit}, {reason}, {counted} = {w}",
        *([f"    {since} = {stalls}"] if profiled else []),
        f"    {stalls} += 1",
    ]
    blocked = f"len({q}) == {limit}"
    if window:
        blocked = f"({blocked}) if {q} is not None else {unit}.compute_remaining > 0"
    bind.append(f"{w} = None")
    store += [f"if {w} is not None:", *_indent(flush)] if profiled else []
    return [
        f"if {w} is None:",
        *_indent(call),
        f"elif {blocked}:",
        f"    {stalls} += 1",
        f"    if {counted} is not None:",
        f"        {counted}.reads += 1",
        "else:",
        # A handler that raises leaves no record to flush again.
        *_indent(flush + ([f"{w} = None"] if profiled else []) + call),
    ]


#: The PEStats counters only the loop writes: held in locals during a
#: call and stored back when it returns or raises.
_COUNTERS = ("cycles", "compute_bundles", "alu_ops", "compute_idle", "control_stalls")


def _profile(name: str, bind: List[str], store: List[str]) -> Tuple[List[str], List[str]]:
    """The bundle and idle lines of a profiled PE.  Its timeline changes
    only on a switch between compute and idle: the open segment (or a
    scratch one) closes and, while there is room, the next one opens."""
    prof, segs, seg, busy, room = (f"{local}{name}" for local in "prof segs seg busy room".split())
    marked = f"compute_bundles{name} + compute_idle{name}"
    bind += [
        f"{prof} = {name}.profiler",
        f"ways{name} = {prof}.ways",
        f"stalls{name} = {prof}.stalls",
        f"{segs} = {prof}._segments",
        f"{room} = {prof}.timeline_room",
        # The open segment: the last one, if it ran up to this call.
        f"{seg} = {segs}[-1] if {segs} and {segs}[-1][2] == cycles{name} else [None, 0, 0]",
        f"{busy} = {seg}[0] and {seg}[0] == 'compute'",
        # Cycles that marked nothing: a bundle's that raised.
        f"lost{name} = cycles{name} - ({marked})",
    ]
    store.append(f"{seg}[2] = {marked} + lost{name}")

    def switch(state: str) -> List[str]:
        return [
            f"{busy} = {state == 'compute'}",
            f"{seg}[2] = cycles{name} - 1",
            f"if {room}:",
            f"    {room} -= 1",
            f"    {seg} = ['{state}', cycles{name}, cycles{name}]",
            f"    {segs}.append({seg})",
            "else:",
            f"    {seg} = [None, 0, 0]",
            f"    {prof}.timeline_truncated = True",
        ]

    bundle = [f"ways{name}[b[1]] += 1", f"if not {busy}:", *_indent(switch("compute"))]
    return bundle, [f"if {busy} is not False:", *_indent(switch("idle"))]


def _pe(name: str, profiled: bool, bind: List[str], store: List[str]) -> List[str]:
    """The cycle of one PE named *name* (bindings and write-back go to
    *bind* and *store*)."""
    bind += [
        f"ops{name} = {name}._ops",
        f"bundles{name} = {name}._bundles",
        f"rf{name} = {name}.rf",
        f"mt{name} = {name}.config.match_table",
        f"st{name} = {name}.stats",
    ]
    bind += [f"{counter}{name} = st{name}.{counter}" for counter in _COUNTERS]
    store += [f"st{name}.{counter} = {counter}{name}" for counter in _COUNTERS]
    bundle, idle = _profile(name, bind, store) if profiled else ([], [])
    thread = _thread(name, profiled, True, bind, store)
    return [
        f"if {name}.started:",
        f"    cycles{name} += 1",
        f"    if {name}.compute_remaining > 0:",
        f"        b = bundles{name}[{name}.compute_pc]",
        f"        b[0](rf{name}, mt{name})",
        f"        alu_ops{name} += b[2]",
        f"        {name}.compute_pc += 1",
        f"        {name}.compute_remaining -= 1",
        f"        compute_bundles{name} += 1",
        *_indent(bundle, 2),
        "    else:",
        f"        compute_idle{name} += 1",
        *_indent(idle, 2),
        f"    if not {name}.halted:",
        *_indent(thread, 2),
    ]


def _array_profile(unit: str, bind: List[str], store: List[str]) -> List[str]:
    """The end-of-cycle lines of a profiled array: its FIFO depth
    histogram, counted in runs of one depth.  Binds its stall-reason
    table too."""
    prof, depth, since, sampled = (f"{local}{unit}" for local in "prof depth since sampled".split())
    flush = [f"if {sampled} != {since}:", f"    depths{unit}[{depth}] += {sampled} - {since}"]
    bind += [
        f"{prof} = {unit}.profiler",
        f"stalls{unit} = {prof}.control_stalls",
        f"fifo{unit} = {unit}.fifo._queue",
        f"depths{unit} = {prof}.fifo_depths",
        f"{sampled} = {since} = {prof}.sampled_cycles",
        f"{depth} = len(fifo{unit})",
    ]
    store += flush + [f"{prof}.sampled_cycles = {sampled}"]
    return [
        f"if len(fifo{unit}) != {depth}:",
        *_indent(flush),
        f"    {depth}, {since} = len(fifo{unit}), {sampled}",
        f"{sampled} += 1",
    ]


def _source(shape: Shape) -> List[str]:
    """Body of the loop over units of *shape*."""
    bind = [
        f"{', '.join(f'u{j}' for j in range(len(shape)))}, = units",
        f"{', '.join(f'act{j}' for j in range(len(shape)))}, = active",
    ]
    cycle: List[str] = []
    store: List[str] = []
    done: List[str] = []
    for j, (pes, profiled) in enumerate(shape):
        unit = f"u{j}"
        sample: List[str] = []
        if pes is None:
            names = [f"p{j}_0"]
            bind.append(f"p{j}_0 = {unit}")
        else:
            names = [f"p{j}_{k}" for k in range(pes)]
            bind += [
                f"{', '.join(names)}, = {unit}.pes",
                f"ops{unit} = {unit}._ops",
                f"control_stalls{unit} = {unit}.control_stalls",
            ]
            store.append(f"{unit}.control_stalls = control_stalls{unit}")
            if profiled:
                sample = _array_profile(unit, bind, store)
            thread = _thread(unit, profiled, False, bind, store)
            cycle += [f"if not {unit}.halted:", *_indent(thread)]
        for name in names:
            cycle += _pe(name, profiled, bind, store)
        cycle += sample
        if pes is None:
            finished = f"{names[0]}.halted and {names[0]}.compute_remaining <= 0"
        else:
            finished = " and ".join(
                [f"{unit}.halted"]
                + [f"(not {n}.started or {n}.halted and {n}.compute_remaining <= 0)" for n in names]
            )
        done.append(f"(not act{j} or {finished})")
    body = bind + [
        "n = 0",
        "try:",
        "    for n in range(1, max_cycles + 1):",
        *_indent(cycle, 2),
        f"        if {' and '.join(done)}:",
        "            break",
        "finally:",
        *_indent(store),
        "return n",
    ]
    return body


@functools.lru_cache(maxsize=64)
def cycle_loop(shape: Shape) -> Callable[[Sequence[Any], int, Sequence[bool]], int]:
    """The compiled loop for *shape*: ``cycles(units, max_cycles,
    active)`` runs until every unit flagged in *active* is done (an
    array: its thread halted and every started PE done; a PE: halted
    with its window closed) or *max_cycles* have run, and returns the
    cycles it ran."""
    return _compile("cycles", "units, max_cycles, active", _source(shape))


def run(units: Sequence[Any], max_cycles: int, active: Sequence[bool]) -> int:
    """Advance *units* (PE arrays, or one bare PE) in lockstep; see
    :func:`cycle_loop`."""
    shape = tuple(
        (len(unit.pes) if hasattr(unit, "pes") else None, unit.profiler is not None)
        for unit in units
    )
    return cycle_loop(shape)(units, max_cycles, active)
