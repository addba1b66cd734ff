"""The generated cycle loop against an oracle that retries every stall.

:mod:`repro.dpax.loop` does not re-run a stalled thread: it tests the
thread's wait record and replays the retry's side effects.  The oracle
below is the loop as it would be without that: every started thread's
handler runs every cycle, through the same decoded handlers and bundles.
Seeded random two-array programs -- port, FIFO, RF and SPM moves,
``set`` windows, bounded loops, concatenated or not, profiled or not --
must leave every counter, storage image, queue and profile identical.
"""

import ast
import random

import pytest

from repro.dfg.graph import Opcode
from repro.dpax import loop
from repro.dpax.machine import DPAxMachine
from repro.dpax.pe_array import PEArray
from repro.dpax.storage import StorageError
from repro.obs import profile as profiling
from repro.isa.compute import CUInstruction, Imm, Reg, SlotOp, VLIWInstruction
from repro.isa.control import (
    ControlOp,
    FIFO_PORT,
    IN_PORT,
    OUT_PORT,
    addi,
    areg,
    branch,
    halt,
    ibuf,
    li,
    mv,
    obuf,
    reg,
    set_unit,
    spm,
)
from tests.dpax.golden_stats import _array_state

SEEDS = range(24)
CAP = 400


def oracle_run(arrays, max_cycles, active):
    """Every handler, every cycle: the loop's reference semantics.  It
    does its own profile accounting, one cycle at a time, and writes it
    straight into the profiles' fields."""

    def thread(unit, counters, reasons):
        wait = unit._ops[unit.pc](unit)
        if wait is not None:
            counters.control_stalls += 1
            if reasons is not None:
                reasons[wait[2]] += 1

    def mark(profile, state, cycle):
        segments = profile._segments
        if profile.timeline_truncated:
            return
        if segments and segments[-1][0] == state and segments[-1][2] == cycle - 1:
            segments[-1][2] = cycle
        elif len(segments) >= profiling.MAX_TIMELINE:
            profile.timeline_truncated = True
        else:
            segments.append([state, cycle, cycle])

    cycles = 0
    while cycles < max_cycles:
        for array in arrays:
            profile = array.profiler
            if not array.halted:
                thread(array, array, profile and profile.control_stalls)
            for pe in array.pes:
                if not pe.started:
                    continue
                stats, pe_profile = pe.stats, pe.profiler
                stats.cycles += 1
                if pe.compute_remaining > 0:
                    run, ways, alu_ops = pe._bundles[pe.compute_pc]
                    run(pe.rf, pe.config.match_table)
                    stats.alu_ops += alu_ops
                    pe.compute_pc += 1
                    pe.compute_remaining -= 1
                    stats.compute_bundles += 1
                    if pe_profile is not None:
                        pe_profile.ways[ways] += 1
                        mark(pe_profile, "compute", stats.cycles)
                else:
                    stats.compute_idle += 1
                    if pe_profile is not None:
                        mark(pe_profile, "idle", stats.cycles)
                if not pe.halted:
                    thread(pe, stats, pe_profile and pe_profile.stalls)
            if profile is not None:
                profile.fifo_depths[len(array.fifo)] += 1
                profile.sampled_cycles += 1
        cycles += 1
        if all(array.done for array, on in zip(arrays, active) if on):
            break
    return cycles


# ----------------------------------------------------------------------
# seeded random programs


def _bundle(rng):
    def way():
        opcode = rng.choice([Opcode.ADD, Opcode.SUB, Opcode.MAX, Opcode.MIN])
        operands = (Reg(rng.randrange(8)), rng.choice([Reg(rng.randrange(8)), Imm(3)]))
        return CUInstruction(
            kind="tree", dest=Reg(rng.randrange(8)), right=SlotOp(opcode, operands)
        )

    return VLIWInstruction(cu0=way(), cu1=way() if rng.random() < 0.5 else None)


def _loop(body, count, counter=1):
    """*body* run *count* times (a<counter> counts to a<counter + 1>)."""
    return (
        [li(areg(counter), 0), li(areg(counter + 1), count)]
        + body
        + [addi(counter, counter, 1), branch(ControlOp.BLT, counter, counter + 1, -len(body) - 1)]
    )


def _insert(rng, body, instructions):
    for instruction in instructions:
        body.insert(rng.randint(0, len(body)), instruction)


def _pe_program(rng, pe, rounds, fifo, compute_length, fault):
    """Per round: one word in and one out, so the chain drains; a FIFO
    pop or push where this PE holds that end; RF/SPM traffic and
    ``set`` windows.  *fault* ``"spm"`` walks ``s[a3]`` off the SPM;
    ``"starve"`` waits for a word that never comes."""

    def r():
        return reg(rng.randrange(8))

    def window():
        target = rng.randrange(compute_length)
        return set_unit(target, rng.randint(1, compute_length - target))

    body = rng.choice([
        lambda: [mv(OUT_PORT, IN_PORT)],
        lambda: [mv(r(), IN_PORT), mv(OUT_PORT, r())],
        lambda: [mv(spm(3, indirect=True), IN_PORT), mv(OUT_PORT, spm(rng.randrange(4)))],
        lambda: [mv(areg(8), IN_PORT), li(OUT_PORT, rng.randrange(100))],
    ])()
    if rng.random() < 0.3:
        body.reverse()  # emit before consuming
    if fifo and pe.fifo_read is not None:
        _insert(rng, body, [mv(r(), FIFO_PORT)])
    if fifo and pe.fifo_write is not None:
        _insert(rng, body, [mv(FIFO_PORT, r())])
    extras = [
        lambda: mv(r(), r()),
        lambda: mv(spm(rng.randrange(4)), r()),
        lambda: mv(r(), spm(3, indirect=True)),
        lambda: li(r(), rng.randrange(-50, 50)),
        lambda: addi(3, 3, 1),
        window,
        window,
    ]
    _insert(rng, body, [rng.choice(extras)() for _ in range(rng.randint(1, 4))])
    if fault == "spm":
        _insert(rng, body, [addi(3, 3, 900), mv(r(), spm(3, indirect=True))])
    tail = [mv(r(), IN_PORT)] if fault == "starve" else []
    return [li(areg(3), rng.randrange(4))] + _loop(body, rounds) + tail + [halt()]


def _array_program(rng, pes, rounds, feeds, drains, primes):
    """Start every PE (some inside the loop) and prime the FIFO; push
    one word per round into the chain and/or pop one off its tail,
    interleaved or (half the time) as a burst, then a drain."""
    starts = [set_unit(index, 1) for index in rng.sample(range(pes), pes)]
    split = rng.randint(0, pes)
    push = [
        rng.choice([mv(OUT_PORT, ibuf(0, indirect=True)), li(OUT_PORT, rng.randrange(100))]),
        addi(0, 0, 1),
    ] if feeds else []
    pop = [mv(obuf(4, indirect=True), IN_PORT), addi(4, 4, 1)] if drains else []
    prologue = [li(FIFO_PORT, rng.randrange(100)) for _ in range(primes)] + starts[:split]
    if rng.random() < 0.5:
        loops = _loop(starts[split:] + push + pop, rounds)
    else:
        loops = _loop(starts[split:] + push, rounds) + _loop(pop, rounds, counter=5)
    return prologue + loops + [halt()]


def build(seed, profiled):
    """A two-array machine loaded with seed *seed*'s programs: two
    independent arrays, or (every third seed) one concatenated chain."""
    rng = random.Random(seed)
    machine = DPAxMachine(integer_arrays=2, fp_arrays=0)
    chained = seed % 3 == 0
    if chained:
        machine.concatenate([0, 1])
    if profiled:
        machine.enable_profiling()
    rounds = rng.randint(2, 12)
    fifo = rng.random() < 0.6
    fault = {5: "spm", 7: "starve"}.get(seed % 8)
    for index, array in enumerate(machine.arrays):
        array.fifo.capacity = rng.choice([2, 8])
        array.ibuf.preload([rng.randrange(-99, 99) for _ in range(64)])
        for position, pe in enumerate(array.pes):
            pe.in_queue.capacity = rng.choice([1, 2, 16])
            compute = [_bundle(rng) for _ in range(rng.randint(1, 4))]
            program = _pe_program(
                rng, pe, rounds, fifo, len(compute), fault if index == position == 1 else None
            )
            array.load_pe(position, program, compute)
        head, tail = index == 0 or not chained, index == 1 or not chained
        primes = rng.randint(1, 2) if fifo and head else 0
        array.load_array_control(
            _array_program(rng, len(array.pes), rounds, head, tail, primes)
        )
    return machine


def state(arrays):
    """Everything observable: golden_stats' capture plus queue contents."""
    return [
        dict(
            _array_state(array),
            queues=[list(q._queue) for q in [array.fifo, array.tail_queue] + [p.in_queue for p in array.pes]],
        )
        for array in arrays
    ]


def outcome(drive):
    try:
        return drive(), None
    except StorageError as error:
        return None, str(error)


# ----------------------------------------------------------------------


@pytest.mark.parametrize("profiled", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_run_matches_the_oracle(seed, profiled):
    fast, slow = build(seed, profiled), build(seed, profiled)
    loaded = [True] * len(slow.arrays)
    got = outcome(lambda: fast.run(CAP).cycles)
    want = outcome(lambda: oracle_run(slow.arrays, CAP, loaded))
    assert got == want
    assert state(fast.arrays) == state(slow.arrays)


def test_random_programs_reach_every_wait_kind():
    reasons, unblocked = set(), 0
    for seed in SEEDS:
        machine = build(seed, profiled=True)
        outcome(lambda: machine.run(CAP))
        reasons |= set(machine.enable_profiling().report().stall_breakdown())
        unblocked += sum(p.stats.control_executed for a in machine.arrays for p in a.pes)
    assert reasons >= {
        "compute_busy", "compute_fence", "in_empty", "fifo_empty", "out_full", "fifo_full",
    }
    assert unblocked > 0


# ----------------------------------------------------------------------
# one regression test per wait kind


def _pair(setup):
    """Two identical arrays from *setup*: one for run(), one for the oracle."""
    arrays = []
    for _ in range(2):
        array = PEArray()
        array.enable_profiling()
        setup(array)
        arrays.append(array)
    return arrays


def _agree(setup, cycles):
    fast, slow = _pair(setup)
    assert fast.run(cycles)[0] == oracle_run([slow], cycles, [True])
    assert state([fast]) == state([slow])
    return fast


def test_full_queue_stall_counts_the_source_read():
    # The array thread streams ibuf into a PE that takes one word:
    # every cycle blocked on the full port re-reads ibuf[a0].
    def setup(array):
        array.ibuf.preload(list(range(10)))
        array.pes[0].in_queue.capacity = 1
        array.load_pe(0, [mv(reg(0), IN_PORT), halt()], [])
        array.load_array_control(
            [set_unit(0, 1), mv(OUT_PORT, ibuf(0, indirect=True)), addi(0, 0, 1),
             mv(OUT_PORT, ibuf(0, indirect=True)), addi(0, 0, 1),
             mv(OUT_PORT, ibuf(0, indirect=True)), halt()]
        )

    array = _agree(setup, 30)
    stalls = array.profiler.control_stalls["out_full"]
    assert stalls > 20
    assert array.ibuf.reads == 2 + stalls  # two words delivered


def test_fence_stall_turns_into_in_empty_stall_when_the_window_closes():
    bundle = _bundle(random.Random(0))

    def setup(array):
        array.load_pe(0, [set_unit(0, 3), mv(reg(1), IN_PORT), halt()], [bundle] * 3)
        array.load_array_control([set_unit(0, 1), halt()])

    array = _agree(setup, 12)
    stalls = array.profiler.pes[0].stalls
    assert stalls["compute_fence"] == 2
    assert stalls["in_empty"] == 12 - 3  # after the set and the two fenced cycles


def test_port_to_port_mv_unpops_on_every_stalled_cycle():
    # PE0 forwards in -> out into PE1, which never pops: once PE1's
    # port is full, every cycle pops PE0's head word and hands it back.
    def setup(array):
        array.pes[1].in_queue.capacity = 2
        array.load_pe(0, [mv(OUT_PORT, IN_PORT)] * 5 + [halt()], [])
        array.load_array_control([set_unit(0, 1)] + [li(OUT_PORT, k) for k in range(5)] + [halt()])

    array = _agree(setup, 20)
    head = array.pes[0].in_queue
    assert list(head._queue) == [2, 3, 4]
    assert (head.pushes, head.pops) == (5, 2)
    assert array.profiler.pes[0].stalls["out_full"] > 10


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_truncated_timelines_match_the_oracle(seed, monkeypatch):
    monkeypatch.setattr(profiling, "MAX_TIMELINE", 3)
    fast, slow = build(seed, profiled=True), build(seed, profiled=True)
    assert fast.run(CAP).cycles == oracle_run(slow.arrays, CAP, [True] * len(slow.arrays))
    assert any(pe.timeline_truncated for array in fast.arrays for pe in array.profiler.pes)
    assert state(fast.arrays) == state(slow.arrays)


@pytest.mark.parametrize("seed", [1, 4, 7])
def test_mixing_step_and_run_matches_run_alone(seed):
    alone, mixed = build(seed, profiled=True), build(seed, profiled=True)
    want = outcome(lambda: alone.run(CAP).cycles)

    def drive():
        for _ in range(17):
            mixed.step()
        for array in mixed.arrays:  # one more machine cycle, array by array
            array.step()
        return 18 + mixed.run(CAP - 18).cycles

    assert want[1] is not None or want[0] > 18
    got = outcome(drive)
    assert got == want
    assert state(mixed.arrays) == state(alone.arrays)


# ----------------------------------------------------------------------


class TestHookFreeProfiledLoop:
    """The profiled loop writes the profile; it calls nothing for it.  A
    cycle calls the control handlers, the bundle runners and ``len``,
    and appends a timeline segment only when a PE switches between
    compute and idle."""

    @pytest.mark.parametrize(
        "shape", [((None, True),), ((4, True),), ((2, False), (4, True))], ids=str
    )
    def test_cycle_body_calls(self, shape):
        source = "def cycles(units, max_cycles, active):\n    " + "\n    ".join(loop._source(shape))
        body = next(node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.For)).body
        nodes = [node for statement in body for node in ast.walk(statement)]
        switches = {
            id(node)
            for switch in nodes
            if isinstance(switch, ast.If)
            and ast.unparse(switch.test).startswith(("not busy", "busy"))
            for node in ast.walk(switch)
        }
        appends = 0
        for call in (node for node in nodes if isinstance(node, ast.Call)):
            callee = ast.unparse(call.func)
            if callee.endswith(".append") and callee.startswith("segs"):
                assert id(call) in switches, ast.unparse(call)
                appends += 1
                continue
            handler = isinstance(call.func, ast.Subscript) and callee.startswith("ops")
            assert handler or callee in ("b[0]", "len"), ast.unparse(call)
        assert appends == 2 * sum(pes or 1 for pes, profiled in shape if profiled)
