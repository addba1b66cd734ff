"""The DPAx processing element.

Each PE runs two decoupled threads (Section 4.2):

- the **control thread** executes Table 3 instructions: address
  arithmetic, moves between RF / SPM / ports / FIFO, branches, and
  ``set`` to launch compute work;
- the **compute thread** executes 2-way VLIW bundles against the
  register file, one bundle per cycle.

The two synchronize conservatively: any control access to the RF or SPM
stalls while the compute thread is busy (a full scoreboard would track
individual registers; the conservative fence keeps programs obviously
correct at a small cycle cost, which the perf model notes).  Port moves
(``in``/``out``/``fifo``) proceed concurrently with compute -- the
decoupled-access-execute overlap the paper borrows from [65].

How a cycle executes.  :meth:`PE.load` is the decode step
(:mod:`repro.dpax.decode`): every control instruction becomes a
handler and every bundle one straight-line function, so
:meth:`PE.step` only calls them -- the decoded bundle at
``compute_pc`` if the compute thread is busy, then the decoded control
op at ``pc``.  Resolved at load: opcodes, ``Loc`` spaces and literal
indices, which accesses the fence guards, stall reasons, register
bounds of bundles, and from :class:`PEConfig` the datapath width, the
SIMD lane split, the RF size and *whether* a match table is bound.
Read at run time, because the array, ``DPAxMachine.concatenate`` and
the mappings rewire them after construction: ``out_target``,
``fifo_read``/``fifo_write``, queue capacities, the match table
itself, and of course address registers behind indirect indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.dpax.decode import (
    ControlHandler,
    DecodedBundle,
    decode_bundle,
    decode_program,
    wrap32,
)
from repro.dpax.storage import Fifo, PortQueue, RegisterFile, Scratchpad
from repro.isa.compute import VLIWInstruction
from repro.isa.control import ControlInstruction


#: Integer datapath rails (32-bit two's complement) and the 4-lane
#: SIMD sub-word rails -- shared with the guard's numerical sentinels
#: (:mod:`repro.guard.sentinels`) so overflow detection matches the
#: arithmetic that would actually wrap/saturate in hardware.
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1
LANE8_MIN = -(1 << 7)
LANE8_MAX = (1 << 7) - 1

#: Register-file entries per PE (Table 4); the default bound programs
#: are checked against when no explicit :class:`PEConfig` is in play.
DEFAULT_RF_SIZE = 64


def sat_lane(value: int, bits: int) -> int:
    """Saturate to a signed *bits*-wide SIMD lane.

    BWA-MEM2's narrow kernels and DPAx's SIMD modes saturate rather
    than wrap, so lane overflows clamp at the int rails.
    """
    low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return max(low, min(high, value))


def sat8(value: int) -> int:
    """Saturate to signed 8 bits (the 4-lane arithmetic)."""
    return sat_lane(value, 8)


def pack_lanes_n(lanes, lane_count: int) -> int:
    """Pack signed lane values into one 32-bit word.

    ``lane_count`` is 4 (8-bit lanes) or 2 (16-bit lanes) -- the two
    SIMD splits of Sections 4.2 and 7.6.4.
    """
    if lane_count not in (2, 4):
        raise ValueError("SIMD words split into 2 or 4 lanes")
    if len(lanes) != lane_count:
        raise ValueError(f"expected {lane_count} lane values")
    bits = 32 // lane_count
    low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    mask = (1 << bits) - 1
    word = 0
    for index, lane in enumerate(lanes):
        if not low <= lane <= high:
            raise ValueError(f"lane value {lane} outside int{bits}")
        word |= (lane & mask) << (bits * index)
    return word


def unpack_lanes_n(word: int, lane_count: int):
    """Unpack a 32-bit word into signed lane values."""
    if lane_count not in (2, 4):
        raise ValueError("SIMD words split into 2 or 4 lanes")
    bits = 32 // lane_count
    mask = (1 << bits) - 1
    sign = 1 << (bits - 1)
    word &= 0xFFFFFFFF
    lanes = []
    for index in range(lane_count):
        lane = (word >> (bits * index)) & mask
        lanes.append(lane - (1 << bits) if lane >= sign else lane)
    return lanes


def pack_lanes(lanes) -> int:
    """Pack four signed 8-bit lane values into one 32-bit word."""
    return pack_lanes_n(lanes, 4)


def unpack_lanes(word: int):
    """Unpack a 32-bit word into four signed 8-bit lane values."""
    return unpack_lanes_n(word, 4)


@dataclass
class PEConfig:
    """Static PE parameters."""

    rf_size: int = DEFAULT_RF_SIZE
    spm_size: int = 2048
    address_registers: int = 16
    in_capacity: int = 16
    #: "int" wraps results to 32 bits; "fp" keeps Python floats (the FP
    #: PE array of Figure 4).
    datapath: str = "int"
    #: Backing function for the MATCH_SCORE LUT operation.
    match_table: Optional[Callable[[int, int], int]] = None
    #: 1 = scalar 32-bit mode; 4 = four 8-bit saturating SIMD lanes
    #: (Section 4.2's DLP mode, used by BSW); 2 = two 16-bit lanes
    #: (Section 7.6.4's 16-bit operation mode).  Compute operations act
    #: lane-wise; immediates broadcast to every lane; control moves
    #: carry packed words transparently.
    simd_lanes: int = 1


@dataclass
class PEStats:
    """Per-PE activity counters."""

    cycles: int = 0
    control_executed: int = 0
    compute_bundles: int = 0
    alu_ops: int = 0
    control_stalls: int = 0
    compute_idle: int = 0

    def merge(self, other: "PEStats") -> "PEStats":
        return PEStats(
            cycles=self.cycles + other.cycles,
            control_executed=self.control_executed + other.control_executed,
            compute_bundles=self.compute_bundles + other.compute_bundles,
            alu_ops=self.alu_ops + other.alu_ops,
            control_stalls=self.control_stalls + other.control_stalls,
            compute_idle=self.compute_idle + other.compute_idle,
        )


class PE:
    """One processing element in a systolic PE array."""

    def __init__(self, pe_index: int, config: Optional[PEConfig] = None):
        self.pe_index = pe_index
        self.config = config or PEConfig()
        self.rf = RegisterFile(self.config.rf_size)
        self.spm = Scratchpad(self.config.spm_size)
        self.aregs = [0] * self.config.address_registers
        self.in_queue = PortQueue(self.config.in_capacity)
        #: Downstream queue this PE's ``out`` pushes into (the next PE's
        #: ``in_queue`` or the array's tail queue); wired by the array.
        self.out_target: Optional[PortQueue] = None
        #: FIFO endpoints; wired by the array (first PE reads, the
        #: chain-tail PE writes).
        self.fifo_read: Optional[Fifo] = None
        self.fifo_write: Optional[Fifo] = None

        self.control: List[ControlInstruction] = []
        self.compute: List[VLIWInstruction] = []
        #: The decoded streams ``step`` runs: one handler per control
        #: PC (plus the end-of-program halt), one entry per bundle.
        self._ops: List[ControlHandler] = decode_program([], "pe")
        self._bundles: List[DecodedBundle] = []
        self.pc = 0
        self.compute_pc = 0
        self.compute_remaining = 0
        self.started = False
        self.halted = False
        self.stats = PEStats()
        #: Optional :class:`repro.obs.profile.PEProfile`; attached by
        #: ``PEArray.enable_profiling()``.  When None (the default)
        #: the simulator pays one attribute check per cycle.
        self.profiler = None

    # ------------------------------------------------------------------
    # program loading

    def load(self, control: List[ControlInstruction], compute: List[VLIWInstruction]) -> None:
        """Preload and decode both instruction streams (Section 4.4).

        Decoding validates every instruction (``ValueError`` on a
        malformed one, before any state changes) and resolves what the
        configuration fixes -- datapath width, SIMD lane split, RF
        size, whether a match table is bound; see
        :mod:`repro.dpax.decode`.
        """
        config = self.config
        wraps = config.datapath == "int"
        ops = decode_program(control, "pe", wraps)
        bundles = [
            decode_bundle(
                bundle,
                config.rf_size,
                wraps,
                config.simd_lanes,
                config.match_table is not None,
            )
            for bundle in compute
        ]
        self.control = list(control)
        self.compute = list(compute)
        self._ops = ops
        self._bundles = bundles
        self.pc = 0
        self.compute_pc = 0
        self.compute_remaining = 0
        self.halted = False

    @property
    def compute_busy(self) -> bool:
        return self.compute_remaining > 0

    @property
    def done(self) -> bool:
        return self.halted and not self.compute_busy

    # ------------------------------------------------------------------
    # cycle execution

    def step(self) -> None:
        """Advance one cycle: compute thread first, then control."""
        if not self.started:
            return
        stats = self.stats
        stats.cycles += 1
        if self.compute_remaining > 0:
            run, ways, alu_ops = self._bundles[self.compute_pc]
            run(self.rf, self.config.match_table)
            stats.alu_ops += alu_ops
            self.compute_pc += 1
            self.compute_remaining -= 1
            stats.compute_bundles += 1
            if self.profiler is not None:
                self.profiler.bundle(stats.cycles, ways, alu_ops)
        else:
            stats.compute_idle += 1
            if self.profiler is not None:
                self.profiler.idle(stats.cycles)
        if not self.halted:
            self._ops[self.pc](self)

    def _stall(self, reason: str) -> None:
        """A decoded control op could not complete this cycle."""
        self.stats.control_stalls += 1
        if self.profiler is not None:
            self.profiler.stall(reason)
