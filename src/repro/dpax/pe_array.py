"""The DPAx PE array: four systolic PEs plus array-level control.

Figure 6's organization: an input data buffer feeds the first PE, PEs
forward through ``out``/``in`` ports, the last PE reaches the output
data buffer (or the next array, when arrays are concatenated into a
longer chain), and a FIFO carries the last PE's results back to the
first for the next row-group pass.

The array runs its own control thread (Section 4.4: "Each PE array runs
one thread of execution, controlling the data movement between data
buffers and PEs, as well as the start of the execution for each PE").
From the array thread's viewpoint, ``out`` pushes into the first PE and
``in`` pops the last PE's output.

The array thread runs on the same decoder as the PE thread
(:func:`repro.dpax.decode.decode_program` with the ``"array"`` address
map): :meth:`PEArray.load_array_control` decodes, and a cycle
(:meth:`PEArray.step`) calls the handler at ``pc``, then steps every
PE in chain order -- every started PE, every cycle -- then samples the
FIFO depth for the profiler.  :meth:`PEArray.run` is the one driver
loop the mappings and ``DPAxMachine.run`` share.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.dpax.decode import ControlHandler, decode_program
from repro.dpax.pe import PE, PEConfig, PEStats
from repro.dpax.storage import DataBuffer, Fifo, PortQueue
from repro.isa.control import ControlInstruction

#: PEs per array (Figure 4).
PES_PER_ARRAY = 4


class PEArray:
    """Four PEs, a FIFO, data buffers, and the array control thread."""

    def __init__(
        self,
        array_index: int = 0,
        pe_config: Optional[PEConfig] = None,
        pe_count: int = PES_PER_ARRAY,
        ibuf_size: int = 1 << 20,
        obuf_size: int = 1 << 20,
    ):
        if pe_count <= 0:
            raise ValueError("PE array needs at least one PE")
        self.array_index = array_index
        self.pes: List[PE] = [PE(index, pe_config) for index in range(pe_count)]
        self.fifo = Fifo()
        self.ibuf = DataBuffer(ibuf_size)
        self.obuf = DataBuffer(obuf_size)
        #: Where the last PE's ``out`` lands when not chained onward.
        self.tail_queue = PortQueue(capacity=64)

        # Default intra-array wiring; the machine rewires chain
        # boundaries for concatenated configurations.
        for position, pe in enumerate(self.pes[:-1]):
            pe.out_target = self.pes[position + 1].in_queue
        self.pes[-1].out_target = self.tail_queue
        self.pes[0].fifo_read = self.fifo
        self.pes[-1].fifo_write = self.fifo

        self.control: List[ControlInstruction] = []
        #: Decoded handlers, one per control PC plus the final halt.
        self._ops: List[ControlHandler] = decode_program([], "array")
        self.aregs = [0] * 16
        self.pc = 0
        self.halted = False
        self.control_executed = 0
        self.control_stalls = 0
        #: Optional :class:`repro.obs.profile.ArrayProfile`; see
        #: :meth:`enable_profiling`.
        self.profiler = None

    # ------------------------------------------------------------------

    def load_array_control(self, control: List[ControlInstruction]) -> None:
        """Preload and decode the array control stream (validates it)."""
        self._ops = decode_program(control, "array")
        self.control = list(control)
        self.pc = 0
        self.halted = False

    def load_pe(self, position: int, control, compute) -> None:
        self.pes[position].load(control, compute)

    @property
    def done(self) -> bool:
        return self.halted and all(pe.done or not pe.started for pe in self.pes)

    def step(self) -> None:
        """One cycle: array control first, then each PE in chain order."""
        if not self.halted:
            self._ops[self.pc](self)
        for pe in self.pes:
            pe.step()
        if self.profiler is not None:
            self.profiler.sample(len(self.fifo))

    def run(self, max_cycles: int) -> Tuple[int, bool]:
        """Step until :attr:`done` or *max_cycles*: ``(cycles, finished)``.

        The cap guards against deadlocked programs; hitting it is
        reported, not raised, so callers can assert on it.
        """
        cycles = 0
        while cycles < max_cycles:
            self.step()
            cycles += 1
            if self.done:
                break
        return cycles, self.done

    def enable_profiling(self, timeline: bool = True, max_timeline: int = 200_000):
        """Attach per-PE cycle profiling; returns the ArrayProfile.

        Idempotent: a second call returns the already-attached profile
        so counters keep accumulating across runs.
        """
        if self.profiler is None:
            from repro.obs.profile import ArrayProfile

            profile = ArrayProfile(
                self.array_index,
                len(self.pes),
                timeline=timeline,
                max_timeline=max_timeline,
            )
            self.profiler = profile
            for pe, pe_profile in zip(self.pes, profile.pes):
                pe.profiler = pe_profile
        return self.profiler

    def merged_pe_stats(self) -> PEStats:
        stats = PEStats()
        for pe in self.pes:
            stats = stats.merge(pe.stats)
        return stats

    def _stall(self, reason: str) -> None:
        """A decoded array control op could not complete this cycle."""
        self.control_stalls += 1
        if self.profiler is not None:
            self.profiler.control_stall(reason)
