"""The DPAx tile and simulation driver.

Figure 4's organization: 16 integer PE arrays (4 PEs each) plus one
floating-point PE array.  The integer arrays' interconnect is
configurable per kernel (Section 3.1): independent 4-PE arrays for 2D
kernels (each array works a different task / row group) or concatenated
chains for 1D kernels like Chain, where "the 16 integer PE arrays can
be concatenated and make up a large systolic array consisting of 64
PEs" -- in a chain, only the head array's FIFO is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.dpax.pe import PEConfig, PEStats
from repro.dpax.pe_array import PES_PER_ARRAY, PEArray

#: Figure 4's tile composition.
INTEGER_ARRAYS = 16
FP_ARRAYS = 1

#: Expected DPAx clock (Section 7.2: "GenDP is expected to run at 2GHz").
CLOCK_HZ = 2_000_000_000


@dataclass
class SimulationResult:
    """Outcome of one simulated kernel launch."""

    cycles: int
    pe_stats: PEStats
    finished: bool
    #: Per-PE cycle accounting (:class:`repro.obs.profile.ProfileReport`)
    #: when the machine ran with :meth:`DPAxMachine.enable_profiling`.
    profile: Optional[object] = None

    #: Derived occupancy: compute bundles / (PE cycles), over started PEs.
    def compute_occupancy(self) -> float:
        if self.pe_stats.cycles == 0:
            return 0.0
        return self.pe_stats.compute_bundles / self.pe_stats.cycles


class DPAxMachine:
    """A DPAx tile with a configurable integer-array interconnect."""

    def __init__(
        self,
        integer_arrays: int = INTEGER_ARRAYS,
        fp_arrays: int = FP_ARRAYS,
        pe_config: Optional[PEConfig] = None,
        fp_config: Optional[PEConfig] = None,
    ):
        if integer_arrays < 0 or fp_arrays < 0:
            raise ValueError("array counts must be non-negative")
        int_config = pe_config or PEConfig(datapath="int")
        float_config = fp_config or PEConfig(datapath="fp")
        self.int_arrays: List[PEArray] = [
            PEArray(array_index=i, pe_config=int_config) for i in range(integer_arrays)
        ]
        self.fp_arrays: List[PEArray] = [
            PEArray(array_index=integer_arrays + i, pe_config=float_config)
            for i in range(fp_arrays)
        ]
        self.cycles = 0
        self._tile_profile = None

    def enable_profiling(self, timeline: bool = True, max_timeline: int = 200_000):
        """Attach cycle profiling to every array; returns a TileProfile.

        Opt-in by design: an unprofiled machine pays one ``is not
        None`` check per PE and per array per cycle.  Profiling itself
        is not cheap next to a decoded cycle: it adds roughly 0.5-0.9
        host microseconds per PE-cycle, which
        ``benchmarks/test_simulator_throughput.py`` measures as +45%
        (Chain) to +76% (POA) host time per simulated cycle
        (``results/simulator_throughput.txt``).
        """
        if self._tile_profile is None:
            from repro.obs.profile import TileProfile

            self._tile_profile = TileProfile(
                [
                    array.enable_profiling(
                        timeline=timeline, max_timeline=max_timeline
                    )
                    for array in self.arrays
                ]
            )
        return self._tile_profile

    @property
    def arrays(self) -> List[PEArray]:
        return self.int_arrays + self.fp_arrays

    # ------------------------------------------------------------------
    # interconnect configuration

    def concatenate(self, chain: Sequence[int]) -> None:
        """Concatenate integer arrays into one long systolic chain.

        ``chain`` lists integer-array indices head-to-tail.  The last PE
        of each array forwards to the first PE of the next; the chain
        tail's FIFO write wraps to the chain head's FIFO ("only the FIFO
        in the first PE array is utilized", Section 3.1).
        """
        if len(chain) < 2:
            raise ValueError("a chain needs at least two arrays")
        if len(set(chain)) != len(chain):
            raise ValueError("chain repeats an array")
        for position in range(len(chain) - 1):
            upstream = self.int_arrays[chain[position]]
            downstream = self.int_arrays[chain[position + 1]]
            upstream.pes[-1].out_target = downstream.pes[0].in_queue
            upstream.pes[-1].fifo_write = None
        head = self.int_arrays[chain[0]]
        tail = self.int_arrays[chain[-1]]
        tail.pes[-1].out_target = tail.tail_queue
        tail.pes[-1].fifo_write = head.fifo
        for index in chain[1:]:
            self.int_arrays[index].pes[0].fifo_read = None

    # ------------------------------------------------------------------
    # execution

    def step(self) -> None:
        for array in self.arrays:
            array.step()
        self.cycles += 1

    def run(self, max_cycles: int = 5_000_000) -> SimulationResult:
        """Run until every loaded array halts (or the cycle cap hits).

        The cap guards against deadlocked hand-written programs; hitting
        it returns ``finished=False`` rather than raising, so tests can
        assert on it.
        """
        active = [array for array in self.arrays if array.control]
        if not active:
            raise ValueError("no array has a program loaded")
        start = self.cycles
        if len(self.arrays) == 1:
            # Nothing to keep in lockstep: the array's own driver loop.
            cycles, finished = active[0].run(max_cycles)
            self.cycles += cycles
        else:
            # Every array steps every cycle, loaded or not (an idle
            # array's profiler still samples its empty FIFO).
            while self.cycles - start < max_cycles:
                self.step()
                if all(array.done for array in active):
                    break
            finished = all(array.done for array in active)
        stats = PEStats()
        for array in active:
            stats = stats.merge(array.merged_pe_stats())
        profile = (
            self._tile_profile.report() if self._tile_profile is not None else None
        )
        return SimulationResult(
            cycles=self.cycles - start,
            pe_stats=stats,
            finished=finished,
            profile=profile,
        )


def single_array_machine(
    pe_config: Optional[PEConfig] = None, pe_count: int = PES_PER_ARRAY
) -> PEArray:
    """A standalone PE array for unit tests and single-task runs."""
    return PEArray(array_index=0, pe_config=pe_config, pe_count=pe_count)
