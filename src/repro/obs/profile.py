"""Opt-in cycle-level profiling for the DPAx simulator.

The simulator's :class:`~repro.dpax.pe.PEStats` counts aggregate
cycles and bundles; this module adds the per-unit accounting the
paper's observability tables need:

- **stall-reason breakdown** per PE control thread (compute fence,
  empty/full ports and FIFOs) and per array control thread;
- **per-way VLIW slot occupancy**: bundles by issued-way count plus
  occupied-ALU totals, which reproduces Table 11's utilization from
  *measured* activity instead of the static DPMap schedule;
- **FIFO depth histograms**, sampled once per array cycle.

Attachment is explicit and opt-in (``PEArray.enable_profiling()`` /
``DPAxMachine.enable_profiling()``).  Bundles, ALU ops and idle cycles
are read from the PEs' ``PEStats``; the profiled cycle loop
(:mod:`repro.dpax.loop`) writes the rest directly, with no call per
cycle.  Its cost, on vs off, is in ``results/simulator_throughput.txt``.

The :class:`ProfileReport` rollup feeds
:mod:`repro.analysis.utilization` and exports per-PE compute/idle
timelines in the same Chrome-trace format as :mod:`repro.obs.trace`
(timestamps in cycles, one track per PE).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.dpmap.mapper import CUS_PER_PE
from repro.dpmap.passes import alus_for_levels

if TYPE_CHECKING:  # the simulator loads only when a profile is built
    from repro.dpax.pe import PEStats

#: Stall reasons the control threads distinguish (decode.py waits).
STALL_REASONS = (
    "compute_busy",  # SET waiting for the running bundle window
    "compute_fence",  # RF/SPM access fenced by the compute thread
    "in_empty",  # pop from an empty input port
    "fifo_empty",  # pop from an empty FIFO
    "out_full",  # push into a full downstream port
    "fifo_full",  # push into a full FIFO
    "dest_full",  # push into some other full destination
)

#: ALU slots per issued VLIW bundle (2 CUs x 3 ALUs at tree depth 2).
ALU_SLOTS_PER_BUNDLE = CUS_PER_PE * alus_for_levels(2)

#: Timeline segments kept per PE; later changes are counted, not drawn.
MAX_TIMELINE = 200_000


def _grown(counter: str) -> property:
    """A PEStats counter's growth since the profile was attached."""
    return property(lambda self: getattr(self.stats, counter) - getattr(self._base, counter))


class PEProfile:
    """One PE's profile (``pe.profiler``): a view over its
    :class:`~repro.dpax.pe.PEStats` since attachment, plus what only the
    profiler counts, which the profiled cycle loop writes directly."""

    def __init__(self, array_index: int, pe_index: int, stats: Optional[PEStats] = None):
        self.array_index = array_index
        self.pe_index = pe_index
        if stats is None:
            from repro.dpax.pe import PEStats

            stats = PEStats()
        self.stats = stats
        self._base = dataclasses.replace(self.stats)
        #: Bundles run, by issued-way count (the index).
        self.ways = [0] * (CUS_PER_PE + 1)
        self.stalls: Counter = Counter()
        #: Coalesced [state, first_cycle, last_cycle] runs, in PE cycles.
        self._segments: List[List[Any]] = []
        self.timeline_truncated = False

    bundles = _grown("compute_bundles")
    alu_ops = _grown("alu_ops")
    idle_cycles = _grown("compute_idle")

    @property
    def way_histogram(self) -> Dict[int, int]:
        return {ways: count for ways, count in enumerate(self.ways) if count}

    @property
    def ways_issued(self) -> int:
        return sum(ways * count for ways, count in enumerate(self.ways))

    @property
    def timeline_room(self) -> int:
        """Segments the timeline may still append (none once truncated)."""
        return 0 if self.timeline_truncated else MAX_TIMELINE - len(self._segments)

    @property
    def way_occupancy(self) -> float:
        """Issued ways over the 2-way issue capacity of run bundles."""
        capacity = self.bundles * CUS_PER_PE
        return self.ways_issued / capacity if capacity else 0.0

    @property
    def slot_utilization(self) -> float:
        """Occupied ALU slots over capacity (Table 11, measured)."""
        capacity = self.bundles * ALU_SLOTS_PER_BUNDLE
        return self.alu_ops / capacity if capacity else 0.0

    def segments(self) -> List[List[Any]]:
        return [list(segment) for segment in self._segments]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "array": self.array_index,
            "pe": self.pe_index,
            "bundles": self.bundles,
            "ways_issued": self.ways_issued,
            "alu_ops": self.alu_ops,
            "idle_cycles": self.idle_cycles,
            "way_histogram": {str(ways): count for ways, count in self.way_histogram.items()},
            "way_occupancy": self.way_occupancy,
            "slot_utilization": self.slot_utilization,
            "stalls": {k: v for k, v in sorted(self.stalls.items())},
        }


class ArrayProfile:
    """One PE array's profile: per-PE profiles + FIFO depth sampling."""

    def __init__(self, array_index: int, stats: List[PEStats]):
        self.array_index = array_index
        self.pes = [PEProfile(array_index, pe, pe_stats) for pe, pe_stats in enumerate(stats)]
        #: Array cycles by the FIFO depth they ended with.
        self.fifo_depths: Counter = Counter()
        self.control_stalls: Counter = Counter()
        self.sampled_cycles = 0

    def report(self) -> "ProfileReport":
        return ProfileReport(arrays=[self])


class TileProfile:
    """Profiles for every array of a :class:`DPAxMachine`."""

    def __init__(self, arrays: List[ArrayProfile]):
        self.arrays = arrays

    def report(self) -> "ProfileReport":
        return ProfileReport(arrays=list(self.arrays))


def _summed(count: str) -> property:
    """A per-PE count summed over every PE of the report."""
    return property(lambda self: sum(getattr(pe, count) for pe in self._pes()))


@dataclass
class ProfileReport:
    """The aggregated, exportable view over one or more array profiles."""

    arrays: List[ArrayProfile] = field(default_factory=list)

    def _pes(self) -> List[PEProfile]:
        return [pe for array in self.arrays for pe in array.pes]

    # ------------------------------------------------------------------
    # aggregates

    bundles = _summed("bundles")
    alu_ops = _summed("alu_ops")
    ways_issued = _summed("ways_issued")

    def vliw_slot_utilization(self) -> float:
        """Occupied ALU slots / slot capacity of every issued bundle.

        This is Table 11's utilization measured from per-way activity:
        identical denominator shape to the static
        :meth:`repro.dpmap.mapper.MappingStats.cu_utilization` (cycles
        x 2 CUs x 3 ALUs), but over bundles the simulator actually
        executed.
        """
        capacity = self.bundles * ALU_SLOTS_PER_BUNDLE
        return self.alu_ops / capacity if capacity else 0.0

    def way_occupancy(self) -> float:
        """Issued VLIW ways / 2-way issue capacity (per-way occupancy)."""
        capacity = self.bundles * CUS_PER_PE
        return self.ways_issued / capacity if capacity else 0.0

    def way_histogram(self) -> Dict[int, int]:
        totals = [sum(counts) for counts in zip(*(pe.ways for pe in self._pes()))]
        return {ways: count for ways, count in enumerate(totals) if count}

    def stall_breakdown(self) -> Dict[str, int]:
        """PE + array control stalls by reason, combined."""
        combined: Counter = Counter()
        for array in self.arrays:
            combined.update(array.control_stalls)
            for pe in array.pes:
                combined.update(pe.stalls)
        return {k: v for k, v in sorted(combined.items())}

    def fifo_depth_histogram(self) -> Dict[int, int]:
        combined: Counter = Counter()
        for array in self.arrays:
            combined.update(array.fifo_depths)
        return dict(sorted(combined.items()))

    # ------------------------------------------------------------------
    # export

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bundles": self.bundles,
            "alu_ops": self.alu_ops,
            "ways_issued": self.ways_issued,
            "vliw_slot_utilization": self.vliw_slot_utilization(),
            "way_occupancy": self.way_occupancy(),
            "way_histogram": {
                str(k): v for k, v in self.way_histogram().items()
            },
            "stall_breakdown": self.stall_breakdown(),
            "fifo_depth_histogram": {
                str(k): v for k, v in self.fifo_depth_histogram().items()
            },
            "per_pe": [pe.to_dict() for pe in self._pes()],
        }

    def to_chrome_trace(self) -> Dict[str, Any]:
        """Cycle-level timelines (1 us = 1 cycle; one track per PE)."""
        events: List[Dict[str, Any]] = []
        for array in self.arrays:
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "ts": 0,
                    "pid": array.array_index,
                    "tid": 0,
                    "args": {"name": f"array {array.array_index}"},
                }
            )
            for pe in array.pes:
                for state, first, last in pe.segments():
                    if state == "idle":
                        continue  # gaps between compute runs read as idle
                    events.append(
                        {
                            "name": state,
                            "cat": "simulator",
                            "ph": "X",
                            "ts": first,
                            "dur": last - first + 1,
                            "pid": array.array_index,
                            "tid": pe.pe_index,
                            "args": {
                                "array": array.array_index,
                                "pe": pe.pe_index,
                            },
                        }
                    )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"time_unit": "cycles"},
        }

    def render(self) -> str:
        """Human-readable profile summary."""
        lines = [
            "simulator profile",
            f"  bundles executed    : {self.bundles}",
            f"  VLIW slot util      : {self.vliw_slot_utilization():.1%}",
            f"  way occupancy       : {self.way_occupancy():.1%}",
        ]
        stalls = self.stall_breakdown()
        if stalls:
            breakdown = ", ".join(f"{k}={v}" for k, v in stalls.items())
            lines.append(f"  control stalls      : {breakdown}")
        depths = self.fifo_depth_histogram()
        if depths:
            peak = max(depths)
            lines.append(f"  FIFO depth (peak)   : {peak}")
        return "\n".join(lines)
