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
``DPAxMachine.enable_profiling()``): with no profiler attached the
simulator's cycle loop is compiled without hooks (:mod:`repro.dpax.loop`);
the cost of an attached one is published, on vs off, in
``results/simulator_throughput.txt``.

The :class:`ProfileReport` rollup feeds
:mod:`repro.analysis.utilization` and exports per-PE compute/idle
timelines in the same Chrome-trace format as :mod:`repro.obs.trace`
(timestamps in cycles, one track per PE).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.dpmap.mapper import CUS_PER_PE
from repro.dpmap.passes import alus_for_levels

#: Stall reasons the PE control thread distinguishes (pe.py hooks).
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


class PEProfile:
    """Cycle accounting for one PE (attached via ``pe.profiler``)."""

    def __init__(
        self,
        array_index: int,
        pe_index: int,
        timeline: bool = True,
        max_timeline: int = 200_000,
    ):
        self.array_index = array_index
        self.pe_index = pe_index
        self.bundles = 0
        self.ways_issued = 0
        self.alu_ops = 0
        self.idle_cycles = 0
        self.way_histogram: Counter = Counter()
        self.stalls: Counter = Counter()
        self._timeline_on = timeline
        self._max_timeline = max_timeline
        #: Coalesced [state, first_cycle, last_cycle] runs.
        self._segments: List[List[Any]] = []
        self.timeline_truncated = False

    # ------------------------------------------------------------------
    # hooks the PE calls (hot path: keep them allocation-light)

    def bundle(self, cycle: int, ways: int, alu_ops: int) -> None:
        self.bundles += 1
        self.ways_issued += ways
        self.alu_ops += alu_ops
        self.way_histogram[ways] += 1
        if self._timeline_on:
            self._mark("compute", cycle)

    def idle(self, cycle: int) -> None:
        self.idle_cycles += 1
        if self._timeline_on:
            self._mark("idle", cycle)

    def stall(self, reason: str) -> None:
        self.stalls[reason] += 1

    def _mark(self, state: str, cycle: int) -> None:
        segments = self._segments
        if segments:
            last = segments[-1]
            if last[0] == state and last[2] == cycle - 1:
                last[2] = cycle
                return
        if len(segments) >= self._max_timeline:
            self.timeline_truncated = True
            self._timeline_on = False
            return
        segments.append([state, cycle, cycle])

    # ------------------------------------------------------------------

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
            "way_histogram": {
                str(ways): count for ways, count in sorted(self.way_histogram.items())
            },
            "way_occupancy": self.way_occupancy,
            "slot_utilization": self.slot_utilization,
            "stalls": {k: v for k, v in sorted(self.stalls.items())},
        }


class ArrayProfile:
    """One PE array's profile: per-PE profiles + FIFO depth sampling."""

    def __init__(
        self,
        array_index: int,
        pe_count: int,
        timeline: bool = True,
        max_timeline: int = 200_000,
    ):
        self.array_index = array_index
        self.pes = [
            PEProfile(array_index, pe, timeline=timeline, max_timeline=max_timeline)
            for pe in range(pe_count)
        ]
        self.fifo_depths: Counter = Counter()
        self.control_stalls: Counter = Counter()
        self.sampled_cycles = 0

    def sample(self, fifo_depth: int) -> None:
        """Called once per array cycle (the FIFO depth histogram)."""
        self.fifo_depths[fifo_depth] += 1
        self.sampled_cycles += 1

    def control_stall(self, reason: str) -> None:
        self.control_stalls[reason] += 1

    def report(self) -> "ProfileReport":
        return ProfileReport(arrays=[self])


class TileProfile:
    """Profiles for every array of a :class:`DPAxMachine`."""

    def __init__(self, arrays: List[ArrayProfile]):
        self.arrays = arrays

    def report(self) -> "ProfileReport":
        return ProfileReport(arrays=list(self.arrays))


@dataclass
class ProfileReport:
    """The aggregated, exportable view over one or more array profiles."""

    arrays: List[ArrayProfile] = field(default_factory=list)

    def _pes(self) -> List[PEProfile]:
        return [pe for array in self.arrays for pe in array.pes]

    # ------------------------------------------------------------------
    # aggregates

    @property
    def bundles(self) -> int:
        return sum(pe.bundles for pe in self._pes())

    @property
    def alu_ops(self) -> int:
        return sum(pe.alu_ops for pe in self._pes())

    @property
    def ways_issued(self) -> int:
        return sum(pe.ways_issued for pe in self._pes())

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
        combined: Counter = Counter()
        for pe in self._pes():
            combined.update(pe.way_histogram)
        return dict(sorted(combined.items()))

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
