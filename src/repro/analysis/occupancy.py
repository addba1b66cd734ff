"""PE occupancy analysis from simulator activity counters.

Wavefront parallelism is the architecture's central bet; this analysis
reads back how well a simulated run kept its PEs busy: the compute
thread's issue occupancy, the control thread's stall fraction, and the
resulting whole-array efficiency.  It feeds the simulator-throughput
discussion in EXPERIMENTS.md (our conservative fence shows up here as
control stalls).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.dpax.pe import PEStats
from repro.dpax.pe_array import PEArray


@dataclass
class OccupancyReport:
    """Activity split of one simulated run."""

    pe_cycles: int
    compute_bundles: int
    compute_idle: int
    control_executed: int
    control_stalls: int

    @property
    def compute_occupancy(self) -> float:
        """Fraction of PE cycles retiring a VLIW bundle."""
        return self.compute_bundles / self.pe_cycles if self.pe_cycles else 0.0

    @property
    def control_stall_fraction(self) -> float:
        """Fraction of control attempts that stalled (fence + ports)."""
        attempts = self.control_executed + self.control_stalls
        return self.control_stalls / attempts if attempts else 0.0

def occupancy_from_stats(stats: PEStats) -> OccupancyReport:
    """Build a report from (merged) PE statistics."""
    return OccupancyReport(
        pe_cycles=stats.cycles,
        compute_bundles=stats.compute_bundles,
        compute_idle=stats.compute_idle,
        control_executed=stats.control_executed,
        control_stalls=stats.control_stalls,
    )


def occupancy_from_array(array: PEArray) -> OccupancyReport:
    """Build a report from a simulated PE array."""
    return occupancy_from_stats(array.merged_pe_stats())


def per_pe_occupancies(array: PEArray) -> List[float]:
    """Compute occupancy of each PE -- the load-balance view."""
    return [
        pe.stats.compute_bundles / pe.stats.cycles if pe.stats.cycles else 0.0
        for pe in array.pes
    ]
