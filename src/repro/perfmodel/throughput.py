"""Per-kernel GenDP throughput projection.

``cycles_per_cell`` is the per-PE(-lane) cost of one DP cell update,
measured on the instruction-level simulator (see
:func:`measure_cycles_per_cell`).  Our conservative control/compute
fence makes these a little higher than the paper's hand-scheduled
programs -- the model keeps them as honest measurements and the
benchmarks compare *shapes* (who wins, by roughly what factor), as
DESIGN.md sets out.

Projection per kernel:

- raw rate  = PEs x SIMD lanes x clock / cycles-per-cell
- host blend: ``1 / (accel_fraction/raw + (1-accel_fraction)/host)``
  (PairHMM re-computation and POA ultra-long dependencies run on the
  host CPU, Section 6)
- Chain divides by the 3.72x reordered-work factor (Section 6)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.asicmodel.area import DPAX_28NM, dpax_area_breakdown
from repro.asicmodel.dram import DDR4_2400_8CH
from repro.asicmodel.scaling import scale_area, scale_power

#: Tile geometry (Figure 4).
INTEGER_PES_PER_TILE = 64
CLOCK_HZ = 2.0e9

#: Per-PE(-lane) cycles per cell update, measured on the cycle-level
#: simulator (tests/perfmodel re-measures and checks drift).  BSW's
#: four 8-bit SIMD lanes and Chain's window streaming are folded in by
#: the lane/parallelism fields of KernelThroughput, not here.
DEFAULT_CYCLES_PER_CELL: Dict[str, float] = {
    "bsw": 19.6,
    "pairhmm": 22.4,
    "chain": 39.0,
    "poa": 36.3,
    "dtw": 12.7,
    "bellman_ford": 14.5,
    "lcs": 12.7,
}


def chain_slot_cycles(total_pes: int) -> int:
    """Steady-state cycles per anchor slot of the Chain mapping on a
    *total_pes*-deep chain: what the simulator measures per PE per
    cell once the pipeline is full, exactly.

    ``DEFAULT_CYCLES_PER_CELL["chain"]`` was calibrated on one 4-PE
    array; this is why longer chains measure more (54.0 on 8 PEs, 87.5
    on 16 with 40 anchors).  A PE needs 35 cycles per slot: 23 control
    instructions plus the 12 cycles they wait behind the 13-bundle
    compute window (the conservative RF fence).  But a slot cannot be
    shorter than the serial ``f[n-1] -> f[n]`` recurrence: the tail
    mints a broadcast 20 cycles after it has its inputs (``set``, 13
    bundles, 2 result pushes, 4 FIFO pushes), and its four words then
    ripple through the other P-1 PEs at one ``mv`` per word -- 4 cycles
    a hop -- to meet the next anchor at the tail.  A single array adds
    6 cycles per anchor on top: its one control thread plays head and
    tail and drains the results (2 x (``mv`` + ``addi``) + loop) only
    after it has pumped every anchor in, where a concatenated chain's
    last array drains concurrently.
    """
    pe_bound, tail_mint, ripple_per_hop, serial_drain = 35, 20, 4, 6
    slot = max(pe_bound, tail_mint + ripple_per_hop * (total_pes - 1))
    return slot + (serial_drain if total_pes <= 4 else 0)


#: Host-CPU GCUPS used for the non-accelerated fractions (the Xeon
#: 8380 rates of Table 15).
HOST_GCUPS: Dict[str, float] = {
    "pairhmm": 32.88,
    "poa": 14.51,
}


@dataclass(frozen=True)
class KernelThroughput:
    """One kernel's projection parameters."""

    kernel: str
    cycles_per_cell: float
    simd_lanes: int = 1
    pes_used: int = INTEGER_PES_PER_TILE
    accel_fraction: float = 1.0
    work_inflation: float = 1.0
    host_gcups: Optional[float] = None

    def raw_gcups(self, clock_hz: float = CLOCK_HZ) -> float:
        """Accelerator-only rate, before host blending and penalties."""
        if self.cycles_per_cell <= 0:
            raise ValueError("cycles_per_cell must be positive")
        cells_per_second = (
            self.pes_used * self.simd_lanes * clock_hz / self.cycles_per_cell
        )
        return cells_per_second / 1e9

    def effective_gcups(self, clock_hz: float = CLOCK_HZ) -> float:
        """End-to-end rate including host fraction and work inflation."""
        raw = self.raw_gcups(clock_hz)
        if self.accel_fraction < 1.0:
            if self.host_gcups is None:
                raise ValueError(
                    f"{self.kernel}: host fraction set but no host rate"
                )
            raw = 1.0 / (
                self.accel_fraction / raw
                + (1.0 - self.accel_fraction) / self.host_gcups
            )
        return raw / self.work_inflation


def default_kernel_throughputs() -> Dict[str, KernelThroughput]:
    """The paper's four kernels with Section 6 configurations."""
    return {
        "bsw": KernelThroughput(
            kernel="bsw",
            cycles_per_cell=DEFAULT_CYCLES_PER_CELL["bsw"],
            simd_lanes=4,  # four 8-bit lanes per 32-bit CU
        ),
        "pairhmm": KernelThroughput(
            kernel="pairhmm",
            cycles_per_cell=DEFAULT_CYCLES_PER_CELL["pairhmm"],
            accel_fraction=0.977,  # scan phase; re-computation on host
            host_gcups=HOST_GCUPS["pairhmm"],
        ),
        "chain": KernelThroughput(
            kernel="chain",
            cycles_per_cell=DEFAULT_CYCLES_PER_CELL["chain"],
            work_inflation=3.72,  # reordered N=64 vs original N=25
        ),
        "poa": KernelThroughput(
            kernel="poa",
            cycles_per_cell=DEFAULT_CYCLES_PER_CELL["poa"],
            accel_fraction=0.976,  # ultra-long dependencies on host
            host_gcups=HOST_GCUPS["poa"],
        ),
    }


class GenDPPerfModel:
    """Tile-level throughput, area and power roll-up."""

    def __init__(
        self,
        kernels: Optional[Dict[str, KernelThroughput]] = None,
        process_nm: int = 7,
        clock_hz: float = CLOCK_HZ,
    ):
        self.kernels = kernels or default_kernel_throughputs()
        self.process_nm = process_nm
        self.clock_hz = clock_hz
        base_area = dpax_area_breakdown(DPAX_28NM)["total"]
        self.tile_area_mm2 = scale_area(base_area, 28, process_nm)
        tile_power = DPAX_28NM.static_power_w + DPAX_28NM.dynamic_power_w
        self.tile_power_w = scale_power(tile_power, 28, process_nm)
        self.dram_power_w = (
            DDR4_2400_8CH.static_power_w + 0.645
        )  # Table 8's averaged dynamic

    def gcups(self, kernel: str) -> float:
        return self.kernels[kernel].effective_gcups(self.clock_hz)

    def mcups_per_mm2(self, kernel: str) -> float:
        """Figure 10(a)'s normalized metric."""
        return self.gcups(kernel) * 1000.0 / self.tile_area_mm2

    def mcups_per_watt(self, kernel: str) -> float:
        """Figure 10(b)'s metric, including DRAM power (Table 8)."""
        return self.gcups(kernel) * 1000.0 / (self.tile_power_w + self.dram_power_w)

    def runtime_seconds(self, kernel: str, cells: int) -> float:
        return cells / (self.gcups(kernel) * 1e9)

    def geomean_gcups(self) -> float:
        product = 1.0
        for kernel in self.kernels:
            product *= self.gcups(kernel)
        return product ** (1.0 / len(self.kernels))


def measure_cycles_per_cell(kernel: str, seed: int = 0) -> float:
    """Re-measure per-PE cycles/cell on the cycle-level simulator.

    Runs a small representative task and divides busy-PE cycles by
    cells; used by tests to keep :data:`DEFAULT_CYCLES_PER_CELL`
    honest.
    """
    import random

    from repro.dfg.stencils import WAVEFRONT_SPECS
    from repro.seq.alphabet import random_sequence

    rng = random.Random(seed)
    if kernel in WAVEFRONT_SPECS:
        from repro.mapping.kernels2d import probe_task
        from repro.mapping.wavefront2d import run_wavefront

        spec, target, stream = probe_task(kernel, rng)
        run = run_wavefront(spec, target=target, stream=stream)
        # 4 PEs share the work; per-PE cost is wall cycles x PEs / cells.
        return run.cycles * 4 / run.cells
    if kernel == "chain":
        from repro.mapping.sliding1d import probe_anchors, run_chain

        run = run_chain(probe_anchors(rng), total_pes=4)
        return run.cycles * 4 / run.cells
    if kernel == "poa":
        from repro.kernels.poa import PartialOrderGraph
        from repro.mapping.longrange import run_poa_row_dp
        from repro.seq.mutate import MutationProfile, Mutator

        template = random_sequence(16, rng)
        mutator = Mutator(MutationProfile.nanopore(), rng)
        graph = PartialOrderGraph(template)
        graph.add_sequence(mutator.mutate(template))
        run = run_poa_row_dp(graph, mutator.mutate(template))
        return run.cycles / run.cells
    if kernel == "bellman_ford":
        from repro.kernels.bellman_ford import Edge
        from repro.mapping.longrange import run_bellman_ford
        from repro.workloads.graphs import generate_bf_workload

        workload = generate_bf_workload(vertices=12, neighbors=3, seed=seed)
        edges = [Edge(e.src, e.dst, int(e.weight * 1000)) for e in workload.edges]
        run = run_bellman_ford(workload.vertex_count, edges, source=workload.source)
        return run.cycles / run.relaxations
    raise KeyError(f"no measurement recipe for kernel {kernel!r}")
