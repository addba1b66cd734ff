"""Utilization studies: Table 2 (reduction-tree depth) and Table 11.

The *static* studies derive entirely from DPMap: the Table 2 study
re-runs the mapper with 1-, 2- and 3-level compute-unit targets and
reads off register file accesses and CU utilization; Table 11 is the
2-level CU utilization (the VLIW occupancy of the issued schedule).

:func:`measured_vliw_utilization` reproduces Table 11 a second way,
from *measured* per-way activity: it runs each kernel on the
cycle-level simulator with profiling enabled (:mod:`repro.obs.profile`)
and divides issued ALU ops by available VLIW slots over the bundles
that actually executed.  Steady-state bundles issue exactly the mapped
schedule, so measured utilization tracks the static number (boundary
and epilogue bundles account for the residual gap).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.dfg.graph import DataFlowGraph
from repro.dfg.stencils import WAVEFRONT_SPECS
from repro.dpmap.mapper import MappingStats, run_dpmap

#: Kernels with a measured-utilization recipe.
MEASURED_KERNELS = ("bsw", "lcs", "dtw", "pairhmm", "chain")


@dataclass(frozen=True)
class TreeStudyRow:
    """One (kernel, tree depth) row of Table 2."""

    kernel: str
    levels: int
    rf_accesses: int
    cu_utilization: float
    cycles: int


def reduction_tree_study(
    dfgs: Dict[str, DataFlowGraph], levels: List[int] = (1, 2, 3)
) -> List[TreeStudyRow]:
    """Table 2: sweep reduction-tree depth over kernels."""
    rows: List[TreeStudyRow] = []
    for kernel, dfg in dfgs.items():
        for depth in levels:
            stats: MappingStats = run_dpmap(dfg, levels=depth).stats
            rows.append(
                TreeStudyRow(
                    kernel=kernel,
                    levels=depth,
                    rf_accesses=stats.rf_accesses,
                    cu_utilization=stats.cu_utilization,
                    cycles=stats.cycles,
                )
            )
    return rows


def vliw_utilization(dfgs: Dict[str, DataFlowGraph]) -> Dict[str, float]:
    """Table 11: VLIW (2-level CU) utilization per kernel."""
    return {
        kernel: run_dpmap(dfg, levels=2).stats.cu_utilization
        for kernel, dfg in dfgs.items()
    }


def measured_kernel_profile(kernel: str, seed: int = 0):
    """Run one kernel on the simulator with profiling; returns the
    :class:`repro.obs.profile.ProfileReport`.

    The workloads mirror :func:`repro.perfmodel.throughput.measure_cycles_per_cell`
    so the measured numbers come from the same representative tasks the
    perf model is calibrated on.
    """
    import random

    rng = random.Random(seed)
    if kernel in WAVEFRONT_SPECS:
        from repro.mapping.kernels2d import probe_task
        from repro.mapping.wavefront2d import run_wavefront

        spec, target, stream = probe_task(kernel, rng)
        run = run_wavefront(spec, target=target, stream=stream, profile=True)
        if not run.finished:
            raise RuntimeError(f"{kernel}: profiled run hit the cycle cap")
        return run.profile
    if kernel == "chain":
        from repro.mapping.sliding1d import probe_anchors, run_chain

        run = run_chain(
            probe_anchors(rng), total_pes=8, pes_per_array=4, profile=True
        )
        if not run.finished:
            raise RuntimeError("chain: profiled run hit the cycle cap")
        return run.profile
    raise KeyError(f"no measured-utilization recipe for kernel {kernel!r}")


def measured_vliw_utilization(
    kernels: Sequence[str] = MEASURED_KERNELS, seed: int = 0
) -> Dict[str, float]:
    """Table 11 from measured activity: ALU ops issued / VLIW slots
    available over the bundles each kernel actually executed."""
    return {
        kernel: measured_kernel_profile(kernel, seed=seed).vliw_slot_utilization()
        for kernel in kernels
    }
