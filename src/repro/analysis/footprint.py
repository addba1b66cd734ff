"""Instruction-footprint analysis: do the programs fit the buffers?

Table 7 provisions 208KB of instruction buffer across the tile --
about 12KB per PE array (17 arrays).  Programs are preloaded before a
kernel starts (Section 4.4), so every kernel's generated load-out must
fit.  This analysis measures the actual generated programs (control +
compute, at the encoded sizes of :mod:`repro.isa.program`) against
that budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.dfg.stencils import WAVEFRONT_SPECS, wavefront_spec
from repro.isa.program import ArrayProgram, PEProgram

#: Table 7's instruction-buffer capacity and the tile's array count.
INSTRUCTION_BUFFER_BYTES = 208 * 1024
ARRAYS_PER_TILE = 17  # 16 integer + 1 FP

#: Per-array share of the instruction buffer.
PER_ARRAY_BUDGET = INSTRUCTION_BUFFER_BYTES // ARRAYS_PER_TILE


@dataclass
class FootprintRow:
    """One kernel's generated-program footprint."""

    kernel: str
    array_control: int
    pe_control: int
    pe_compute: int
    total_bytes: int

    @property
    def budget_fraction(self) -> float:
        return self.total_bytes / PER_ARRAY_BUDGET


def measure_wavefront_footprint(kernel: str, passes: int = 4) -> FootprintRow:
    """Footprint of a generated 2D-kernel load-out for one array."""
    from repro.mapping.wavefront2d import build_wavefront_programs

    if kernel not in WAVEFRONT_SPECS:
        raise KeyError(f"no wavefront footprint recipe for {kernel!r}")
    spec = wavefront_spec(kernel, 4 * passes)
    programs = build_wavefront_programs(spec, 4 * passes, 100)
    array = ArrayProgram(
        array_control=programs.array_control,
        pe_programs=[
            PEProgram(control=control, compute=compute)
            for control, compute in zip(programs.pe_control, programs.pe_compute)
        ],
    )
    counts = array.instruction_counts()
    return FootprintRow(
        kernel=kernel,
        array_control=counts["array_control"],
        pe_control=counts["pe_control"],
        pe_compute=counts["pe_compute"],
        total_bytes=array.total_bytes,
    )


def measure_chain_footprint(anchor_count: int = 1000) -> FootprintRow:
    """Footprint of the chain load-out, per array (4 of 64 PEs)."""
    from repro.mapping.sliding1d import build_chain_programs

    programs = build_chain_programs(anchor_count, 64)
    # One array's share: four PE programs + the head array control.
    array = ArrayProgram(
        array_control=programs.head_array_control,
        pe_programs=[
            PEProgram(control=programs.pe_control[i], compute=programs.pe_compute[i])
            for i in range(4)
        ],
    )
    counts = array.instruction_counts()
    return FootprintRow(
        kernel="chain",
        array_control=counts["array_control"],
        pe_control=counts["pe_control"],
        pe_compute=counts["pe_compute"],
        total_bytes=array.total_bytes,
    )


def footprint_report(passes: int = 4) -> List[FootprintRow]:
    """Footprints of all generated kernel load-outs."""
    rows = [
        measure_wavefront_footprint(kernel, passes)
        for kernel in ("bsw", "pairhmm", "lcs", "dtw")
    ]
    rows.append(measure_chain_footprint())
    return rows
