"""DPAx: the cycle-level accelerator simulator.

Models the architecture of Section 4 at instruction granularity:

- :mod:`repro.dpax.storage` -- register file, scratchpad, FIFO, data
  buffers and port queues, all with access counters.
- :mod:`repro.dpax.decode` -- decode-at-load: control instructions
  and VLIW bundles compiled to functions once, when a program is
  loaded, shared by every PE and run.
- :mod:`repro.dpax.pe` -- a processing element running a decoupled
  control thread (Table 3 instructions) and a 2-way VLIW compute thread
  (Table 4 operations) against its own RF/SPM.
- :mod:`repro.dpax.pe_array` -- four PEs in a systolic chain with an
  array-level control thread, last-to-first FIFO, and input/output data
  buffers.
- :mod:`repro.dpax.machine` -- the DPAx tile (16 integer + 1 FP PE
  arrays) with configurable array concatenation, plus the cycle loop.

Programs come from :mod:`repro.mapping` (control codegen) and
:mod:`repro.dpmap.codegen` (compute codegen); the simulator's results
are validated cell-for-cell against the reference kernels ("The BSW,
PairHMM and POA simulations show same results as CPU baselines",
Section 6).
"""

from repro.dpax.storage import DataBuffer, Fifo, PortQueue, RegisterFile, Scratchpad
from repro.dpax.pe import PE, PEConfig, PEStats
from repro.dpax.pe_array import PEArray
from repro.dpax.machine import DPAxMachine, SimulationResult

__all__ = [
    "DataBuffer",
    "Fifo",
    "PortQueue",
    "RegisterFile",
    "Scratchpad",
    "PE",
    "PEConfig",
    "PEStats",
    "PEArray",
    "DPAxMachine",
    "SimulationResult",
]
