"""Static analysis over cell programs: value ranges, certificates, hazards.

``repro.static`` is the compile-time counterpart of the guard layer's
runtime sentinels.  Where the sentinels *watch* every executed way for
int32 overflow, SIMD-lane saturation, and log-floor underflow, this
package *proves* their absence by abstract interpretation over the same
:class:`repro.opt.model.LinearProgram` def/use model the optimizer and
lint layers already share:

- :mod:`repro.static.intervals` -- the interval (value-range) abstract
  domain with widening to the machine's power-of-two rails.
- :mod:`repro.static.absint` -- a forward interval dataflow pass whose
  abstract transfer mirrors ``execute_way``'s observe order exactly.
- :mod:`repro.static.contracts` -- per-kernel declared input contracts
  that condition every proof; their feedback outputs are the one
  declaration of what each program's consumer reads.
- :mod:`repro.static.certify` -- :class:`ProgramSafetyCertificate`
  construction; certified programs let the engine elide the sentinel
  observe hook on the hot path.
- :mod:`repro.static.hazards` -- SPM alias/read-before-write analysis,
  RF pressure from exact liveness, and FIFO send/recv protocol checks
  that catch PE-array deadlocks before the simulator hangs.
- :mod:`repro.static.report` -- the ``gendp-analyze`` report model,
  sharing the guard/lint :class:`repro.diagnostics.Diagnostic` schema.
"""

from repro.static.absint import (
    ProgramAnalysis,
    WayAnalysis,
    analyze_fixpoint,
    analyze_program,
)
from repro.static.certify import (
    HazardVerdict,
    ProgramSafetyCertificate,
    certify_program,
    compiled_certificate,
)
from repro.static.contracts import (
    KernelContract,
    contract_names,
    kernel_contract,
)
from repro.static.hazards import (
    areg_value_intervals,
    control_spm_diagnostics,
    count_port_ops,
    rf_pressure_diagnostics,
    wavefront_protocol_diagnostics,
)
from repro.static.intervals import INT32, LANE8, Interval
from repro.static.report import (
    AnalysisReport,
    ProgramAnalysisEntry,
    run_analysis,
)

__all__ = [
    "AnalysisReport",
    "HazardVerdict",
    "INT32",
    "Interval",
    "KernelContract",
    "LANE8",
    "ProgramAnalysis",
    "ProgramAnalysisEntry",
    "ProgramSafetyCertificate",
    "WayAnalysis",
    "analyze_fixpoint",
    "analyze_program",
    "areg_value_intervals",
    "certify_program",
    "compiled_certificate",
    "contract_names",
    "control_spm_diagnostics",
    "count_port_ops",
    "kernel_contract",
    "rf_pressure_diagnostics",
    "run_analysis",
    "wavefront_protocol_diagnostics",
]
