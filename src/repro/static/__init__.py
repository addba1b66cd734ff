"""Static analysis over cell programs: value ranges, certificates, hazards.

``repro.static`` is the compile-time counterpart of the guard layer's
runtime sentinels.  Where the sentinels *watch* every executed way for
int32 overflow, SIMD-lane saturation, and log-floor underflow, this
package *proves* their absence by abstract interpretation over the same
slot-level value graph (:mod:`repro.isa.values`) the engine's cell
emitters and Chain's band split read; the optimizer's
:func:`~repro.opt.model.linearize` refuses a program by the same
single-assignment check:

- :mod:`repro.static.intervals` -- the interval (value-range) abstract
  domain with widening to the machine's power-of-two rails, and the one
  evaluator over a value graph's nodes.
- :mod:`repro.static.absint` -- a forward interval dataflow pass over
  the eager graph, one node per ``execute_way`` observe, in order.
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

from repro.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "ProgramAnalysis": "absint",
        "WayAnalysis": "absint",
        "analyze_fixpoint": "absint",
        "analyze_program": "absint",
        "HazardVerdict": "certify",
        "ProgramSafetyCertificate": "certify",
        "certify_program": "certify",
        "compiled_certificate": "certify",
        "KernelContract": "contracts",
        "kernel_contract": "contracts",
        "areg_value_intervals": "hazards",
        "control_spm_diagnostics": "hazards",
        "count_port_ops": "hazards",
        "rf_pressure_diagnostics": "hazards",
        "wavefront_protocol_diagnostics": "hazards",
        "INT32": "intervals",
        "LANE8": "intervals",
        "Interval": "intervals",
        "AnalysisReport": "report",
        "ProgramAnalysisEntry": "report",
        "run_analysis": "report",
    },
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
    "control_spm_diagnostics",
    "count_port_ops",
    "kernel_contract",
    "rf_pressure_diagnostics",
    "run_analysis",
    "wavefront_protocol_diagnostics",
]
