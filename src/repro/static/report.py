"""The ``gendp-analyze`` report: certificates + hazards per program.

Mirrors the shape of :mod:`repro.opt.lint` so CI gates on both tools
the same way -- structured :class:`repro.diagnostics.Diagnostic`
entries, a JSON-stable ``to_dict``, and ``exit_code(fail_on)`` keyed
on the shared severity model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dfg.stencils import WAVEFRONT_SPECS, wavefront_spec
from repro.diagnostics import Diagnostic, Severity
from repro.static.certify import (
    ProgramSafetyCertificate,
    certify_program,
)
from repro.static.hazards import (
    control_spm_diagnostics,
    rf_pressure_diagnostics,
    wavefront_protocol_diagnostics,
)

#: Rule names for unprovable hazard classes (possible = the analysis
#: could not exclude the hazard under the declared contract, not that
#: it must occur).
_HAZARD_RULES = {
    "int32-overflow": "possible-int32-overflow",
    "lane-saturation": "possible-lane-saturation",
    "log-underflow": "possible-log-underflow",
}

#: Wavefront build dimensions for the protocol smoke analysis: small
#: enough to build instantly, large enough to exercise the loop
#: structure (two passes over a four-PE array).
_WAVEFRONT_TARGET = 8
_WAVEFRONT_QUERY = 4
_WAVEFRONT_PES = 4


def certificate_diagnostics(
    certificate: ProgramSafetyCertificate,
) -> List[Diagnostic]:
    """Value-range verdicts as diagnostics.

    Armed-but-unproven hazards are warnings (the runtime sentinel still
    covers them); a fully certified program gets one info note so the
    report says *why* the engine may elide its sentinels.
    """
    out: List[Diagnostic] = []
    if not certificate.contract:
        out.append(
            Diagnostic(
                rule="no-input-contract",
                message=(
                    f"{certificate.name}: no declared input contract; "
                    "value-range analysis skipped"
                ),
                severity=Severity.INFO,
            )
        )
        return out
    for verdict in certificate.verdicts:
        if not verdict.armed or verdict.proven_absent:
            continue
        out.append(
            Diagnostic(
                rule=_HAZARD_RULES[verdict.hazard],
                message=(
                    f"{certificate.name}: {verdict.hazard} not provable "
                    f"under the declared contract ({verdict.witness}); "
                    "runtime sentinel stays armed"
                ),
                severity=Severity.WARNING,
            )
        )
    if certificate.sentinel_free:
        closure = (
            "contract is inductively closed"
            if certificate.inductively_closed
            else "per-invocation conditional on the contract"
        )
        out.append(
            Diagnostic(
                rule="certified-sentinel-free",
                message=(
                    f"{certificate.name}: every armed hazard proven "
                    f"absent ({closure}); sentinel observation elidable"
                ),
                severity=Severity.INFO,
            )
        )
    return out


@dataclass(frozen=True)
class ProgramAnalysisEntry:
    """Analysis outcome for one program (cell or control thread)."""

    name: str
    diagnostics: Tuple[Diagnostic, ...]
    certificate: Optional[ProgramSafetyCertificate] = None

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
        if self.certificate is not None:
            summary = self.certificate.to_dict()
            # The per-observation interval table is harness fodder, not
            # report material; keep the JSON artifact reviewable.
            summary.pop("observed_intervals", None)
            data["certificate"] = summary
        return data


@dataclass(frozen=True)
class AnalysisReport:
    """All analyzed programs plus the overall verdict."""

    programs: Tuple[ProgramAnalysisEntry, ...]

    def count(self, severity: Severity) -> int:
        return sum(p.count(severity) for p in self.programs)

    @property
    def ok(self) -> bool:
        return self.count(Severity.ERROR) == 0

    @property
    def certified(self) -> Tuple[str, ...]:
        return tuple(
            p.name
            for p in self.programs
            if p.certificate is not None and p.certificate.sentinel_free
        )

    def exit_code(self, fail_on: Severity = Severity.ERROR) -> int:
        worst = max(
            (d.severity for p in self.programs for d in p.diagnostics),
            default=None,
        )
        return 1 if worst is not None and worst >= fail_on else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "programs": [p.to_dict() for p in self.programs],
            "certified": list(self.certified),
            "errors": self.count(Severity.ERROR),
            "warnings": self.count(Severity.WARNING),
            "notes": self.count(Severity.INFO),
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            "gendp-analyze: "
            f"{len(self.programs)} programs, "
            f"{len(self.certified)} certified sentinel-free, "
            f"{self.count(Severity.ERROR)} errors, "
            f"{self.count(Severity.WARNING)} warnings, "
            f"{self.count(Severity.INFO)} notes"
        ]
        for program in self.programs:
            if program.certificate is None:
                status = "control"
            elif program.certificate.sentinel_free:
                status = "certified"
            elif program.certificate.contract:
                status = "sentinels stay armed"
            else:
                status = "no contract"
            lines.append(f"  {program.name:<18} {status}")
            for diagnostic in program.diagnostics:
                lines.append(f"    {diagnostic}")
        return "\n".join(lines)


def _analyze_wavefront(kernel: str) -> Optional[ProgramAnalysisEntry]:
    from repro.guard.verifier import MachineLimits
    from repro.mapping.wavefront2d import build_wavefront_programs

    if kernel not in WAVEFRONT_SPECS:
        return None
    programs = build_wavefront_programs(
        wavefront_spec(kernel, _WAVEFRONT_TARGET),
        target_length=_WAVEFRONT_TARGET,
        query_length=_WAVEFRONT_QUERY,
        pe_count=_WAVEFRONT_PES,
    )
    limits = MachineLimits()
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(wavefront_protocol_diagnostics(programs))
    diagnostics.extend(
        control_spm_diagnostics(programs.array_control, limits.spm_size)
    )
    for thread in programs.pe_control:
        diagnostics.extend(
            control_spm_diagnostics(thread, limits.spm_size)
        )
    return ProgramAnalysisEntry(
        name=f"{kernel}:wavefront",
        diagnostics=tuple(diagnostics),
    )


def run_analysis(
    kernels: Optional[Sequence[str]] = None,
    include_wavefront: bool = True,
) -> AnalysisReport:
    """Analyze every kernel's programs: certificates + hazards.

    Cell programs get the value-range certificate and exact-liveness
    RF pressure; kernels with a 2D wavefront spec additionally get the
    FIFO protocol and scratchpad analyses over a small generated
    load-out.
    """
    from repro.guard.diff import DIFF_KERNELS, compile_kernel_programs
    from repro.guard.verifier import MachineLimits

    limits = MachineLimits()
    entries: List[ProgramAnalysisEntry] = []
    for kernel in kernels if kernels is not None else DIFF_KERNELS:
        for label, cell in compile_kernel_programs(kernel).named_cells():
            certificate = certify_program(kernel, cell, name=label)
            diagnostics = certificate_diagnostics(certificate)
            diagnostics.extend(
                rf_pressure_diagnostics(label, cell, limits.rf_size)
            )
            entries.append(
                ProgramAnalysisEntry(
                    name=label,
                    diagnostics=tuple(diagnostics),
                    certificate=certificate,
                )
            )
        if include_wavefront:
            wavefront = _analyze_wavefront(kernel)
            if wavefront is not None:
                entries.append(wavefront)
    return AnalysisReport(programs=tuple(entries))
