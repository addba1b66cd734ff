"""Report-only lint analyses over compiled cell programs.

``gendp-lint`` runs every analysis here over the six kernels' compiled
programs and prints structured findings -- the same
:class:`repro.diagnostics.Diagnostic` records the guard verifier
emits, so one severity scale covers "illegal for the machine" (error)
through "a pass could remove this" (warning) down to "optimization
opportunity" (info).  Nothing is rewritten: the lint is the read-only
face of the pass framework in :mod:`repro.opt.passes`.

Diagnostic catalog (see ``docs/optimizer.md``):

==========================  ========  =======================================
rule                        severity  meaning
==========================  ========  =======================================
(verifier rules)            error     static ISA violations, passed through
register-file-overflow      error     allocation exceeds the RF outright
dead-instruction            warning   way feeds no program output
dead-slot                   warning   right leaf of a root-less tree way
register-pressure           warning   allocation uses >= 75% of the RF
unconsumed-output           info      output the kernel's consumer ignores
redundant-copy              info      pure copy way (propagatable)
foldable-constant           info      Imm-only slot computable at compile time
common-subexpression        info      computation duplicates an earlier way
schedule-slack              info      re-packing would issue fewer bundles
==========================  ========  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.diagnostics import Diagnostic, Severity
from repro.dpmap.codegen import CellProgram
from repro.guard.verifier import MachineLimits, check_program
from repro.opt.cost import ProgramCost, cost_of
from repro.opt.model import (
    NonSSAProgramError,
    is_pure_copy,
    linearize,
    live_ways,
    way_slots,
)
from repro.opt.passes import (
    FOLDABLE_OPCODES,
    _way_key,
    pack_ways,
)

#: Fraction of the register file above which pressure is a warning.
PRESSURE_WARNING_FRACTION = 0.75


def _located(rule: str, message: str, severity: Severity, bundle: int, way: str) -> Diagnostic:
    return Diagnostic(
        rule=rule, message=message, severity=severity, bundle=bundle, way=way
    )


def _way_positions(program: CellProgram) -> List[Tuple[int, str]]:
    """(bundle index, way label) for each way in linearization order."""
    out: List[Tuple[int, str]] = []
    for bundle_index, bundle in enumerate(program.instructions):
        for way_index, _ in enumerate(bundle.ways):
            out.append((bundle_index, f"cu{way_index}"))
    return out


def lint_program(
    name: str,
    program: CellProgram,
    contract: Optional[frozenset] = None,
    limits: Optional[MachineLimits] = None,
) -> List[Diagnostic]:
    """Every lint finding for one program, verifier errors included."""
    findings: List[Diagnostic] = list(check_program(program, limits, name=name).violations)
    limits = limits or MachineLimits()

    if program.register_count > limits.rf_size:
        findings.append(
            Diagnostic(
                rule="register-file-overflow",
                message=(
                    f"allocation spans {program.register_count} registers; "
                    f"the register file holds {limits.rf_size}"
                ),
            )
        )
    elif program.register_count >= PRESSURE_WARNING_FRACTION * limits.rf_size:
        findings.append(
            Diagnostic(
                rule="register-pressure",
                message=(
                    f"allocation spans {program.register_count} of "
                    f"{limits.rf_size} registers"
                ),
                severity=Severity.WARNING,
            )
        )

    if contract is not None:
        for output in sorted(set(program.output_regs) - set(contract)):
            findings.append(
                Diagnostic(
                    rule="unconsumed-output",
                    message=(
                        f"output {output!r} is never read by the kernel's "
                        "consumer; its compute cone is removable"
                    ),
                    severity=Severity.INFO,
                )
            )

    positions = _way_positions(program)
    try:
        lp = linearize(program)
    except NonSSAProgramError as error:
        findings.append(
            Diagnostic(
                rule="non-ssa-allocation",
                message=f"optimizer analyses skipped: {error}",
                severity=Severity.WARNING,
            )
        )
        return findings

    needed = live_ways(lp)
    seen_keys: Dict[Tuple, int] = {}
    for index, way in enumerate(lp.ways):
        bundle, label = positions[index]
        if index not in needed:
            findings.append(
                _located(
                    "dead-instruction",
                    f"r{way.dest.index} never reaches a program output",
                    Severity.WARNING,
                    bundle,
                    label,
                )
            )
        if (
            way.kind == "tree"
            and way.root is None
            and way.left is not None
            and way.right is not None
        ):
            findings.append(
                _located(
                    "dead-slot",
                    "right leaf of a root-less tree way is never used",
                    Severity.WARNING,
                    bundle,
                    label,
                )
            )
        if is_pure_copy(way) is not None:
            findings.append(
                _located(
                    "redundant-copy",
                    f"pure copy into r{way.dest.index} is propagatable",
                    Severity.INFO,
                    bundle,
                    label,
                )
            )
        for slot in way_slots(way):
            if slot.opcode in FOLDABLE_OPCODES and slot.operands and all(
                not hasattr(op, "index") for op in slot.operands
            ):
                findings.append(
                    _located(
                        "foldable-constant",
                        f"{slot.opcode.value} slot reads only immediates",
                        Severity.INFO,
                        bundle,
                        label,
                    )
                )
        key = _way_key(way)
        first = seen_keys.get(key)
        if first is not None and is_pure_copy(way) is None:
            findings.append(
                _located(
                    "common-subexpression",
                    (
                        f"way duplicates the computation of "
                        f"r{lp.ways[first].dest.index}"
                    ),
                    Severity.INFO,
                    bundle,
                    label,
                )
            )
        else:
            seen_keys.setdefault(key, index)

    repacked, _ = pack_ways(lp)
    if len(repacked) < len(program.instructions):
        findings.append(
            Diagnostic(
                rule="schedule-slack",
                message=(
                    f"{len(lp.ways)} ways fit in {len(repacked)} bundles; "
                    f"the program issues {len(program.instructions)}"
                ),
                severity=Severity.INFO,
            )
        )
    return findings


# ----------------------------------------------------------------------
# whole-kernel report


@dataclass(frozen=True)
class ProgramLint:
    """Lint outcome for one compiled program."""

    name: str
    diagnostics: Tuple[Diagnostic, ...]
    cost: ProgramCost
    optimized_cost: ProgramCost
    opt_stats: Dict[str, int]

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "cost": self.cost.to_dict(),
            "optimized_cost": self.optimized_cost.to_dict(),
            "opt_stats": dict(self.opt_stats),
        }


@dataclass(frozen=True)
class LintReport:
    """All programs' lint outcomes plus the overall verdict."""

    programs: Tuple[ProgramLint, ...]

    def count(self, severity: Severity) -> int:
        return sum(p.count(severity) for p in self.programs)

    @property
    def ok(self) -> bool:
        return self.count(Severity.ERROR) == 0

    def exit_code(self, fail_on: Severity = Severity.ERROR) -> int:
        worst = max(
            (d.severity for p in self.programs for d in p.diagnostics),
            default=None,
        )
        return 1 if worst is not None and worst >= fail_on else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "programs": [p.to_dict() for p in self.programs],
            "errors": self.count(Severity.ERROR),
            "warnings": self.count(Severity.WARNING),
            "notes": self.count(Severity.INFO),
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = [
            "gendp-lint: "
            f"{len(self.programs)} programs, "
            f"{self.count(Severity.ERROR)} errors, "
            f"{self.count(Severity.WARNING)} warnings, "
            f"{self.count(Severity.INFO)} notes"
        ]
        for program in self.programs:
            before, after = program.cost, program.optimized_cost
            lines.append(
                f"  {program.name:<16} {before.instructions} -> "
                f"{after.instructions} bundles, {before.ways} -> "
                f"{after.ways} ways, {before.alu_ops} -> "
                f"{after.alu_ops} ALU ops"
            )
            for diagnostic in program.diagnostics:
                lines.append(f"    {diagnostic}")
        return "\n".join(lines)


def run_lint(kernels: Optional[Sequence[str]] = None) -> LintReport:
    """Lint every kernel's compiled program(s), report-only.

    Analyses run over the *unoptimized* programs (what the compiler
    emits today); each program's optimized cost rides along so the
    report shows what the pass pipeline would buy.
    """
    from repro.guard.diff import DIFF_KERNELS, compile_kernel_programs
    from repro.static.contracts import contract_for

    programs: List[ProgramLint] = []
    for kernel in kernels if kernels is not None else DIFF_KERNELS:
        base = compile_kernel_programs(kernel)
        optimized = compile_kernel_programs(kernel, optimize=True)
        for name, cell in sorted(base.cells.items()):
            label = base.label(name)
            programs.append(
                ProgramLint(
                    name=label,
                    diagnostics=tuple(
                        lint_program(label, cell, contract=contract_for(label))
                    ),
                    cost=cost_of(cell),
                    optimized_cost=cost_of(optimized.cells[name]),
                    opt_stats=dict(optimized.outcomes[name].stats),
                )
            )
    return LintReport(programs=tuple(programs))
