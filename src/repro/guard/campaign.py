"""Resumable differential-fuzz campaigns (`gendp-guard`).

A campaign sweeps every configured kernel: statically verifies its
compiled program(s), runs ``jobs_per_kernel`` seeded differential
cases against the reference kernel, probes each cell program on random
inputs, and folds numerical-sentinel counts along the way.  Because
every case is a pure function of ``(seed, kernel, index)``, a campaign
interrupted at any point resumes from its JSON checkpoint to the exact
report an uninterrupted run produces -- same convention as
:mod:`repro.faults.chaos`.  The sweep is over pure cases with no
service to drive and no ledger to balance, so it keeps its own loop;
with the campaign driver (:mod:`repro.faults.campaign`) it shares only
the canonical report serialization.

Checkpoints are written atomically (tmp + replace) every
``checkpoint_every`` cases and keyed by the campaign config; a
checkpoint written under a different config is ignored rather than
half-trusted.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.campaign import JsonReport
from repro.guard.diff import (
    DIFF_KERNELS,
    KernelPrograms,
    compile_kernel_programs,
    generate_payload,
    probe_cell,
    run_case,
    shrink_mismatch,
)
from repro.guard.sentinels import SENTINEL_FIELDS, make_sentinel
from repro.guard.verifier import check_program

#: Checkpoint schema version; bump on incompatible layout changes.
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class GuardConfig:
    """Parameters of one differential-fuzz campaign."""

    seed: int = 7
    jobs_per_kernel: int = 25
    kernels: Tuple[str, ...] = DIFF_KERNELS
    #: Random verify_program probes per cell program per campaign.
    probes_per_cell: int = 3
    #: Cases between checkpoint writes (0 disables checkpointing).
    checkpoint_every: int = 10

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "jobs_per_kernel": self.jobs_per_kernel,
            "kernels": list(self.kernels),
            "probes_per_cell": self.probes_per_cell,
        }


@dataclass
class KernelOutcome:
    """Accumulated results for one kernel's sweep."""

    kernel: str
    cases_run: int = 0
    mismatches: int = 0
    verifier_violations: int = 0
    sentinel_counts: Dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in SENTINEL_FIELDS}
    )
    reproducers: List[Dict[str, Any]] = field(default_factory=list)
    violations: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatches and not self.verifier_violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "cases_run": self.cases_run,
            "mismatches": self.mismatches,
            "verifier_violations": self.verifier_violations,
            "sentinels": dict(sorted(self.sentinel_counts.items())),
            "reproducers": list(self.reproducers),
            "violations": list(self.violations),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "KernelOutcome":
        outcome = cls(kernel=data["kernel"])
        outcome.cases_run = int(data.get("cases_run", 0))
        outcome.mismatches = int(data.get("mismatches", 0))
        outcome.verifier_violations = int(data.get("verifier_violations", 0))
        counts = data.get("sentinels", {})
        for name in SENTINEL_FIELDS:
            outcome.sentinel_counts[name] = int(counts.get(name, 0))
        outcome.reproducers = list(data.get("reproducers", []))
        outcome.violations = list(data.get("violations", []))
        return outcome


@dataclass
class GuardReport(JsonReport):
    """The deterministic result of a campaign.

    ``to_dict`` contains only values that are pure functions of the
    config, so two same-config runs -- or a fresh run and a
    kill-then-resume run -- serialize byte-identically (``to_json`` is
    the one every campaign report shares).
    """

    config: GuardConfig
    outcomes: List[KernelOutcome] = field(default_factory=list)
    resumed: bool = False

    @property
    def total_cases(self) -> int:
        return sum(outcome.cases_run for outcome in self.outcomes)

    @property
    def total_mismatches(self) -> int:
        return sum(outcome.mismatches for outcome in self.outcomes)

    @property
    def total_violations(self) -> int:
        return sum(outcome.verifier_violations for outcome in self.outcomes)

    @property
    def clean(self) -> bool:
        return all(outcome.clean for outcome in self.outcomes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "total_cases": self.total_cases,
            "total_mismatches": self.total_mismatches,
            "total_verifier_violations": self.total_violations,
            "clean": self.clean,
            "kernels": [outcome.to_dict() for outcome in self.outcomes],
        }

    def render(self) -> str:
        lines = [
            "gendp-guard campaign "
            f"(seed={self.config.seed}, jobs/kernel={self.config.jobs_per_kernel})",
            f"{'kernel':<14}{'cases':>7}{'mismatch':>10}{'violations':>12}"
            f"{'overflow':>10}{'saturate':>10}{'underflow':>11}",
        ]
        for outcome in self.outcomes:
            counts = outcome.sentinel_counts
            lines.append(
                f"{outcome.kernel:<14}{outcome.cases_run:>7}"
                f"{outcome.mismatches:>10}{outcome.verifier_violations:>12}"
                f"{counts['int32_overflows']:>10}"
                f"{counts['lane_saturations']:>10}"
                f"{counts['underflows']:>11}"
            )
        verdict = "CLEAN" if self.clean else "FAILURES DETECTED"
        lines.append(
            f"total: {self.total_cases} cases, {self.total_mismatches} mismatches, "
            f"{self.total_violations} verifier violations -> {verdict}"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# checkpointing


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def save_checkpoint(path: str, config: GuardConfig, outcomes: List[KernelOutcome]) -> None:
    """Persist campaign progress atomically."""
    state = {
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "kernels": [outcome.to_dict() for outcome in outcomes],
    }
    _atomic_write(path, json.dumps(state, sort_keys=True))


def load_checkpoint(path: str, config: GuardConfig) -> Optional[List[KernelOutcome]]:
    """Load progress for *config*, or None if absent/incompatible.

    A checkpoint written under a different config (or schema version)
    is ignored -- resuming someone else's campaign would corrupt both.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
    except (OSError, ValueError):
        return None
    if state.get("version") != CHECKPOINT_VERSION:
        return None
    if state.get("config") != config.to_dict():
        return None
    try:
        return [KernelOutcome.from_dict(entry) for entry in state["kernels"]]
    except (KeyError, TypeError, ValueError):
        return None


# ----------------------------------------------------------------------
# the campaign loop


def _run_kernel_case(
    kernel: str,
    index: int,
    config: GuardConfig,
    programs: KernelPrograms,
    outcome: KernelOutcome,
) -> None:
    """Run differential case *index* and fold it into *outcome*."""
    sentinel = make_sentinel(kernel)
    payload = generate_payload(kernel, config.seed, index)
    result = run_case(kernel, payload, programs, sentinel)
    outcome.cases_run += 1
    for name, count in sentinel.snapshot().items():
        outcome.sentinel_counts[name] += count
    if not result.ok:
        outcome.mismatches += 1
        reproducer = shrink_mismatch(
            kernel, config.seed, index, payload, programs
        )
        outcome.reproducers.append(reproducer.to_dict())


def _static_verify(
    programs: KernelPrograms, outcome: KernelOutcome
) -> None:
    """Statically verify the kernel's program(s) into *outcome*."""
    for name, program in programs.named_cells():
        result = check_program(program, name=name)
        if not result.ok:
            outcome.verifier_violations += len(result.violations)
            outcome.violations.extend(
                violation.to_dict() for violation in result.violations
            )


def _probe_cells(
    config: GuardConfig, programs: KernelPrograms, outcome: KernelOutcome
) -> None:
    """Random-input program-vs-DFG probes of the kernel's cells."""
    for index, (_, program) in enumerate(programs.named_cells()):
        reproducer = probe_cell(
            programs.kernel,
            program,
            config.seed,
            index,
            probes=config.probes_per_cell,
        )
        if reproducer is not None:
            outcome.mismatches += 1
            outcome.reproducers.append(reproducer.to_dict())


def run_guard_campaign(
    config: GuardConfig,
    checkpoint_path: Optional[str] = None,
    max_cases: Optional[int] = None,
) -> GuardReport:
    """Run (or resume) a campaign and return its report.

    ``max_cases`` bounds differential cases executed *this call* (for
    tests that simulate an interrupted sweep); the checkpoint then
    holds partial progress and the next call finishes the campaign.
    """
    outcomes: Optional[List[KernelOutcome]] = None
    resumed = False
    if checkpoint_path:
        outcomes = load_checkpoint(checkpoint_path, config)
        resumed = outcomes is not None
    if outcomes is None:
        outcomes = [KernelOutcome(kernel=kernel) for kernel in config.kernels]
    by_kernel = {outcome.kernel: outcome for outcome in outcomes}

    budget = max_cases if max_cases is not None else float("inf")
    since_checkpoint = 0
    for kernel in config.kernels:
        if budget <= 0:
            break  # before verify/probes: a checkpointed-but-untouched
            # kernel must stay untouched, or resume would repeat them
        outcome = by_kernel[kernel]
        if outcome.cases_run >= config.jobs_per_kernel:
            continue  # kernel finished in a previous run
        programs = compile_kernel_programs(kernel)
        if outcome.cases_run == 0:
            # Static verification + cell probes run once per kernel,
            # before its first differential case, so a resumed sweep
            # never repeats (or double-counts) them.
            _static_verify(programs, outcome)
            _probe_cells(config, programs, outcome)
        for index in range(outcome.cases_run, config.jobs_per_kernel):
            if budget <= 0:
                break
            _run_kernel_case(kernel, index, config, programs, outcome)
            budget -= 1
            since_checkpoint += 1
            if (
                checkpoint_path
                and config.checkpoint_every
                and since_checkpoint >= config.checkpoint_every
            ):
                save_checkpoint(checkpoint_path, config, outcomes)
                since_checkpoint = 0
        if budget <= 0:
            break

    if checkpoint_path:
        save_checkpoint(checkpoint_path, config, outcomes)
    return GuardReport(config=config, outcomes=outcomes, resumed=resumed)
