"""Compile-time safety certificates for cell programs.

A :class:`ProgramSafetyCertificate` records, per hazard class the
runtime sentinel for that kernel arms (:func:`make_sentinel`), whether
the interval analysis proved the hazard *cannot* fire for any cell
invocation whose inputs respect the declared contract:

- ``int32-overflow`` -- every observed value inside [INT32_MIN,
  INT32_MAX]; armed for every kernel.
- ``lane-saturation`` -- every observed value inside the signed 8-bit
  lane range; armed for BSW (the paper's SIMD kernel).
- ``log-underflow`` -- every observed value strictly above the log2
  fixed-point floor; armed for PairHMM.

``sentinel_free`` is the conjunction over armed classes.  The proof is
*per-invocation conditional*: monotone DP accumulators (DTW's
distance, LCS's counter, chaining's score) grow across cells, so a
contract closed under the recurrence is impossible for them --
``inductively_closed`` reports whether the declared contract happens
to be a recurrence invariant (POA's edge fold and Bellman-Ford's
relaxation are), purely as information.  Contract validity on real
sweeps is enforced by the fuzz soundness harness and by the engine's
runtime cross-check: a sentinel firing on a certified program
increments ``static_certificate_violations`` and is a hard test
failure.

The engine attaches certificates as plain dicts
(:func:`compiled_certificate`) so ``CompiledProgram`` stays a simple
picklable value crossing the shared-memory worker boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dpax.pe import INT32_MAX, INT32_MIN, LANE8_MAX, LANE8_MIN
from repro.guard.sentinels import PAIRHMM_UNDERFLOW_FLOOR, make_sentinel
from repro.static.absint import analyze_fixpoint, analyze_program, as_linear
from repro.static.contracts import KernelContract, kernel_contract
from repro.static.intervals import Interval

#: Hazard classes in report order.
HAZARD_CLASSES = ("int32-overflow", "lane-saturation", "log-underflow")

_INT32 = Interval(INT32_MIN, INT32_MAX)
_LANE8 = Interval(LANE8_MIN, LANE8_MAX)


def armed_hazards(kernel: str) -> Tuple[str, ...]:
    """The hazard classes :func:`make_sentinel` arms for *kernel*."""
    sentinel = make_sentinel(kernel)
    armed = ["int32-overflow"]
    if sentinel.lane_bits is not None:
        armed.append("lane-saturation")
    if sentinel.underflow_floor is not None:
        armed.append("log-underflow")
    return tuple(armed)


def _hazard_ok(hazard: str, interval: Interval) -> bool:
    if hazard == "int32-overflow":
        return interval.within(_INT32)
    if hazard == "lane-saturation":
        return interval.within(_LANE8)
    if hazard == "log-underflow":
        # Sentinel semantics: value <= floor counts as an underflow.
        return interval.definitely_above(PAIRHMM_UNDERFLOW_FLOOR)
    raise ValueError(f"unknown hazard class {hazard!r}")


@dataclass(frozen=True)
class HazardVerdict:
    """One hazard class's proof outcome."""

    hazard: str
    armed: bool
    proven_absent: bool
    #: Observation index + bundle of the first unprovable value, for
    #: diagnostics ("observation 12, bundle 3"); None when proven.
    witness: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "hazard": self.hazard,
            "armed": self.armed,
            "proven_absent": self.proven_absent,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class ProgramSafetyCertificate:
    name: str
    kernel: str
    program_hash: str
    contract: bool
    sentinel_free: bool
    verdicts: Tuple[HazardVerdict, ...]
    inductively_closed: bool
    fixpoint_iterations: int
    #: (lo, hi) per runtime observe call, in observation order; the
    #: soundness harness replays concrete executions against this.
    observed_intervals: Tuple[Tuple[Optional[int], Optional[int]], ...]

    def verdict(self, hazard: str) -> Optional[HazardVerdict]:
        for entry in self.verdicts:
            if entry.hazard == hazard:
                return entry
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kernel": self.kernel,
            "program_hash": self.program_hash,
            "contract": self.contract,
            "sentinel_free": self.sentinel_free,
            "verdicts": [entry.to_dict() for entry in self.verdicts],
            "inductively_closed": self.inductively_closed,
            "fixpoint_iterations": self.fixpoint_iterations,
            "observed_intervals": [
                list(pair) for pair in self.observed_intervals
            ],
        }

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "ProgramSafetyCertificate":
        return ProgramSafetyCertificate(
            name=str(data["name"]),
            kernel=str(data["kernel"]),
            program_hash=str(data["program_hash"]),
            contract=bool(data["contract"]),
            sentinel_free=bool(data["sentinel_free"]),
            verdicts=tuple(
                HazardVerdict(
                    hazard=str(entry["hazard"]),
                    armed=bool(entry["armed"]),
                    proven_absent=bool(entry["proven_absent"]),
                    witness=entry.get("witness"),
                )
                for entry in data.get("verdicts", ())
            ),
            inductively_closed=bool(data["inductively_closed"]),
            fixpoint_iterations=int(data["fixpoint_iterations"]),
            observed_intervals=tuple(
                (pair[0], pair[1])
                for pair in data.get("observed_intervals", ())
            ),
        )


def _uncertified(
    name: str, kernel: str, program_hash: str
) -> ProgramSafetyCertificate:
    verdicts = tuple(
        HazardVerdict(
            hazard=hazard,
            armed=hazard in armed_hazards(kernel),
            proven_absent=False,
            witness="no declared input contract",
        )
        for hazard in HAZARD_CLASSES
    )
    return ProgramSafetyCertificate(
        name=name,
        kernel=kernel,
        program_hash=program_hash,
        contract=False,
        sentinel_free=False,
        verdicts=verdicts,
        inductively_closed=False,
        fixpoint_iterations=0,
        observed_intervals=(),
    )


def certify_program(
    kernel: str,
    program,
    name: Optional[str] = None,
    contract: Optional[KernelContract] = None,
) -> ProgramSafetyCertificate:
    """Run the value-range analysis and issue a certificate.

    *program* is a :class:`repro.dpmap.codegen.CellProgram` or an
    engine :class:`repro.engine.cache.CompiledProgram`.  With no
    contract (declared or passed), the program is honestly reported
    uncertified rather than guessed at.
    """
    label = name or kernel
    if contract is None:
        contract = kernel_contract(label)
    program_hash = getattr(program, "program_hash", "")
    if not program_hash and hasattr(program, "content_hash"):
        program_hash = program.content_hash()
    if contract is None:
        return _uncertified(label, kernel, program_hash)

    linear = as_linear(program)
    analysis = analyze_program(
        linear, dict(contract.inputs), contract.match_range
    )
    observed: List[Tuple[Interval, Optional[int]]] = []
    for way in analysis.ways:
        for interval in way.observed:
            observed.append((interval, way.bundle))

    armed = armed_hazards(contract.kernel)
    verdicts = []
    for hazard in HAZARD_CLASSES:
        witness = None
        proven = True
        for index, (interval, bundle) in enumerate(observed):
            if not _hazard_ok(hazard, interval):
                proven = False
                witness = (
                    f"observation {index}"
                    + (f", bundle {bundle}" if bundle is not None else "")
                    + f": {interval}"
                )
                break
        verdicts.append(
            HazardVerdict(
                hazard=hazard,
                armed=hazard in armed,
                proven_absent=proven,
                witness=witness,
            )
        )

    fixpoint = analyze_fixpoint(
        linear,
        dict(contract.inputs),
        dict(contract.feedback),
        contract.match_range,
        first=analysis,
    )
    sentinel_free = all(
        verdict.proven_absent for verdict in verdicts if verdict.armed
    )
    return ProgramSafetyCertificate(
        name=label,
        kernel=contract.kernel,
        program_hash=program_hash,
        contract=True,
        sentinel_free=sentinel_free,
        verdicts=tuple(verdicts),
        inductively_closed=fixpoint.inductively_closed,
        fixpoint_iterations=fixpoint.iterations,
        observed_intervals=tuple(
            (interval.lo, interval.hi) for interval, _ in observed
        ),
    )


def compiled_certificate(
    kernel: str, compiled
) -> Optional[Dict[str, object]]:
    """Certificate dict for the engine's compile seam, or None.

    Analysis failures (exotic programs the linearizer rejects) must
    never fail a compile, so they degrade to "no certificate" -- the
    engine then simply keeps the sentinels on.
    """
    try:
        certificate = certify_program(kernel, compiled, name=kernel)
    except Exception:
        return None
    return certificate.to_dict()
