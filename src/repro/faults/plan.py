"""Seed-driven fault schedules.

A :class:`FaultPlan` decides, deterministically, which jobs of a
stream misbehave and how.  Decisions are pure functions of ``(seed,
stream index)`` -- not of job ids, wall-clock time or ``random``'s
global state -- so the same plan over the same stream injects the same
faults in two different processes, which is what makes chaos campaign
reports comparable run to run.

Fault classes map onto the engine's existing seams:

=============  ====================  =================================
kind           payload marker        what it exercises
=============  ====================  =================================
``crash``      ``_inject_exit``      worker death -> retry, respawn,
                                     inline degradation
``hang``       ``_inject_delay_s``   timeout -> same retry path
``corrupt``    ``_inject_corrupt``   silent result bit-flip -> the
                                     sampling validation guard
``fail``       ``_inject_fail``      per-job exception -> error
                                     envelopes, dead-letter queue
(compile)      --                    :meth:`maybe_fail_compile` raises
                                     inside the program-cache seam
=============  ====================  =================================

``crash`` and ``hang`` markers act only inside worker processes
(see :mod:`repro.engine.runners`), so the inline floor stays healthy by
construction; ``corrupt`` acts on every backend, modelling the
accelerator soft error that degradation cannot dodge and only
software-baseline validation catches.

A plan with all rates zero is inert and costs nothing: the engine and
campaign check :attr:`FaultPlan.enabled` once and skip every hook.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: Per-job fault kinds, in the order the cumulative draw checks them.
FAULT_KINDS = ("crash", "hang", "corrupt", "fail")


class InjectedCompileError(RuntimeError):
    """A compile failure injected by a :class:`FaultPlan`."""


def unit_draw(seed: int, *parts: object) -> float:
    """A uniform [0, 1) draw that is a pure function of its arguments.

    Built on blake2b rather than ``hash()`` (salted per process) or a
    shared ``random.Random`` (order-dependent), so every decision is
    independently reproducible.  This is the seeded-determinism
    primitive shared by fault plans, chaos campaigns and the guard's
    differential fuzzer: any consumer that derives all randomness
    through it gets byte-identical behavior for the same seed.
    """
    text = ":".join(str(part) for part in (seed, *parts))
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def seeded_rng(seed: int, *parts: object) -> random.Random:
    """A ``random.Random`` whose state is a pure function of its args.

    Use when a consumer needs many draws for one decision point (e.g.
    generating one fuzz workload): the sub-seed is derived through the
    same blake2b scheme as :func:`unit_draw`, so two processes build
    identical generators from identical ``(seed, *parts)``.
    """
    text = ":".join(str(part) for part in (seed, *parts))
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults."""

    seed: int = 0
    #: Per-job probabilities; at most one fault kind per job.
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    corrupt_rate: float = 0.0
    fail_rate: float = 0.0
    #: Probability that one *compile attempt* raises.
    compile_fail_rate: float = 0.0
    #: How long a hung job sleeps; must exceed the executor's job
    #: timeout for the hang to register as a timeout.
    hang_delay_s: float = 2.0
    #: Queue-pressure bursts: every Nth chunk of a campaign multiplies
    #: its submissions by ``burst_factor`` (0 = no bursts).
    burst_every: int = 0
    burst_factor: int = 2

    def __post_init__(self) -> None:
        rates = {
            "crash_rate": self.crash_rate,
            "hang_rate": self.hang_rate,
            "corrupt_rate": self.corrupt_rate,
            "fail_rate": self.fail_rate,
            "compile_fail_rate": self.compile_fail_rate,
        }
        for name, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        total = self.crash_rate + self.hang_rate + self.corrupt_rate + self.fail_rate
        if total > 1.0:
            raise ValueError(f"per-job fault rates sum to {total} > 1")
        if self.hang_delay_s <= 0:
            raise ValueError("hang_delay_s must be positive")
        if self.burst_every < 0:
            raise ValueError("burst_every must be non-negative")
        if self.burst_factor < 1:
            raise ValueError("burst_factor must be at least 1")

    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when any fault class can fire."""
        return bool(
            self.crash_rate
            or self.hang_rate
            or self.corrupt_rate
            or self.fail_rate
            or self.compile_fail_rate
            or self.burst_every
        )

    def fault_for(self, index: int) -> Optional[str]:
        """The fault kind (or None) for stream position *index*."""
        draw = unit_draw(self.seed, "job", index)
        threshold = 0.0
        for kind, rate in zip(
            FAULT_KINDS,
            (self.crash_rate, self.hang_rate, self.corrupt_rate, self.fail_rate),
        ):
            threshold += rate
            if draw < threshold:
                return kind
        return None

    def decorate(
        self, index: int, payload: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Optional[str]]:
        """Return ``(payload, kind)``; a faulted payload is a copy."""
        kind = self.fault_for(index)
        if kind is None:
            return payload, None
        decorated = dict(payload)
        if kind == "crash":
            decorated["_inject_exit"] = True
        elif kind == "hang":
            decorated["_inject_delay_s"] = self.hang_delay_s
        elif kind == "corrupt":
            decorated["_inject_corrupt"] = True
        else:
            decorated["_inject_fail"] = True
        return decorated, kind

    def maybe_fail_compile(self, kernel: str, attempt: int) -> None:
        """Raise :class:`InjectedCompileError` when this attempt fails.

        *attempt* is the engine's per-kernel compile-attempt ordinal,
        so replayed work re-rolls instead of failing forever.
        """
        if not self.compile_fail_rate:
            return
        if unit_draw(self.seed, "compile", kernel, attempt) < self.compile_fail_rate:
            raise InjectedCompileError(
                f"injected compile failure for {kernel!r} (attempt {attempt})"
            )

    def burst_factor_for(self, chunk_index: int) -> int:
        """Submission multiplier for campaign chunk *chunk_index*."""
        if self.burst_every and (chunk_index + 1) % self.burst_every == 0:
            return self.burst_factor
        return 1
