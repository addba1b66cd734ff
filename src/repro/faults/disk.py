"""Seed-driven disk-fault schedules for the durable journal.

:class:`DiskFaultPlan` is :class:`repro.faults.plan.FaultPlan`'s idea
applied one layer down: instead of deciding which *jobs* misbehave, it
decides which *journal writes* misbehave.  Decisions are pure functions
of ``(seed, write index)`` through the shared :func:`unit_draw`
primitive, so a recovery campaign that derives all of its randomness
here produces byte-identical reports for the same seed.

Fault classes map onto the journal's write path
(:mod:`repro.durable.journal`):

==============  ====================================================
kind            what it models / exercises
==============  ====================================================
``torn``        power loss mid-``write(2)``: only a seeded prefix of
                the frame reaches the file, which read-back
                verification catches and heals in-process
``bitflip``     silent media corruption: one seeded bit of the frame
                flips before it is written, which only the CRC32
                check (at read time) or read-back verification (at
                write time) can catch
``short_fsync`` a lying disk: ``fsync`` returns success without
                persisting, so a simulated power loss drops bytes the
                writer believed were synced
``enospc``      the volume fills: appends past a byte budget raise
                ``OSError(ENOSPC)`` and the journal must refuse new
                work without corrupting what is already on disk
==============  ====================================================

A plan with all rates zero (and no byte budget) is inert: the journal
checks :attr:`DiskFaultPlan.enabled` once and skips every hook.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass
from typing import Optional

from repro.faults.plan import unit_draw

#: Per-write disk fault kinds, in the order the cumulative draw checks
#: them (``short_fsync`` rides on sync calls, not writes; ``enospc``
#: is a byte budget, not a draw).
DISK_FAULT_KINDS = ("torn", "bitflip", "short_fsync", "enospc")


@dataclass(frozen=True)
class DiskFaultPlan:
    """A deterministic schedule of injected disk faults."""

    seed: int = 0
    #: Per-write probabilities; at most one fault kind per write.
    torn_rate: float = 0.0
    bitflip_rate: float = 0.0
    #: Per-``fsync`` probability that the sync silently persists
    #: nothing (a lying disk).
    short_fsync_rate: float = 0.0
    #: Total journal bytes after which appends raise ``ENOSPC``
    #: (0 = unlimited).
    enospc_after_bytes: int = 0

    def __post_init__(self) -> None:
        for name in ("torn_rate", "bitflip_rate", "short_fsync_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.torn_rate + self.bitflip_rate > 1.0:
            raise ValueError("per-write fault rates sum to > 1")
        if self.enospc_after_bytes < 0:
            raise ValueError("enospc_after_bytes must be non-negative")

    @property
    def enabled(self) -> bool:
        """True when any fault class can fire."""
        return bool(
            self.torn_rate
            or self.bitflip_rate
            or self.short_fsync_rate
            or self.enospc_after_bytes
        )

    # ------------------------------------------------------------------
    # write-path hooks

    def fault_for_write(self, index: int) -> Optional[str]:
        """``"torn"``, ``"bitflip"`` or None for write ordinal *index*."""
        if not (self.torn_rate or self.bitflip_rate):
            return None
        draw = unit_draw(self.seed, "disk", index)
        if draw < self.torn_rate:
            return "torn"
        if draw < self.torn_rate + self.bitflip_rate:
            return "bitflip"
        return None

    def torn_length(self, index: int, size: int) -> int:
        """How many bytes of a *size*-byte frame a torn write lands.

        Always strictly shorter than the frame (that is what makes it
        torn) and deterministic per write index.
        """
        if size <= 1:
            return 0
        return int(unit_draw(self.seed, "torn", index) * size) % size

    def flip(self, index: int, frame: bytes) -> bytes:
        """*frame* with one seeded bit flipped."""
        if not frame:
            return frame
        bit = int(unit_draw(self.seed, "flip", index) * len(frame) * 8)
        byte_index, bit_index = divmod(bit % (len(frame) * 8), 8)
        corrupted = bytearray(frame)
        corrupted[byte_index] ^= 1 << bit_index
        return bytes(corrupted)

    def check_space(self, bytes_written: int, frame_len: int) -> None:
        """Raise ``OSError(ENOSPC)`` when the budget would be exceeded."""
        if (
            self.enospc_after_bytes
            and bytes_written + frame_len > self.enospc_after_bytes
        ):
            raise OSError(
                errno.ENOSPC,
                f"injected ENOSPC: journal byte budget "
                f"{self.enospc_after_bytes} exhausted",
            )

    # ------------------------------------------------------------------
    # sync-path hook

    def fsync_lies(self, sync_index: int) -> bool:
        """True when sync ordinal *sync_index* silently persists nothing."""
        if not self.short_fsync_rate:
            return False
        return (
            unit_draw(self.seed, "fsync", sync_index) < self.short_fsync_rate
        )
