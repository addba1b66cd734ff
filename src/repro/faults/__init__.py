"""repro.faults -- deterministic fault injection and chaos campaigns.

The serving engine (:mod:`repro.engine`) has failure seams -- worker
retry, inline degradation, deadlines, the compile path -- but seams
that are never exercised rot.  This package drives them on purpose:

- :mod:`repro.faults.plan`  -- :class:`FaultPlan`, a seed-driven fault
  schedule that decorates job payloads with crash / hang / corruption /
  failure markers and injects compile failures, all reproducible from
  one integer seed and free when disabled;
- :mod:`repro.faults.campaign` -- the one campaign driver: the seeded
  job stream, the chunked submit/crash/recover/drain loop over any
  engine-shaped target, and the id-keyed :class:`Ledger` every
  scenario's verdict comes from;
- :mod:`repro.faults.chaos` -- the engine scenario: run a mixed job
  stream through an engine under a plan and report survival metrics
  (jobs lost, corruption escapes, degraded fraction);
- :mod:`repro.faults.shards` -- :class:`ShardFaultPlan`, the same idea
  one level up: a seed-driven schedule of shard kills, hangs and
  partitions that :mod:`repro.cluster` replays for deterministic
  cluster chaos;
- :mod:`repro.faults.disk`   -- :class:`DiskFaultPlan`, the same idea
  one level *down*: seeded torn writes, bit flips, lying fsyncs and
  ENOSPC against the write-ahead journal (:mod:`repro.durable`).

The CLI front end is ``gendp-chaos``; ``docs/reliability.md`` has the
fault taxonomy and the hardening each fault class forced.
"""

from repro.faults.campaign import Ledger, drive
from repro.faults.chaos import CampaignReport, ChaosConfig, run_campaign
from repro.faults.disk import DISK_FAULT_KINDS, DiskFaultPlan
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    InjectedCompileError,
    seeded_rng,
    unit_draw,
)
from repro.faults.shards import SHARD_FAULT_KINDS, ShardFaultPlan

__all__ = [
    "CampaignReport",
    "ChaosConfig",
    "DISK_FAULT_KINDS",
    "DiskFaultPlan",
    "FAULT_KINDS",
    "FaultPlan",
    "InjectedCompileError",
    "Ledger",
    "SHARD_FAULT_KINDS",
    "ShardFaultPlan",
    "drive",
    "run_campaign",
    "seeded_rng",
    "unit_draw",
]
