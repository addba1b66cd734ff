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

from repro.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "Ledger": "campaign",
        "drive": "campaign",
        "CampaignReport": "chaos",
        "ChaosConfig": "chaos",
        "run_campaign": "chaos",
        "DISK_FAULT_KINDS": "disk",
        "DiskFaultPlan": "disk",
        "FAULT_KINDS": "plan",
        "FaultPlan": "plan",
        "InjectedCompileError": "plan",
        "seeded_rng": "plan",
        "unit_draw": "plan",
        "SHARD_FAULT_KINDS": "shards",
        "ShardFaultPlan": "shards",
    },
)

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
