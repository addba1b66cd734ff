"""repro.cluster -- sharded multi-engine cluster with failover.

One :class:`~repro.engine.Engine` is a single failure domain: one
queue, one set of workers, one program cache.  This package scales
the serving tier sideways -- the replicated-systolic-array argument
of the paper's Table 12, reproduced as software shards -- without
giving up the reliability contract the engine already guarantees
(exactly one envelope per accepted job):

- :mod:`repro.cluster.hashring` -- consistent hashing with virtual
  nodes; jobs route by DFG content hash for compiled-cache affinity,
  and shard join/leave remaps only ~K/N keys;
- :mod:`repro.cluster.health`   -- per-shard heartbeats, rolling
  error/latency windows, and a shard-granularity circuit breaker that
  ejects (and later rejoins) unhealthy shards;
- :mod:`repro.cluster.shard`    -- one engine plus its lifecycle state
  machine, health and fault flags;
- :mod:`repro.cluster.router`   -- the front door: health-aware
  routing, the one in-flight ledger that makes failover lossless,
  bounded work stealing, graceful join/leave/drain, virtual-time
  scaling accounting;
- :mod:`repro.cluster.clock`    -- injectable real/simulated time, the
  determinism seam for chaos campaigns;
- :mod:`repro.cluster.chaos`    -- seeded cluster campaigns driven by
  a :class:`~repro.faults.shards.ShardFaultPlan` (kills, hangs,
  partitions) with byte-identical reports.

CLI: ``gendp-cluster``; ``docs/cluster.md`` has the topology, health
model and chaos knobs.
"""

from repro.cluster.chaos import (
    ClusterChaosConfig,
    ClusterReport,
    run_cluster_campaign,
)
from repro.cluster.clock import SimClock, is_simulated, real_clock
from repro.cluster.hashring import HashRing, ring_hash
from repro.cluster.health import (
    BREAKER_CODES,
    HEALTH_CODES,
    HEALTH_STATES,
    ShardHealth,
)
from repro.cluster.router import ClusterConfig, ClusterRouter
from repro.cluster.shard import (
    SHARD_STATE_CODES,
    SHARD_STATES,
    EngineShard,
)

__all__ = [
    "BREAKER_CODES",
    "ClusterChaosConfig",
    "ClusterConfig",
    "ClusterReport",
    "ClusterRouter",
    "EngineShard",
    "HEALTH_CODES",
    "HEALTH_STATES",
    "HashRing",
    "SHARD_STATE_CODES",
    "SHARD_STATES",
    "ShardHealth",
    "SimClock",
    "is_simulated",
    "real_clock",
    "ring_hash",
    "run_cluster_campaign",
]
