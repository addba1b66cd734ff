"""Generator for ``golden_campaigns.json``: ten seeded campaign reports.

The golden file was written at the last commit where the engine,
recovery and cluster campaigns each had their own submit/drain loop
(``faults/chaos.py``, ``durable/campaign.py``, ``cluster/chaos.py``);
the one driver in :mod:`repro.faults.campaign` must reproduce every
``to_dict()`` exactly.  R4 (heavy torn writes and bit flips) was
regenerated twice on purpose: once when the journal's final segment
learned to resync past a bit-flipped frame instead of truncating behind
it, and once when the unverified write mode it used to run under was
deleted -- under read-back healing, the journal's only write path, the
same seed and rates survive.  Regenerate (only when a campaign's
semantics deliberately change) with::

    PYTHONPATH=src python -m tests.faults.golden_campaigns
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Callable, Dict

from repro.cluster import ClusterChaosConfig, run_cluster_campaign
from repro.durable import RecoveryChaosConfig, run_recovery_campaign
from repro.faults import ChaosConfig, run_campaign

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_campaigns.json")

CASES: Dict[str, Callable[[], Any]] = {
    "E1": lambda: run_campaign(ChaosConfig(jobs=200, seed=9)),
    "E2": lambda: run_campaign(
        ChaosConfig(
            # Integer zeros on purpose: the report echoes them as given.
            jobs=96, seed=4, hang_rate=0.04, crash_rate=0, corrupt_rate=0,
            fail_rate=0, compile_fail_rate=0, validate_fraction=0,
        )
    ),
    "E3": lambda: run_campaign(
        ChaosConfig(jobs=120, seed=3, workers=0, burst_every=2)
    ),
    "R1": lambda: run_recovery_campaign(
        RecoveryChaosConfig(
            jobs=120, seed=11, crash_rate=0.4, torn_rate=0.05, bitflip_rate=0.05
        )
    ),
    "R2": lambda: run_recovery_campaign(
        RecoveryChaosConfig(
            jobs=48, chunk_jobs=12, seed=5, crash_rate=0.4, fail_rate=0.2,
            max_retries=0,
        )
    ),
    "R3": lambda: run_recovery_campaign(
        RecoveryChaosConfig(
            jobs=48, chunk_jobs=12, seed=2, crash_rate=0.3, compact_every=1
        )
    ),
    "R4": lambda: run_recovery_campaign(
        RecoveryChaosConfig(
            jobs=48, chunk_jobs=12, seed=1, crash_rate=0.4, torn_rate=0.1,
            bitflip_rate=0.1,
        )
    ),
    "C1": lambda: run_cluster_campaign(
        ClusterChaosConfig(
            jobs=200, seed=9, shards=4, kills=((2, 1),), partition_rate=0.1
        )
    ),
    "C2": lambda: run_cluster_campaign(
        ClusterChaosConfig(jobs=80, seed=9, shards=4, chunk_jobs=20, hang_rate=0.3)
    ),
    "C3": lambda: run_cluster_campaign(
        ClusterChaosConfig(
            jobs=384, seed=12, shards=8, chunk_jobs=96, shard_queue=384,
            affinity_stride=64, validate_fraction=0.0,
        )
    ),
}


def digest(document: Dict[str, Any]) -> str:
    """The ten-hex-digit report digest CHANGES.md quotes per campaign."""
    return hashlib.sha1(
        json.dumps(document, sort_keys=True).encode()
    ).hexdigest()[:10]


def generate() -> Dict[str, Any]:
    # One JSON round trip so tuples compare as they are stored.
    return {
        name: json.loads(json.dumps(run().to_dict()))
        for name, run in CASES.items()
    }


if __name__ == "__main__":
    golden = generate()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    for name, document in golden.items():
        print(name, digest(document), "survived" if document["survived"] else "FAILED")
