"""Batch packing onto the DPAx tile geometry.

Pending jobs are grouped by ``(kernel, size bin)`` and packed into
batches shaped like one tile launch, mirroring the two interconnect
modes of :mod:`repro.dpax.machine` (Section 3.1):

- **2-D kernels** (BSW, PairHMM, LCS, DTW) run with independent 4-PE
  arrays, one task per array, so a batch carries up to
  :data:`~repro.datapath.INTEGER_ARRAYS` jobs side by side.
- **1-D kernels** (Chain) concatenate the 16 arrays into one 64-PE
  systolic chain; tasks stream through it back to back, so a batch is
  a stream of up to the same 16 tasks sharing one program load.

Size bins are power-of-two buckets of the per-job DP-cell estimate:
tasks of similar size finish together, which keeps arrays from idling
behind one straggler (the batch-occupancy histogram watches this).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.datapath import INTEGER_ARRAYS
from repro.engine.jobs import KERNEL_DIMENSIONS, Job
from repro.engine.runners import payload_cells

#: Batch execution modes (the machine's interconnect configurations).
MODE_ARRAYS = "arrays"  # independent 4-PE arrays, one task each
MODE_CHAIN = "chain"  # concatenated 64-PE chain, tasks streamed

_batch_ids = itertools.count()


@dataclass
class Batch:
    """One tile launch worth of same-kernel, similar-size jobs."""

    batch_id: int
    kernel: str
    mode: str
    size_bin: int
    capacity: int
    jobs: List[Job] = field(default_factory=list)

    @property
    def occupancy(self) -> float:
        """Packed fraction of the tile launch (1.0 = full)."""
        return len(self.jobs) / self.capacity if self.capacity else 0.0


def size_bin(cells: int) -> int:
    """Power-of-two bucket index of a job's DP-cell count."""
    if cells <= 0:
        return 0
    return max(0, cells - 1).bit_length()


def mode_for(kernel: str) -> str:
    return MODE_CHAIN if KERNEL_DIMENSIONS.get(kernel) == 1 else MODE_ARRAYS


class Batcher:
    """Greedy packer: priority order in, tile-shaped batches out."""

    def __init__(self, capacity: int = INTEGER_ARRAYS):
        if capacity <= 0:
            raise ValueError("batch capacity must be positive")
        self.capacity = capacity

    def pack(self, jobs: Sequence[Job]) -> List[Batch]:
        """Pack *jobs* into batches, preserving priority order.

        Jobs are sorted by descending priority (submission order breaks
        ties), grouped by ``(kernel, size bin)``, and chunked at the
        tile capacity.  Returned batches are ordered by the best
        priority they contain, so a drain dispatches urgent work first.
        """
        ordered = sorted(
            enumerate(jobs), key=lambda pair: (-pair[1].priority, pair[0])
        )
        groups: Dict[Tuple[str, int], Batch] = {}
        batches: List[Batch] = []
        for _, job in ordered:
            bin_index = size_bin(payload_cells(job.kernel, job.payload))
            group_key = (job.kernel, bin_index)
            batch = groups.get(group_key)
            if batch is None or len(batch.jobs) >= self.capacity:
                batch = Batch(
                    batch_id=next(_batch_ids),
                    kernel=job.kernel,
                    mode=mode_for(job.kernel),
                    size_bin=bin_index,
                    capacity=self.capacity,
                )
                groups[group_key] = batch
                batches.append(batch)
            batch.jobs.append(job)
        return batches
