"""Seeded input generation: the same seed gives the same inputs.

Job payloads come from the repo's own paper-shaped generators
(``repro.workloads.*``), cut to the sizes a workload asks for, so a
BSW pair is still a mutated seed extension and a Chain task still has
a planted collinear run.  The program under test only ever sees what
this module returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.kernels.chain import Anchor
from repro.kernels.poa import PartialOrderGraph
from repro.seq.alphabet import random_sequence
from repro.seq.mutate import MutationProfile, Mutator
from repro.workloads.anchors import generate_chain_workload
from repro.workloads.haplotypes import generate_pairhmm_workload
from repro.workloads.reads import generate_bsw_workload
from repro.workloads.signals import generate_dtw_workload

from bench.spec import ENGINE_KERNELS

JobSpec = Tuple[str, Dict[str, Any]]

#: DTW signals are floats in about [-4, 4]; the engine's DTW runs on
#: integers, so samples are quantized to 1/100.
_DTW_SCALE = 100


@dataclass(frozen=True)
class JobShape:
    """Table sizes of one workload's jobs (rows x cols, anchors)."""

    rows: int
    cols: int
    anchors: int


SMALL = JobShape(rows=16, cols=12, anchors=24)
LARGE = JobShape(rows=64, cols=64, anchors=96)


def mixed_jobs(seed: int, per_kernel: int, shape: JobShape) -> List[JobSpec]:
    """``per_kernel`` jobs of each engine kernel, interleaved
    bsw, pairhmm, lcs, dtw, chain, bsw, ... so any window of five
    consecutive jobs holds one of each."""
    rng = random.Random(seed)
    bsw = generate_bsw_workload(
        count=per_kernel,
        query_length=shape.rows,
        target_length=shape.cols,
        seed=seed,
    ).pairs
    hmm = generate_pairhmm_workload(
        regions=per_kernel,
        reads_per_region=1,
        haplotypes_per_region=1,
        read_length=shape.rows,
        haplotype_length=shape.cols,
        seed=seed + 1,
    ).pairs
    # Twice the length asked for: a warped query comes out shorter or
    # longer than its reference, and every seed must give the same
    # table sizes, so both signals are cut to size below.
    dtw = generate_dtw_workload(
        pairs=per_kernel, length=2 * max(shape.rows, shape.cols), seed=seed + 2
    ).pairs
    chain = generate_chain_workload(
        tasks=per_kernel, anchors_per_task=shape.anchors, seed=seed + 3
    ).tasks
    mutator = Mutator(MutationProfile.illumina(), rng)

    def quantize(signal: List[float], length: int) -> List[int]:
        return [int(round(value * _DTW_SCALE)) for value in signal[:length]]

    jobs: List[JobSpec] = []
    for index in range(per_kernel):
        x = random_sequence(shape.rows, rng)
        y = (mutator.mutate(x) + random_sequence(shape.cols, rng))[: shape.cols]
        by_kernel = {
            "bsw": {"query": bsw[index].query, "target": bsw[index].target},
            "pairhmm": {
                "read": hmm[index].read,
                "haplotype": hmm[index].haplotype,
            },
            "lcs": {"x": x, "y": y},
            "dtw": {
                "a": quantize(dtw[index].reference, shape.rows),
                "b": quantize(dtw[index].query, shape.cols),
            },
            "chain": {
                "anchors": [[a.x, a.y, a.w] for a in chain[index].anchors]
            },
        }
        jobs.extend((kernel, by_kernel[kernel]) for kernel in ENGINE_KERNELS)
    return jobs


def minimal_jobs(seed: int) -> List[JobSpec]:
    """One smallest job per engine kernel (compile_cold: the compile is
    the work, so the table is 2x2 and the chain two anchors)."""
    return mixed_jobs(seed, 1, JobShape(rows=2, cols=2, anchors=2))


@dataclass
class Tiles:
    """Inputs of the four simulated tiles of ``dpax_tiles``."""

    bsw_target: str
    bsw_query: str
    hmm_haplotype: str
    hmm_read: str
    anchors: List[Anchor]
    poa_graph: PartialOrderGraph
    poa_query: str


def tiles(seed: int, stream: int = 64, anchors: int = 120, poa_bases: int = 32) -> Tiles:
    """16-row wavefront tiles (16 = four passes of a 4-PE array) with a
    *stream*-long second sequence, *anchors* chained on 8 PEs, and a
    two-sequence POA graph over *poa_bases* bases."""
    rng = random.Random(seed)
    template = random_sequence(16, rng)
    illumina = Mutator(MutationProfile.illumina(), rng)
    query = (
        illumina.mutate(random_sequence(stream - 16, rng) + template)
        + random_sequence(stream, rng)
    )[:stream]
    haplotype = random_sequence(16, rng)
    read = (
        illumina.mutate(haplotype * (stream // 16 + 1))
        + random_sequence(stream, rng)
    )[:stream]
    chain: List[Anchor] = []
    x = y = 0
    for _ in range(anchors):
        x += rng.randint(5, 60)
        y += rng.randint(5, 60)
        chain.append(Anchor(x, y))
    # Isolated substitutions at fixed positions, only the letters drawn
    # from the seed: every seed gives a graph of the same shape (one
    # bubble per eight bases) and a query of poa_bases letters, so the
    # simulated work does not move with the seed.
    base = random_sequence(poa_bases, rng)
    graph = PartialOrderGraph(base)
    graph.add_sequence(_substitute(base, range(4, poa_bases - 1, 8), rng))
    poa_query = _substitute(base, range(8, poa_bases - 1, 8), rng)
    return Tiles(
        bsw_target=template,
        bsw_query=query,
        hmm_haplotype=haplotype,
        hmm_read=read,
        anchors=chain,
        poa_graph=graph,
        poa_query=poa_query,
    )


def _substitute(sequence: str, positions, rng: random.Random) -> str:
    """*sequence* with the letter at each of *positions* changed."""
    letters = list(sequence)
    for position in positions:
        letters[position] = rng.choice([b for b in "ACGT" if b != letters[position]])
    return "".join(letters)
