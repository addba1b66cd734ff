"""Generator for ``golden_stats.json``: every simulated statistic of
every shipped mapping, on two seeds, profiled and unprofiled.

The golden file was written at the last commit that still had the
per-cycle interpreter (``PE._step_control`` / ``_execute_way``); the
decode-at-load simulator must reproduce it exactly.  Together with the
reference kernels in ``tests/mapping`` it is the simulator's oracle.
Regenerate (only when a mapping or the ISA deliberately changes) with::

    PYTHONPATH=src python -m tests.dpax.golden_stats
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random
from typing import Any, Callable, Dict, List

from repro.dpax.pe_array import PEArray
from repro.kernels.bellman_ford import Edge
from repro.kernels.chain import Anchor
from repro.kernels.poa import PartialOrderGraph
from repro.mapping.kernels2d import (
    bsw_wavefront_spec,
    dtw_wavefront_spec,
    lcs_wavefront_spec,
    pairhmm_boundary_for_length,
    pairhmm_fp_wavefront_spec,
    pairhmm_wavefront_spec,
)
from repro.mapping.longrange import run_bellman_ford, run_poa_row_dp
from repro.mapping.poa_parallel import run_poa_parallel
from repro.mapping.simd import run_bsw_simd
from repro.mapping.sliding1d import run_chain
from repro.mapping.wavefront2d import run_wavefront
from repro.seq.alphabet import encode, random_sequence
from repro.seq.mutate import MutationProfile, Mutator
from repro.workloads.graphs import generate_bf_workload

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_stats.json")
SEEDS = (11, 23)


def _nonzero(words) -> List[List[Any]]:
    """[index, value] pairs of the non-zero words of a storage image
    (a list for the RF/SPM, a sparse dict for the data buffers)."""
    items = words.items() if isinstance(words, dict) else enumerate(words)
    return [[index, value] for index, value in sorted(items) if value != 0]


def _counts(storage) -> List[int]:
    if hasattr(storage, "pushes"):
        return [storage.pushes, storage.pops, len(storage)]
    return [storage.reads, storage.writes]


def _array_state(array: PEArray) -> Dict[str, Any]:
    state: Dict[str, Any] = {
        "merged_stats": dataclasses.asdict(array.merged_pe_stats()),
        "control": [array.pc, array.halted, array.control_executed, array.control_stalls],
        "aregs": list(array.aregs),
        "fifo": _counts(array.fifo),
        "tail": _counts(array.tail_queue),
        "ibuf": _counts(array.ibuf),
        "obuf": _counts(array.obuf),
        "obuf_words": _nonzero(array.obuf._words),
        "pes": [
            {
                "stats": dataclasses.asdict(pe.stats),
                "pc": [pe.pc, pe.compute_pc, pe.compute_remaining, pe.started, pe.halted],
                "aregs": list(pe.aregs),
                "rf": _counts(pe.rf),
                "spm": _counts(pe.spm),
                "in_queue": _counts(pe.in_queue),
                "rf_words": _nonzero(pe.rf._words),
                "spm_words": _nonzero(pe.spm._words),
            }
            for pe in array.pes
        ],
    }
    profile = array.profiler
    if profile is not None:
        state["profile"] = {
            "fifo_depths": sorted(profile.fifo_depths.items()),
            "control_stalls": sorted(profile.control_stalls.items()),
            "sampled_cycles": profile.sampled_cycles,
            "pes": [
                dict(pe.to_dict(), segments=pe.segments(), truncated=pe.timeline_truncated)
                for pe in profile.pes
            ],
        }
    return state


def _observe(run: Callable[[], Any], profiled: bool) -> Dict[str, Any]:
    """Run one mapping and capture every array it built.

    The ``run_*`` drivers own their arrays, so construction is tapped;
    in profiled mode every array gets its profiler at birth (the
    drivers' own ``profile=True`` is idempotent on top of that).
    """
    arrays: List[PEArray] = []
    original = PEArray.__init__

    def tapped(self, *args, **kwargs):
        original(self, *args, **kwargs)
        arrays.append(self)
        if profiled:
            self.enable_profiling()

    PEArray.__init__ = tapped
    try:
        result = run()
    finally:
        PEArray.__init__ = original
    return {
        "cycles": result.cycles,
        "finished": getattr(result, "finished", True),
        "arrays": [_array_state(array) for array in arrays],
    }


def _cases(seed: int) -> Dict[str, Callable[[], Any]]:
    rng = random.Random(seed)
    illumina = Mutator(MutationProfile.illumina(), rng)
    nanopore = Mutator(MutationProfile.nanopore(), rng)

    template = random_sequence(8, rng)
    query = illumina.mutate(random_sequence(6, rng) + template)
    haplotype = random_sequence(8, rng)
    read = random_sequence(10, rng)
    lcs_x, lcs_y = random_sequence(10, rng), random_sequence(8, rng)
    dtw_a = [rng.randint(0, 30) for _ in range(10)]
    dtw_b = [rng.randint(0, 30) for _ in range(8)]
    simd_pairs = []
    for _ in range(4):
        target = random_sequence(8, rng)
        simd_pairs.append(((illumina.mutate(target) + random_sequence(20, rng))[:12], target))
    anchors, x, y = [], 0, 0
    for _ in range(20):
        x += rng.randint(5, 60)
        y += rng.randint(5, 60)
        anchors.append(Anchor(x, y))
    base = random_sequence(8, rng)
    graph = PartialOrderGraph(base)
    graph.add_sequence(nanopore.mutate(base))
    poa_query = nanopore.mutate(base)
    tiled_query = poa_query + "A" * (-len(poa_query) % 4)
    workload = generate_bf_workload(vertices=8, neighbors=2, seed=seed)
    edges = [Edge(e.src, e.dst, int(e.weight * 1000)) for e in workload.edges]

    hmm_spec = pairhmm_boundary_for_length(pairhmm_wavefront_spec(), len(haplotype))
    cases: Dict[str, Callable[[], Any]] = {
        "bsw": lambda: run_wavefront(
            bsw_wavefront_spec(), target=encode(template), stream=encode(query)
        ),
        "pairhmm": lambda: run_wavefront(
            hmm_spec, target=encode(haplotype), stream=encode(read)
        ),
        "pairhmm_fp": lambda: run_wavefront(
            pairhmm_fp_wavefront_spec(len(haplotype)),
            target=encode(haplotype), stream=encode(read), datapath="fp",
        ),
        "lcs": lambda: run_wavefront(
            lcs_wavefront_spec(), target=encode(lcs_y), stream=encode(lcs_x)
        ),
        "dtw": lambda: run_wavefront(dtw_wavefront_spec(), target=dtw_b, stream=dtw_a),
        "bsw_simd4": lambda: run_bsw_simd(simd_pairs, lanes=4),
        "bsw_simd2": lambda: run_bsw_simd(simd_pairs[:2], lanes=2),
        "poa_row": lambda: run_poa_row_dp(graph, poa_query),
        "poa_parallel": lambda: run_poa_parallel(graph, tiled_query),
        "bellman_ford": lambda: run_bellman_ford(
            workload.vertex_count, edges, source=workload.source
        ),
    }
    for total_pes in (4, 8, 16):
        cases[f"chain{total_pes}"] = (
            lambda total_pes=total_pes: run_chain(anchors, total_pes=total_pes)
        )
    return cases


def generate() -> Dict[str, Any]:
    golden: Dict[str, Any] = {}
    for seed in SEEDS:
        for name, run in _cases(seed).items():
            for profiled in (False, True):
                key = f"{name}/seed{seed}/{'profiled' if profiled else 'plain'}"
                golden[key] = _observe(run, profiled)
    # One JSON round trip so tuples/int keys compare as they are stored.
    return json.loads(json.dumps(golden))


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(generate(), separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")
