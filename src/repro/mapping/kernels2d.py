"""Wavefront specs for the 2D kernels: BSW, PairHMM, LCS, DTW.

Each spec binds one kernel's DFG inputs to the systolic dataflow roles
of :class:`repro.dfg.stencils.Wavefront2DSpec` and supplies the
boundary constants matching the reference recurrence, so the simulator
result can be compared against the reference kernel cell-for-cell (see
``tests/mapping``).  The four integer specs are declared in
:mod:`repro.dfg.stencils`, where the serving engine reads them too;
this module re-exports them and adds what only the simulator runs.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.dfg.stencils import (  # noqa: F401  (public names of this module)
    INF,
    NEG,
    Wavefront2DSpec,
    bsw_wavefront_spec,
    dtw_wavefront_spec,
    lcs_wavefront_spec,
    pairhmm_boundary_for_length,
    pairhmm_wavefront_spec,
    wavefront_spec,
)
from repro.kernels.pairhmm import HMMParameters
from repro.seq.alphabet import encode, random_sequence


def pairhmm_fp_wavefront_spec(
    haplotype_length: int,
    params: Optional[HMMParameters] = None,
) -> Wavefront2DSpec:
    """Linear-domain PairHMM for the floating-point PE array.

    Same dataflow roles as the fixed-point spec; values are linear
    probabilities (floats), transitions multiply through the CU
    multiplier.  Run with ``run_wavefront(..., datapath="fp")``; the
    host sums the drained last-row (m, i) states into the likelihood.
    """
    from repro.dfg.kernels import pairhmm_fp_dfg

    if params is None:
        params = HMMParameters()
    if haplotype_length <= 0:
        raise ValueError("haplotype length must be positive")
    error = 10.0 ** (-params.base_quality / 10.0)

    def match_table(a: int, b: int) -> float:
        return 1.0 - error if a == b else error / 3.0

    return Wavefront2DSpec(
        name="pairhmm_fp",
        dfg=pairhmm_fp_dfg(),
        stream_input="q",
        static_input="t",
        recv=[("m_left", "m"), ("i_left", "i"), ("d_left", "d")],
        delayed={"m_diag": "m_left", "i_diag": "i_left", "d_diag": "d_left"},
        own={"m_up": "m", "i_up": "i"},
        params={
            "a_mm": params.match_to_match,
            "a_im": params.indel_to_match,
            "a_gap": params.gap_open,
            "a_ext": params.gap_extend,
        },
        boundary_row={"m": 0.0, "i": 0.0, "d": 1.0 / haplotype_length},
        first_column={"m": 0.0, "i": 0.0, "d": 0.0},
        first_corner={"m": 0.0, "i": 0.0, "d": 0.0},
        epilogue=["m_up", "i_up"],
        match_table=match_table,
    )


def probe_task(
    kernel: str, rng: random.Random
) -> Tuple[Wavefront2DSpec, List[int], List[int]]:
    """``(spec, target, stream)`` of the small representative task the
    perf model is calibrated on and the utilization study profiles:
    16 static elements drawn first, then 24 streamed ones."""
    if kernel == "dtw":
        target = [rng.randint(0, 50) for _ in range(16)]
        stream = [rng.randint(0, 50) for _ in range(24)]
    else:
        target = encode(random_sequence(16, rng))
        stream = encode(random_sequence(24, rng))
    return wavefront_spec(kernel, len(target)), target, stream
