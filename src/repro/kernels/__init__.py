"""Golden reference implementations of the paper's DP kernels.

Each module implements one kernel exactly as the sequencing pipelines use
it, in plain Python.  These are the correctness oracles the DPAx
simulator is validated against ("The BSW, PairHMM and POA simulations
show same results as CPU baselines", Section 6), and they double as the
algorithmic content of the CPU baselines in the benchmark harness.

- :mod:`repro.kernels.lcs` -- longest common subsequence (the Section 2.2
  warm-up example).
- :mod:`repro.kernels.sw` -- the Smith-Waterman family: local / global /
  semi-global modes with linear / affine / convex gap models.
- :mod:`repro.kernels.bsw` -- banded affine-gap Smith-Waterman, the
  BWA-MEM2 seed-extension kernel, with 8/16-bit precision semantics.
- :mod:`repro.kernels.pairhmm` -- pair hidden Markov model forward
  likelihood (GATK HaplotypeCaller) plus the pruning-based log-space
  approximation the accelerator executes.
- :mod:`repro.kernels.poa` -- partial order alignment and consensus
  (Racon polishing).
- :mod:`repro.kernels.chain` -- minimap2 anchor chaining, original and
  reordered variants.
- :mod:`repro.kernels.dtw` -- dynamic time warping (generality study).
- :mod:`repro.kernels.bellman_ford` -- Bellman-Ford shortest paths
  (generality study).
"""

from repro.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "AlignmentMode": "base",
        "AlignmentResult": "base",
        "CellCounter": "base",
        "BandedSWResult": "bsw",
        "banded_sw": "bsw",
        "Anchor": "chain",
        "ChainResult": "chain",
        "chain_original": "chain",
        "chain_reordered": "chain",
        "dtw_distance": "dtw",
        "lcs_length": "lcs",
        "lcs_string": "lcs",
        "lcs_table": "lcs",
        "HMMParameters": "pairhmm",
        "pairhmm_forward": "pairhmm",
        "pairhmm_forward_pruned": "pairhmm",
        "PartialOrderGraph": "poa",
        "align_to_graph": "poa",
        "poa_consensus": "poa",
        "sw_align": "sw:align",
        "bellman_ford": "bellman_ford",
    },
)

__all__ = [
    "AlignmentMode",
    "AlignmentResult",
    "CellCounter",
    "BandedSWResult",
    "banded_sw",
    "Anchor",
    "ChainResult",
    "chain_original",
    "chain_reordered",
    "dtw_distance",
    "lcs_length",
    "lcs_string",
    "lcs_table",
    "HMMParameters",
    "pairhmm_forward",
    "pairhmm_forward_pruned",
    "PartialOrderGraph",
    "align_to_graph",
    "poa_consensus",
    "sw_align",
    "bellman_ford",
]
