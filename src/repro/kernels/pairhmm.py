"""Pair hidden Markov model (PairHMM) forward likelihood.

The variant-calling kernel of Figure 2b: GATK HaplotypeCaller scores each
(read, candidate haplotype) pair with the forward algorithm of a 3-state
HMM (match M, insertion I, deletion D).  Transition weights come from gap
open/extend qualities; the emission prior comes from per-base qualities.

Two implementations are provided:

- :func:`pairhmm_forward` -- the exact floating-point forward pass, the
  CPU-baseline semantics (GATK's ``calcLikelihoodScore``).
- :func:`pairhmm_forward_pruned` -- the pruning-based log-domain
  fixed-point approximation of Wu et al. [77] that the paper runs on both
  the ASIC baseline and GenDP: probabilities move to log2 space where
  multiplies become adds, sums use a log-sum lookup table, and cells far
  below the running row maximum are pruned.  The scan phase covers 97.7%
  of the workload; pairs whose approximation error could matter are
  flagged for host re-computation (the remaining 2.3%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: Fixed-point fraction bits of the log2-domain representation used by
#: the pruned kernel (the pruning ASIC uses a 20-bit fixed-point format;
#: we keep 12 fraction bits which fits comfortably in 32-bit PEs).
LOG_FRACTION_BITS = 12
_LOG_SCALE = 1 << LOG_FRACTION_BITS

#: Values this far (in log2) below the row maximum are pruned.
DEFAULT_PRUNE_THRESHOLD = 24.0

#: log2 of the smallest probability we track; stands in for -infinity.
_LOG_FLOOR = -(1 << 20)


@dataclass(frozen=True)
class HMMParameters:
    """Transition/emission parameters of the 3-state alignment HMM.

    Probabilities are linear-domain.  Defaults mirror GATK's global
    defaults: gap open ~ Q45, gap extension ~ Q10, flat base quality Q30
    when reads carry no per-base qualities.
    """

    gap_open: float = 10.0 ** (-4.5)
    gap_extend: float = 0.1
    base_quality: int = 30

    def __post_init__(self) -> None:
        if not 0.0 < self.gap_open < 1.0:
            raise ValueError("gap_open must be in (0, 1)")
        if not 0.0 < self.gap_extend < 1.0:
            raise ValueError("gap_extend must be in (0, 1)")
        if self.base_quality <= 0:
            raise ValueError("base_quality must be positive")

    @property
    def match_to_match(self) -> float:
        """alpha_MM: probability of staying in the match state."""
        return 1.0 - 2.0 * self.gap_open

    @property
    def indel_to_match(self) -> float:
        """alpha_IM / alpha_DM: probability of returning to match."""
        return 1.0 - self.gap_extend

    def emission(self, read_base: str, hap_base: str, quality: int) -> float:
        """Prior probability rho of emitting (read_base, hap_base).

        With base error probability ``eps`` (from the Phred quality),
        matching bases emit ``1 - eps`` and mismatching bases ``eps / 3``.
        """
        error = 10.0 ** (-quality / 10.0)
        return 1.0 - error if read_base == hap_base else error / 3.0


def pairhmm_forward(
    read: str,
    haplotype: str,
    params: Optional[HMMParameters] = None,
    qualities: Optional[Sequence[int]] = None,
) -> float:
    """Exact forward likelihood, returned as log10(P(read | haplotype)).

    Implements the Figure 2b recurrence: for each cell,

    ``fM[i][j] = rho(i,j) * (aMM*fM[i-1][j-1] + aIM*fI[i-1][j-1] + aDM*fD[i-1][j-1])``
    ``fI[i][j] = aMI*fM[i-1][j] + aII*fI[i-1][j]``
    ``fD[i][j] = aMD*fM[i][j-1] + aDD*fD[i][j-1]``

    The likelihood sums the M and I states across the final read row
    (free alignment of the read anywhere along the haplotype comes from
    the uniform first-row initialization, as in GATK).
    """
    if params is None:
        params = HMMParameters()
    if not read or not haplotype:
        raise ValueError("pairhmm_forward requires non-empty sequences")
    quals = _resolve_qualities(read, qualities, params)

    rows, cols = len(read) + 1, len(haplotype) + 1
    a_mm = params.match_to_match
    a_gap = params.gap_open
    a_ext = params.gap_extend
    a_im = params.indel_to_match

    # Row 0: read not started; D state uniform over haplotype positions
    # so the read may align starting anywhere (GATK's initialization).
    init = 1.0 / len(haplotype)
    f_m = [0.0] * cols
    f_i = [0.0] * cols
    f_d = [init] * cols
    f_d[0] = 0.0

    for i in range(1, rows):
        next_m = [0.0] * cols
        next_i = [0.0] * cols
        next_d = [0.0] * cols
        for j in range(1, cols):
            rho = params.emission(read[i - 1], haplotype[j - 1], quals[i - 1])
            next_m[j] = rho * (
                a_mm * f_m[j - 1] + a_im * f_i[j - 1] + a_im * f_d[j - 1]
            )
            next_i[j] = a_gap * f_m[j] + a_ext * f_i[j]
            next_d[j] = a_gap * next_m[j - 1] + a_ext * next_d[j - 1]
        f_m, f_i, f_d = next_m, next_i, next_d

    likelihood = sum(f_m[j] + f_i[j] for j in range(1, cols))
    if likelihood <= 0.0:
        return -math.inf
    return math.log10(likelihood)


@dataclass
class PrunedForwardResult:
    """Outcome of the pruned log-domain scan phase.

    ``log10_likelihood`` is the approximate score; ``cells_computed`` and
    ``cells_pruned`` give the scan-phase work split; ``needs_recompute``
    marks pairs whose score landed close enough to the pruning floor that
    the host CPU must re-run them exactly (the 2.3% tail in Section 6).
    """

    log10_likelihood: float
    cells_computed: int
    cells_pruned: int
    needs_recompute: bool

    @property
    def pruned_fraction(self) -> float:
        total = self.cells_computed + self.cells_pruned
        return self.cells_pruned / total if total else 0.0


def pairhmm_forward_pruned(
    read: str,
    haplotype: str,
    params: Optional[HMMParameters] = None,
    qualities: Optional[Sequence[int]] = None,
    threshold: float = DEFAULT_PRUNE_THRESHOLD,
) -> PrunedForwardResult:
    """Pruning-based log2-domain fixed-point forward pass.

    All probabilities are represented as fixed-point log2 values
    (:data:`LOG_FRACTION_BITS` fraction bits); products become integer
    adds and sums go through :func:`log_sum_lookup` -- exactly the
    operations the GenDP compute unit provides (Table 4's ``Log_sum
    LUT``).  Cells whose best state falls more than *threshold* (log2)
    below the running maximum are pruned to the floor and skipped.
    """
    if params is None:
        params = HMMParameters()
    if not read or not haplotype:
        raise ValueError("pairhmm_forward_pruned requires non-empty sequences")
    quals = _resolve_qualities(read, qualities, params)

    rows, cols = len(read) + 1, len(haplotype) + 1
    log_a_mm = to_fixed(params.match_to_match)
    log_a_gap = to_fixed(params.gap_open)
    log_a_ext = to_fixed(params.gap_extend)
    log_a_im = to_fixed(params.indel_to_match)

    init = to_fixed(1.0 / len(haplotype))
    f_m = [_LOG_FLOOR] * cols
    f_i = [_LOG_FLOOR] * cols
    f_d = [init] * cols
    f_d[0] = _LOG_FLOOR

    prune_fixed = int(threshold * _LOG_SCALE)
    # Prune against the previous row's best: a cell whose dependencies
    # all sit far below the wavefront maximum cannot contribute to the
    # likelihood at this precision (Wu et al.'s scan-phase criterion).
    prev_row_max = init
    cells_computed = 0
    cells_pruned = 0

    for i in range(1, rows):
        next_m = [_LOG_FLOOR] * cols
        next_i = [_LOG_FLOOR] * cols
        next_d = [_LOG_FLOOR] * cols
        row_max = _LOG_FLOOR
        for j in range(1, cols):
            prev_best = max(f_m[j - 1], f_i[j - 1], f_d[j - 1], f_m[j], f_i[j])
            if prev_best < prev_row_max - prune_fixed:
                cells_pruned += 1
                continue
            cells_computed += 1
            rho = to_fixed(
                params.emission(read[i - 1], haplotype[j - 1], quals[i - 1])
            )
            match_sum = _log_sum3(
                _fixed_add(log_a_mm, f_m[j - 1]),
                _fixed_add(log_a_im, f_i[j - 1]),
                _fixed_add(log_a_im, f_d[j - 1]),
            )
            next_m[j] = _fixed_add(rho, match_sum)
            next_i[j] = log_sum_lookup(
                _fixed_add(log_a_gap, f_m[j]), _fixed_add(log_a_ext, f_i[j])
            )
            next_d[j] = log_sum_lookup(
                _fixed_add(log_a_gap, next_m[j - 1]),
                _fixed_add(log_a_ext, next_d[j - 1]),
            )
            cell_best = max(next_m[j], next_i[j], next_d[j])
            if cell_best > row_max:
                row_max = cell_best
        prev_row_max = row_max
        f_m, f_i, f_d = next_m, next_i, next_d

    total = _LOG_FLOOR
    for j in range(1, cols):
        total = log_sum_lookup(total, log_sum_lookup(f_m[j], f_i[j]))

    if total <= _LOG_FLOOR // 2:
        # Every final-row path was pruned: this pair goes back to the
        # host for exact re-computation (the Section 6's 2.3% tail).
        return PrunedForwardResult(-math.inf, cells_computed, cells_pruned, True)
    log10 = (total / _LOG_SCALE) * math.log10(2.0)
    needs_recompute = total < prev_row_max - prune_fixed
    return PrunedForwardResult(log10, cells_computed, cells_pruned, needs_recompute)


def log_sum_lookup(a: int, b: int) -> int:
    """Fixed-point log2-domain addition: log2(2^a + 2^b).

    ``log2(2^a + 2^b) = max(a,b) + log2(1 + 2^-(|a-b|))`` -- the second
    term is a small lookup table over the difference, which is the
    ``Log_sum LUT`` operation in the GenDP ISA (Table 4).
    """
    if a < b:
        a, b = b, a
    diff = a - b
    if diff >= _LOG_SUM_TABLE_SPAN:
        return a
    return a + _LOG_SUM_TABLE[diff]


def _log_sum_entry(diff: int) -> int:
    """The table's defining formula: log2(1 + 2^-d) at fixed-point d."""
    return int(round(math.log2(1.0 + 2.0 ** (-diff / _LOG_SCALE)) * _LOG_SCALE))


def _build_log_sum_table() -> Tuple[List[int], int]:
    """Precompute log2(1 + 2^-d) for fixed-point differences d.

    The table spans differences up to 16.0 in log2 (beyond which the
    correction rounds to zero at 12 fraction bits).  It falls from
    ``_LOG_SCALE`` to 0 one unit at a time, so it is built from its
    4,096 step positions instead of 65,536 evaluations: the entry
    drops below *v* near ``-S*log2(2^((v - 1/2)/S) - 1)``, and each
    step is confirmed (and moved, if needed) with :func:`_log_sum_entry`
    on both of its sides.  ``tests/kernels/test_log_sum_table.py``
    checks every entry against the formula.
    """
    span = 16 * _LOG_SCALE
    log2, ceil, entry = math.log2, math.ceil, _log_sum_entry
    table: List[int] = []
    start = 0  # first difference not yet in the table
    for value in range(entry(0), 0, -1):
        step = ceil(-_LOG_SCALE * log2(2.0 ** ((value - 0.5) / _LOG_SCALE) - 1.0))
        step = max(start, step)
        while entry(step) >= value:
            step += 1
        while step > start and entry(step - 1) < value:
            step -= 1
        table += [value] * (step - start)
        start = step
    table += [0] * (span - start)
    return table, span


_LOG_SUM_TABLE, _LOG_SUM_TABLE_SPAN = _build_log_sum_table()


def to_fixed(probability: float) -> int:
    """Linear-domain probability -> fixed-point log2 value."""
    if probability <= 0.0:
        return _LOG_FLOOR
    return int(round(math.log2(probability) * _LOG_SCALE))


def _fixed_add(a: int, b: int) -> int:
    """Log-domain multiply (integer add) with floor propagation."""
    if a <= _LOG_FLOOR or b <= _LOG_FLOOR:
        return _LOG_FLOOR
    return a + b


def _log_sum3(a: int, b: int, c: int) -> int:
    """Three-way log-domain sum via two LUT additions."""
    return log_sum_lookup(log_sum_lookup(a, b), c)


def _resolve_qualities(
    read: str, qualities: Optional[Sequence[int]], params: HMMParameters
) -> List[int]:
    """Per-base qualities: supplied, or the parameter default, per base."""
    if qualities is None:
        return [params.base_quality] * len(read)
    if len(qualities) != len(read):
        raise ValueError("qualities length must match read length")
    if any(quality <= 0 for quality in qualities):
        raise ValueError("base qualities must be positive")
    return list(qualities)
