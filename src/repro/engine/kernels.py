"""The engine's kernel table: one row per servable kernel.

Everything the system knows about a servable kernel *by name* is one
:class:`EngineKernel` row of :data:`KERNELS`: which payload keys carry
its operands, what their elements must be and how a shm slot carries
them, how many cells a job sweeps, how the sweep's final state becomes
the result dict and which fields that dict has, which reference kernel
(at what tolerance) validates it, and which numerical sentinels a job
arms.  The recurrence itself is not here: a 2-D row's cell wiring,
boundaries, DFG and match table are its
:class:`~repro.dfg.stencils.Wavefront2DSpec` (``WAVEFRONT_SPECS[name]``),
from which :mod:`repro.engine.sweep` generates the loop nest; the one
1-D windowed kernel (Chain) gets its loop nest from the same generator,
from positional roles.

This module imports nothing from the engine, so :mod:`.jobs`
(validation), :mod:`.runners` (execution), :mod:`repro.slo.accounting`
(billing), :mod:`repro.serve.layout` (the shm wire format) and
:mod:`repro.guard` (sentinels, certificates, fuzzing) all read the
same rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Tuple

from repro.dfg.stencils import NEG
from repro.guard.sentinels import PAIRHMM_UNDERFLOW_FLOOR
from repro.kernels.base import AlignmentMode
from repro.kernels.chain import Anchor
from repro.kernels.dtw import dtw_matrix
from repro.kernels.lcs import lcs_length
from repro.kernels.pairhmm import LOG_FRACTION_BITS, log_sum_lookup, pairhmm_forward
from repro.kernels.sw import align
from repro.seq.alphabet import encode

#: Chain lookback window (the paper's reordered N=64 configuration).
DEFAULT_CHAIN_WINDOW = 64

#: Tolerance for PairHMM's fixed-point log-domain approximation, in
#: log10 units (the wavefront tests use 0.01 on tiny tables; real-size
#: tables accumulate a little more LUT truncation).
PAIRHMM_LOG10_TOLERANCE = 0.05

Payload = Mapping[str, Any]


class Codec(NamedTuple):
    """What one payload operand must be, how the sweep reads it and
    how a shm slot carries it."""

    #: Named in the rejection when *is_valid* says no (checked at
    #: submit, on input from outside).
    expects: str
    is_valid: Callable[[Any], bool]
    #: Payload value -> what the sweep iterates over.
    encode: Callable[[Any], List]
    #: The value's shm slot form (:mod:`repro.serve.layout`): 0 --
    #: ASCII bytes; 1 -- an int64 run; k > 1 -- an int64 ``(n, k)`` run.
    slot_columns: int


@dataclass(frozen=True)
class EngineKernel:
    """One servable kernel."""

    #: 2: a wavefront kernel, swept as ``WAVEFRONT_SPECS[name]`` says,
    #: one task per 4-PE array (independent-array interconnect).
    #: 1: the windowed kernel streaming through the concatenated 64-PE
    #: chain (Section 3.1).
    dimensions: int
    #: Required payload keys; ``(stream, static)`` for a 2-D kernel.
    keys: Tuple[str, ...]
    #: Element check and encoder of every value under *keys*.
    codec: Codec
    #: DP cells one job sweeps (size binning, throughput, billing).
    cells: Callable[[Payload], int]
    #: The sweep's final state -> the job's result dict.
    finish: Callable[[Dict[str, Any]], Dict[str, Any]]
    #: The reference-kernel answer for a payload (validation oracle).
    reference: Callable[[Payload], Dict[str, Any]]
    #: Result key -> absolute tolerance; keys not named compare equal.
    tolerance: Mapping[str, float] = field(default_factory=dict)
    #: Optional payload key -> (what a value given for it must be, its
    #: check); checked at submit like *keys*, only when present.
    optional: Mapping[str, Tuple[str, Callable[[Any], bool]]] = field(
        default_factory=dict
    )
    #: The result dict's fields besides ``cells``, in order, with their
    #: types: ``int``, ``float`` or ``list`` (of ints).
    results: Tuple[Tuple[str, type], ...] = ()
    #: Keyword arguments of the job's :class:`~repro.guard.sentinels.Sentinel`
    #: (every kernel watches the int32 rails; these arm more).
    sentinel: Mapping[str, int] = field(default_factory=dict)


def _is_number(value: Any) -> bool:
    # The exact-type tests first: an ABC instance check costs ten times
    # as much, and this runs per element at submit.  NaN and infinities
    # have no table integer, so they stop here and not inside a worker.
    kind = type(value)
    if kind is int:
        return True
    if kind is float:
        return math.isfinite(value)
    return isinstance(value, Real) and value == value and abs(value) != math.inf


def _is_window(value: Any) -> bool:
    # bool is an int; a window of True is a caller's mistake, not 1.
    # The top is what the shm slot's int64 AUX word, where the window
    # rides, can hold.
    return (
        isinstance(value, int)
        and not isinstance(value, bool)
        and 1 <= value < 1 << 63
    )


def _is_list(value: Any) -> bool:
    return hasattr(value, "__len__") and not isinstance(value, (str, bytes, Mapping))


def _is_signal(value: Any) -> bool:
    return _is_list(value) and all(map(_is_number, value))


def _is_anchor_list(value: Any) -> bool:
    if not _is_list(value) or not all(
        isinstance(anchor, (list, tuple))
        and len(anchor) == 3
        and _is_number(anchor[0])
        and _is_number(anchor[1])
        and _is_number(anchor[2])
        for anchor in value
    ):
        return False
    # The order repro.kernels.chain._check_sorted requires of the
    # decoded anchors: out of order, the reference raises, and a
    # sampled validation would quarantine Chain for every tenant.
    keys = [(int(x), int(y)) for x, y, _ in value]
    return all(prev <= cur for prev, cur in zip(keys, keys[1:]))


def _signal(value: Any) -> List[int]:
    return [int(sample) for sample in value]


def _anchors(value: Any) -> List[Anchor]:
    return [Anchor(int(x), int(y), int(w)) for x, y, w in value]


_DNA = Codec(
    "a DNA string over ACGT",
    lambda value: isinstance(value, str) and not value.strip("ACGT"),
    encode,
    slot_columns=0,
)
_SIGNAL = Codec("a sequence of numbers", _is_signal, _signal, slot_columns=1)
_ANCHORS = Codec(
    "a list of numeric [x, y, w] triples sorted by (x, y)",
    _is_anchor_list,
    _anchors,
    slot_columns=3,
)


def _table_area(stream_key: str, static_key: str) -> Callable[[Payload], int]:
    return lambda payload: len(payload[stream_key]) * len(payload[static_key])


def _chain_cells(payload: Payload) -> int:
    count = len(payload["anchors"])
    n = int(payload.get("n", DEFAULT_CHAIN_WINDOW))
    short = min(count, n)
    return max(0, count - n) * n + short * (short - 1) // 2


def _finish_pairhmm(final: Dict[str, Any]) -> Dict[str, Any]:
    """Log-sum the last row's (m, i) states into the log10 likelihood."""
    total = NEG
    for m, i in zip(final["m"][1:], final["i"][1:]):
        total = log_sum_lookup(total, log_sum_lookup(m, i))
    return {
        "log10_likelihood": (total / (1 << LOG_FRACTION_BITS)) * math.log10(2)
    }


def _finish_chain(final: Dict[str, Any]) -> Dict[str, Any]:
    scores, parents = final["scores"], final["parents"]
    best = max(range(len(scores)), key=scores.__getitem__) if scores else 0
    return {
        "scores": scores,
        "parents": parents,
        "best_index": best,
        "best_score": scores[best] if scores else 0,
    }


def _reference_bsw(payload: Payload) -> Dict[str, Any]:
    result = align(payload["query"], payload["target"], mode=AlignmentMode.LOCAL)
    return {"score": result.score}


def _reference_chain(payload: Payload) -> Dict[str, Any]:
    from repro.kernels.chain_fixed import chain_reordered_fixed

    result = chain_reordered_fixed(
        _anchors(payload["anchors"]), n=int(payload.get("n", DEFAULT_CHAIN_WINDOW))
    )
    return {
        "scores": [int(score) for score in result.scores],
        "parents": result.parents,
        "best_index": result.best_index,
    }


#: name -> row, in the order ``ENGINE_KERNELS`` publishes.
KERNELS: Dict[str, EngineKernel] = {
    "bsw": EngineKernel(
        dimensions=2,
        keys=("query", "target"),
        codec=_DNA,
        cells=_table_area("query", "target"),
        # Local alignment: the best cell score anywhere in the table.
        finish=lambda final: {"score": final["hmax"]},
        reference=_reference_bsw,
        results=(("score", int),),
        # The 4x8-bit SIMD kernel: lane counts tell how often the DLP
        # mode would clamp (a rate, not a failure -- the functional
        # sweep does not saturate).
        sentinel={"lane_bits": 8},
    ),
    "pairhmm": EngineKernel(
        dimensions=2,
        keys=("read", "haplotype"),
        codec=_DNA,
        cells=_table_area("read", "haplotype"),
        finish=_finish_pairhmm,
        reference=lambda payload: {
            "log10_likelihood": pairhmm_forward(payload["read"], payload["haplotype"])
        },
        tolerance={"log10_likelihood": PAIRHMM_LOG10_TOLERANCE},
        results=(("log10_likelihood", float),),
        # Counts mean probability mass hit the fixed-point minus-infinity.
        sentinel={"underflow_floor": PAIRHMM_UNDERFLOW_FLOOR},
    ),
    "lcs": EngineKernel(
        dimensions=2,
        keys=("x", "y"),
        codec=_DNA,
        cells=_table_area("x", "y"),
        finish=lambda final: {"length": final["c"][-1]},
        reference=lambda payload: {"length": lcs_length(payload["x"], payload["y"])},
        results=(("length", int),),
    ),
    "dtw": EngineKernel(
        dimensions=2,
        keys=("a", "b"),
        codec=_SIGNAL,
        cells=_table_area("a", "b"),
        finish=lambda final: {"distance": final["d"][-1]},
        reference=lambda payload: {
            "distance": int(dtw_matrix(payload["a"], payload["b"])[-1][-1])
        },
        results=(("distance", int),),
    ),
    "chain": EngineKernel(
        dimensions=1,
        keys=("anchors",),
        codec=_ANCHORS,
        cells=_chain_cells,
        finish=_finish_chain,
        reference=_reference_chain,
        optional={"n": ("an int >= 1 (the window; below 2**63)", _is_window)},
        results=(
            ("scores", list),
            ("parents", list),
            ("best_index", int),
            ("best_score", int),
        ),
    ),
}
