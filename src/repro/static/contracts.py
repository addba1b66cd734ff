"""Declared input contracts conditioning every value-range proof.

A :class:`KernelContract` states, per cell program, the interval every
named input is promised to stay inside.  The numbers come from the
ground truth the runtime layers already encode:

- boundary constants and sweep initialisation in
  :mod:`repro.dfg.stencils` and :mod:`repro.guard.diff` (``NEG``,
  DTW's ``INF``, chaining's scaled seed weights),
- for the four 2-D kernels, the recurrence declaration itself
  (:func:`repro.dfg.stencils.default_spec`): its preloaded ``params``
  are the constant inputs, its ``MATCH_SCORE`` table gives the match
  range, and its ``recv``/``delayed``/``own`` roles are the feedback
  edges,
- declared workload caps (sequence lengths up to
  :data:`MAX_SEQUENCE_LENGTH`, coordinates up to 2^20).

Certificates issued by :mod:`repro.static.certify` are *conditional*
on these contracts: the proof says "no armed sentinel can fire for any
cell invocation whose inputs respect the declared intervals".  The
feedback edges (which output feeds which recurrent input of the next
cell) are the one declaration of what a program's consumer reads:
their outputs are the optimizer's prune contract (:func:`contract_for`,
exported as ``repro.opt.contract_for``), so static, opt, and guard
agree on what recurs.  Contract *validity* on real sweeps is enforced
empirically by ``tests/properties/test_static_soundness.py`` and by
the engine's runtime certificate cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.dfg.stencils import NEG, default_spec
from repro.static.intervals import Interval

#: Declared cap on sequence / signal lengths a contract covers.  Real
#: workloads (reads, haplotypes, DTW signals) are orders of magnitude
#: shorter; the cap only needs to keep accumulated scores far from the
#: int32 boundary.
MAX_SEQUENCE_LENGTH = 4096


@dataclass(frozen=True)
class KernelContract:
    """Declared input ranges + recurrence wiring for one cell program."""

    name: str
    #: Base kernel the sentinel policy keys on ("poa:edge" -> "poa").
    kernel: str
    inputs: Mapping[str, Interval]
    #: Range of the kernel's MATCH_SCORE table, when the program uses one.
    match_range: Optional[Interval] = None
    #: output name -> recurrent input names it feeds on the next cell.
    feedback: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)


def _wavefront_contract(
    kernel: str, inputs: Dict[str, Interval]
) -> KernelContract:
    """A 2-D kernel's contract: *inputs* declares the data and state
    ranges; constants, match range and feedback come from its spec."""
    spec = default_spec(kernel)
    match_range = spec.match_range()
    return KernelContract(
        name=kernel,
        kernel=kernel,
        inputs={
            **inputs,
            **{name: Interval.const(value) for name, value in spec.params.items()},
        },
        match_range=Interval(*match_range) if match_range else None,
        feedback=spec.feedback(),
    )


def _build_contracts() -> Dict[str, KernelContract]:
    base = Interval(0, 3)
    log_state = Interval(NEG, 0)
    score = Interval(0, 1 << 16)
    gap_state = Interval(NEG - MAX_SEQUENCE_LENGTH, 1 << 16)
    coord = Interval(0, 1 << 20)

    contracts = [
        _wavefront_contract(
            "bsw",
            {
                "q": base,
                "t": base,
                "h_diag": score,
                "h_up": score,
                "h_left": score,
                "e_up": Interval(NEG, 1 << 16),
                "f_left": Interval(NEG, 1 << 16),
            },
        ),
        _wavefront_contract(
            "pairhmm",
            {
                "q": base,
                "t": base,
                "m_diag": log_state,
                "i_diag": log_state,
                "d_diag": log_state,
                "m_up": log_state,
                "i_up": log_state,
                "m_left": log_state,
                "d_left": log_state,
            },
        ),
        _wavefront_contract(
            "lcs",
            # LCS compares raw symbol codes with CMP_EQ; any byte
            # alphabet is covered.
            {
                "x": Interval(0, 255),
                "y": Interval(0, 255),
                "c_diag": Interval(0, 1 << 16),
                "c_up": Interval(0, 1 << 16),
                "c_left": Interval(0, 1 << 16),
            },
        ),
        _wavefront_contract(
            "dtw",
            # d accumulates INF + rows * |a - b|, so the recurrent
            # state rail sits at 2^29 > 2^20 + 4096 * 65535.
            {
                "a": Interval(0, (1 << 16) - 1),
                "b": Interval(0, (1 << 16) - 1),
                "d_diag": Interval(0, 1 << 29),
                "d_up": Interval(0, 1 << 29),
                "d_left": Interval(0, 1 << 29),
            },
        ),
        KernelContract(
            name="chain",
            kernel="chain",
            inputs={
                "x_i": coord,
                "y_i": coord,
                "x_j": coord,
                "y_j": coord,
                "w": Interval(0, 1 << 10),
                "f_j": Interval(0, 1 << 28),
                "f_i": Interval(0, 1 << 28),
                "j_idx": coord,
                "parent": Interval(-1, 1 << 20),
            },
            feedback={"f": ("f_j", "f_i"), "parent": ("parent",)},
        ),
        KernelContract(
            name="poa:edge",
            kernel="poa",
            inputs={
                "diag_best": gap_state,
                "up_best": gap_state,
                "h_pred_diag": score,
                "h_pred_up": score,
                "f_pred_up": gap_state,
            },
            feedback={
                "diag_best": ("diag_best",),
                "up_best": ("up_best",),
            },
        ),
        KernelContract(
            name="poa:final",
            kernel="poa",
            inputs={
                "q": base,
                "t": base,
                "diag_best": gap_state,
                "up_best": gap_state,
                "h_left": score,
                "e_left": gap_state,
            },
            match_range=Interval(-1, 1),
            feedback={"h": ("h_left",), "e": ("e_left",)},
        ),
        KernelContract(
            name="bellman_ford",
            kernel="bellman_ford",
            # Negative edge weights are in-contract (the range-analysis
            # stress case): distances may descend below zero, bounded
            # by rounds * |min weight|.
            inputs={
                "dist_u": Interval(-(1 << 24), 1 << 25),
                "dist_v": Interval(-(1 << 24), 1 << 25),
                "weight": Interval(-(1 << 10), 1 << 20),
                "u_idx": coord,
                "pred": Interval(-1, 1 << 20),
            },
            feedback={
                "dist": ("dist_u", "dist_v"),
                "pred": ("pred",),
            },
        ),
    ]
    return {contract.name: contract for contract in contracts}


_CONTRACTS = _build_contracts()


def kernel_contract(name: str) -> Optional[KernelContract]:
    """The declared contract for a cell program label, or None.

    Labels follow the guard's convention: the kernel name for
    single-cell kernels, ``kernel:cell`` for multi-program kernels
    (``poa:edge``, ``poa:final``).
    """
    return _CONTRACTS.get(name)


def contract_for(name: str) -> Optional[frozenset]:
    """The outputs a program's consumer reads: its feedback outputs.

    What :class:`repro.opt.passes.PruneOutputsPass` keeps.  Unknown
    labels get None: the pipeline then keeps every output.
    """
    contract = _CONTRACTS.get(name)
    return frozenset(contract.feedback) if contract is not None else None
