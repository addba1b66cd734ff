"""Numerical sentinels: overflow / saturation / underflow watchers.

The functional model computes in unbounded Python integers, so a value
that would wrap the 32-bit datapath (or saturate an 8-bit SIMD lane)
silently stays "correct" in simulation while the hardware it models
diverges.  A :class:`Sentinel` watches every intermediate ALU value of
a compiled-program execution (through the ``observe`` hook of
:func:`repro.dpmap.codegen.execute_way`, or the statements
:meth:`Sentinel.count_line` renders into the engine's armed fused
sweep) and counts, without altering any result:

- ``int32_overflows``  -- values outside the signed 32-bit rails that
  :func:`repro.dpax.pe.wrap32` would wrap;
- ``lane_saturations`` -- values outside the SIMD lane rails that
  :func:`repro.dpax.pe.sat_lane` would clamp (armed for BSW, the
  4x8-bit DLP kernel);
- ``underflows``       -- values below the kernel's log-domain floor
  (armed for PairHMM, whose probabilities underflow toward
  ``NEG = -(1 << 20)``, the fixed-point stand-in for log 0).

Counters surface in the engine metrics snapshot as ``sentinel_*``
counters (the ``sentinel`` family of
:data:`repro.engine.metrics.COUNTERS`) and in guard campaign reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.datapath import INT32_MAX, INT32_MIN, LANE8_MAX, LANE8_MIN

#: The PairHMM log-domain floor (kernels2d's minus-infinity stand-in):
#: anything at or below it means the probability mass underflowed.
PAIRHMM_UNDERFLOW_FLOOR = -(1 << 20)

#: Stable counter schema (mirrored by the ``sentinel`` counter family).
SENTINEL_FIELDS = ("values_observed", "int32_overflows", "lane_saturations", "underflows")


@dataclass
class Sentinel:
    """Counts numerical hazards in a stream of observed ALU values."""

    #: Lane width in bits for saturation tracking (None = scalar only).
    lane_bits: Optional[int] = None
    #: Values at or below this floor count as log-domain underflow.
    underflow_floor: Optional[int] = None
    values_observed: int = 0
    int32_overflows: int = 0
    lane_saturations: int = 0
    underflows: int = 0

    def observe(self, value: int) -> None:
        self.values_observed += 1
        if value < INT32_MIN or value > INT32_MAX:
            self.int32_overflows += 1
        if self.lane_bits is not None:
            low = -(1 << (self.lane_bits - 1))
            high = (1 << (self.lane_bits - 1)) - 1
            if value < low or value > high:
                self.lane_saturations += 1
        if self.underflow_floor is not None and value <= self.underflow_floor:
            self.underflows += 1

    def count_line(self, value: str) -> str:
        """A statement counting what :meth:`observe` would of the local
        *value* into locals named after the hazard fields."""
        low, high = INT32_MIN, INT32_MAX
        checks = [f"int32_overflows += {value} < {low} or {value} > {high}"]
        if self.lane_bits is not None:  # the lanes' rails lie inside int32's
            low, high = -(1 << (self.lane_bits - 1)), (1 << (self.lane_bits - 1)) - 1
            checks.append(f"lane_saturations += {value} < {low} or {value} > {high}")
        if self.underflow_floor is not None:
            low = max(low, self.underflow_floor + 1)
            checks.append(f"underflows += {value} <= {self.underflow_floor}")
        return f"if {value} < {low} or {value} > {high}: " + "; ".join(checks)

    @property
    def triggered(self) -> bool:
        """True when any hazard counter is nonzero."""
        return bool(self.int32_overflows or self.lane_saturations or self.underflows)

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in SENTINEL_FIELDS}

    def merge(self, counts: Dict[str, int]) -> None:
        """Fold another sentinel's snapshot into this one."""
        for name in SENTINEL_FIELDS:
            setattr(self, name, getattr(self, name) + int(counts.get(name, 0)))


def make_sentinel(kernel: str) -> Sentinel:
    """The sentinel configuration appropriate for *kernel*.

    Every kernel watches the int32 rails; what else it arms is its
    engine row's ``sentinel`` field (:data:`repro.engine.kernels.KERNELS`:
    BSW's 8-bit lanes, PairHMM's log floor).  A kernel without a row
    (POA, Bellman-Ford) watches the rails only.
    """
    # Imported here: the engine's rows import this module.
    from repro.engine.kernels import KERNELS

    row = KERNELS.get(kernel)
    return Sentinel(**row.sentinel) if row is not None else Sentinel()


__all__ = [
    "PAIRHMM_UNDERFLOW_FLOOR",
    "SENTINEL_FIELDS",
    "Sentinel",
    "make_sentinel",
    "LANE8_MAX",
    "LANE8_MIN",
]
