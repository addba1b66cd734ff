"""LRU compiled-program cache.

DPMap is the engine's expensive per-kernel step: partitioning the
objective-function DFG and emitting the VLIW cell program costs orders
of magnitude more than executing one small job.  The cache keys on
``(kernel, tree depth, DFG content hash, optimization signature)`` --
the content hash (see
:meth:`repro.dfg.graph.DataFlowGraph.content_hash`) makes the key
follow the *computation*, so a renamed or rebuilt-in-different-order
DFG still hits, while any change to the objective function misses.
The optimization signature (:meth:`repro.opt.passes.PassPipeline.signature`,
empty when optimization is off) keeps optimized and unoptimized
compiles of the same DFG on distinct entries -- they are different
*programs*, as their :attr:`CompiledProgram.program_hash` (the full
instruction-encoding digest) records.

Lookups are counted per job (hits/misses/evictions), which is what the
``cache_hit_rate`` metric reports: with a warm cache a mixed stream
compiles once per distinct key and every other job hits.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.dfg.graph import DataFlowGraph
from repro.isa.compute import VLIWInstruction

CacheKey = Tuple[str, int, str, str]

#: Reduction-tree depth of the hardware's CU: the only depth with
#: instruction emission, so the only one the engine compiles for.
CU_LEVELS = 2


@dataclass(frozen=True)
class CompiledProgram:
    """The picklable execution payload of one DPMap compile.

    Only what the functional backend needs crosses process boundaries:
    the VLIW bundles plus the input/output register maps.  The full
    :class:`~repro.dpmap.codegen.CellProgram` (mapping graph, schedule,
    stats) stays in the parent for inspection via ``mapping_stats``.
    ``program_hash`` digests the exact instruction encoding
    (:func:`repro.dpmap.codegen.program_content_hash`); ``opt_stats``
    carries the optimizer's counters when a pass pipeline ran;
    ``certificate`` is the static analyzer's safety certificate as a
    plain dict (:func:`repro.static.certify.compiled_certificate`) --
    ``certificate["sentinel_free"]`` is what lets the engine elide
    runtime sentinel observation for this program.
    """

    kernel: str
    levels: int
    dfg_hash: str
    instructions: Tuple[VLIWInstruction, ...]
    input_regs: Dict[str, int]
    output_regs: Dict[str, int]
    compile_seconds: float
    mapping_stats: Optional[object] = None
    program_hash: str = ""
    opt_stats: Optional[Dict[str, int]] = None
    certificate: Optional[Dict[str, object]] = None


@dataclass
class CacheStats:
    """Lookup accounting; ``snapshot()`` exports it as a plain dict."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    compiles: int = 0
    compile_failures: int = 0
    compile_seconds: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "compiles": self.compiles,
            "compile_failures": self.compile_failures,
            "compile_seconds": self.compile_seconds,
            "hit_rate": self.hit_rate,
        }


class ProgramCache:
    """A bounded LRU of :class:`CompiledProgram` keyed by content."""

    def __init__(self, capacity: int = 32):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[CacheKey, CompiledProgram]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def keys(self) -> List[CacheKey]:
        """Current keys, least- to most-recently used."""
        return list(self._entries)

    def view(self) -> "ProgramCache":
        """A cache over these same entries that counts its own lookups
        (how a cluster's shard engines share one compile per key)."""
        view = ProgramCache(self.capacity)
        view._entries = self._entries
        return view

    @staticmethod
    def key_for(
        kernel: str,
        levels: int,
        dfg: DataFlowGraph,
        opt_signature: str = "",
    ) -> CacheKey:
        return (kernel, levels, dfg.content_hash(), opt_signature)

    def get_or_compile(
        self,
        key: CacheKey,
        compile_fn: Callable[[], CompiledProgram],
    ) -> Tuple[CompiledProgram, bool]:
        """Return ``(program, hit)``, compiling and inserting on miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry, True
        self.stats.misses += 1
        started = time.perf_counter()
        try:
            program = compile_fn()
        except Exception:
            # No partial entry is ever inserted: the next lookup for
            # this key misses again and retries the compile.
            self.stats.compile_failures += 1
            raise
        elapsed = time.perf_counter() - started
        self.stats.compiles += 1
        self.stats.compile_seconds += elapsed
        self._entries[key] = program
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return program, False


def compile_program(
    kernel: str,
    levels: int,
    dfg: DataFlowGraph,
    pipeline: Optional[object] = None,
) -> CompiledProgram:
    """Run DPMap + codegen on *dfg* and wrap the result for the cache.

    Only the 2-level reduction tree has instruction emission (the
    hardware configuration); other depths exist for the Table 2 study
    and are rejected here.  *pipeline*, when given, is a
    :class:`repro.opt.passes.PassPipeline` run over the emitted cell
    program before wrapping -- its counters land in ``opt_stats``.
    """
    if levels != CU_LEVELS:
        raise ValueError(
            "the engine executes programs for the 2-level CU only "
            f"(got levels={levels})"
        )
    from repro.dpmap.codegen import compile_cell

    started = time.perf_counter()
    cell = compile_cell(dfg)
    opt_stats: Optional[Dict[str, int]] = None
    if pipeline is not None:
        outcome = pipeline.run(cell)
        cell = outcome.program
        opt_stats = dict(outcome.stats)
    elapsed = time.perf_counter() - started
    return compiled_from_cell(kernel, dfg.content_hash(), cell, elapsed, opt_stats)


def compiled_from_cell(
    kernel: str,
    dfg_hash: str,
    cell: object,
    compile_seconds: float = 0.0,
    opt_stats: Optional[Dict[str, int]] = None,
) -> CompiledProgram:
    """Wrap an emitted (maybe optimized) :class:`~repro.dpmap.codegen.CellProgram`
    compiled from the DFG hashing to *dfg_hash*."""
    return CompiledProgram(
        kernel=kernel,
        levels=CU_LEVELS,
        dfg_hash=dfg_hash,
        instructions=tuple(cell.instructions),
        input_regs=dict(cell.input_regs),
        output_regs=dict(cell.output_regs),
        compile_seconds=compile_seconds,
        mapping_stats=cell.mapping.stats if cell.mapping else None,
        program_hash=cell.content_hash(),
        opt_stats=opt_stats,
    )
