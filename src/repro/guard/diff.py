"""Differential fuzzing of compiled programs vs. reference kernels.

Every kernel GenDP maps has two implementations in this repo: the
DPMap-compiled VLIW program (executed through the functional compute
model) and the plain-Python reference kernel.  Differential fuzzing is
the strongest correctness check we have: generate a seeded random
workload, run both, and compare.  Six kernels are covered -- BSW,
PairHMM, Chain and DTW through the engine's runners, POA and
Bellman-Ford through functional sweeps of their scratchpad-mapping
cell programs (:mod:`repro.mapping.longrange` semantics, without the
cycle-level simulator cost).  The engine-backed four are checked twice
per case: the interpreted program against the reference kernel, and
the fused sweep every executor runs, armed too, against the oracle.

Everything the guard, ``gendp-lint`` and ``gendp-analyze`` know about
a fuzzed kernel by name is its row of :data:`FUZZ_KERNELS`; the
engine-backed rows are built from :data:`repro.engine.kernels.KERNELS`,
and only POA and Bellman-Ford declare their own.

Case generation is a pure function of ``(seed, kernel, index)`` via
:func:`repro.faults.seeded_rng`, so campaigns are resumable and two
processes fuzzing the same seed see byte-identical workloads.

On mismatch the harness **shrinks**: payload fields lose chunks while
the mismatch persists (:func:`shrink_payload`), and cell-level
divergences reduce the DFG to the failing output cone with minimized
input values (:func:`shrink_case`), serialized as a standalone JSON
:class:`Reproducer` that replays without any of the original workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dfg.graph import ConstRef, DataFlowGraph, InputRef, NodeRef, Opcode
from repro.dfg.kernels import bellman_ford_dfg, poa_edge_dfg, poa_final_dfg
from repro.dpmap.codegen import (
    CellProgram,
    compile_cell,
    offset_cell_program,
    run_program,
    verify_program,
)
from repro.engine.cache import CompiledProgram, compiled_from_cell
from repro.engine.kernels import KERNELS
from repro.engine.runners import (
    DEFAULT_CHAIN_WINDOW,
    _cell_executor,
    build_dfg,
    match_table_for,
    reference_result,
    results_match,
    run_job,
)
from repro.engine.specialize import MatchTable
from repro.faults.plan import seeded_rng
from repro.guard.sentinels import Sentinel, make_sentinel
from repro.kernels.bellman_ford import Edge, bellman_ford
from repro.kernels.chain import DEFAULT_AVG_SEED_WEIGHT
from repro.kernels.poa import PartialOrderGraph, graph_dp_tables
from repro.opt import OptResult, contract_for, default_pipeline
from repro.seq.alphabet import encode
from repro.seq.scoring import ScoringScheme

Payload = Dict[str, Any]
Observe = Optional[Callable[[int], None]]

_BASES = "ACGT"

#: Long-range integer infinities, matching repro.mapping.longrange.
NEG = -(1 << 20)
BF_INF = 1 << 25


# ----------------------------------------------------------------------
# compiled programs


@dataclass
class KernelPrograms:
    """Everything one kernel's compiled path needs, compiled once."""

    kernel: str
    #: Engine-backed kernels carry the picklable payload the runners
    #: consume, wrapped from ``cells["cell"]``; ``cells`` always holds
    #: the full cell programs (with mapping + DFG).
    compiled: Optional[CompiledProgram] = None
    cells: Dict[str, CellProgram] = field(default_factory=dict)
    #: Per-cell optimizer outcomes, when compiled with ``optimize=True``.
    outcomes: Dict[str, OptResult] = field(default_factory=dict)

    def label(self, cell_name: str) -> str:
        """A cell program's name in every report and contract: the
        kernel for a single-cell kernel (whose one cell is ``cell``),
        ``kernel:cell`` otherwise."""
        return self.kernel if cell_name == "cell" else f"{self.kernel}:{cell_name}"

    def named_cells(self) -> List[Tuple[str, CellProgram]]:
        """(label, cell program) pairs in cell-name order: what the
        static verifier checks, the probes exercise and the linter and
        analyzer report."""
        return [(self.label(name), cell) for name, cell in sorted(self.cells.items())]


def _run_engine_compiled(
    programs: KernelPrograms, payload: Payload, observe: Observe = None
) -> Dict[str, Any]:
    """An engine kernel's job on the interpreter closure -- the oracle,
    observing for a sentinel; :func:`run_case` cross-checks the fused
    sweep, armed and not, against it."""
    kernel = programs.kernel
    oracle = _cell_executor(programs.compiled, match_table_for(kernel), observe)
    return run_job(kernel, programs.compiled, payload, oracle)


def _poa_graph(payload: Payload) -> PartialOrderGraph:
    sequences = payload["sequences"]
    graph = PartialOrderGraph(sequences[0])
    for sequence in sequences[1:]:
        graph.add_sequence(sequence)
    return graph


def _run_poa_compiled(
    programs: KernelPrograms, payload: Payload, observe: Observe = None
) -> Dict[str, Any]:
    """Functional model of the single-PE POA scratchpad mapping.

    Mirrors :func:`repro.mapping.longrange.run_poa_row_dp`'s control
    flow -- per-edge fold program, then the combine program -- without
    the cycle simulator, so thousands of fuzz cases stay cheap.
    """
    scheme = ScoringScheme()
    gap = scheme.gap
    open_cost = gap.open + gap.extend
    substitution = scheme.substitution

    def match_table(a: int, b: int) -> int:
        return substitution.match if a == b else substitution.mismatch

    edge_prog = programs.cells["edge"]
    final_prog = programs.cells["final"]
    graph = _poa_graph(payload)
    sequence = payload["query"]
    seq_codes = encode(sequence)
    rows, cols = len(graph.nodes), len(sequence) + 1

    h = [[0] * cols for _ in range(rows)]
    e = [[NEG] * cols for _ in range(rows)]
    f = [[NEG] * cols for _ in range(rows)]
    for row in graph.topological_order():
        node = graph.nodes[row]
        base = encode(node.base)[0]
        preds = node.predecessors
        for j in range(1, cols):
            if preds:
                diag_best, up_best = NEG, NEG
                for pred in preds:
                    out = run_program(
                        edge_prog,
                        {
                            "diag_best": diag_best,
                            "up_best": up_best,
                            "h_pred_diag": h[pred][j - 1],
                            "h_pred_up": h[pred][j],
                            "f_pred_up": f[pred][j],
                        },
                        observe=observe,
                    )
                    diag_best, up_best = out["diag_best"], out["up_best"]
            else:
                diag_best, up_best = 0, -open_cost
            out = run_program(
                final_prog,
                {
                    "diag_best": diag_best,
                    "up_best": up_best,
                    "q": seq_codes[j - 1],
                    "t": base,
                    "h_left": h[row][j - 1],
                    "e_left": e[row][j - 1],
                },
                match_table=match_table,
                observe=observe,
            )
            h[row][j], e[row][j], f[row][j] = out["h"], out["e"], up_best
    best = max((value for row in h for value in row), default=0)
    return {"h": h, "score": best}


def _poa_reference(payload: Payload) -> Dict[str, Any]:
    graph = _poa_graph(payload)
    h_float, _, _ = graph_dp_tables(graph, payload["query"])
    h = [[int(value) for value in row] for row in h_float]
    best = max((value for row in h for value in row), default=0)
    return {"h": h, "score": best}


def _run_bf_compiled(
    programs: KernelPrograms, payload: Payload, observe: Observe = None
) -> Dict[str, Any]:
    """Functional model of the Bellman-Ford scratchpad mapping."""
    cell = programs.cells["cell"]
    vertices = int(payload["vertices"])
    source = int(payload.get("source", 0))
    rounds = int(payload.get("rounds", max(1, vertices - 1)))
    dist = [BF_INF] * vertices
    pred = [-1] * vertices
    dist[source] = 0
    for _ in range(rounds):
        for u, v, weight in payload["edges"]:
            out = run_program(
                cell,
                {
                    "dist_u": dist[u],
                    "weight": int(weight),
                    "dist_v": dist[v],
                    "u_idx": int(u),
                    "pred": pred[v],
                },
                observe=observe,
            )
            dist[v], pred[v] = out["dist"], out["pred"]
    return {"distances": dist, "predecessors": pred}


def _bf_reference(payload: Payload) -> Dict[str, Any]:
    vertices = int(payload["vertices"])
    edges = [Edge(int(u), int(v), int(w)) for u, v, w in payload["edges"]]
    paths = bellman_ford(vertices, edges, source=int(payload.get("source", 0)))
    distances = [
        BF_INF if distance == float("inf") else int(distance)
        for distance in paths.distances
    ]
    return {"distances": distances, "predecessors": paths.predecessors}


# ----------------------------------------------------------------------
# seeded workload generation


def _dna(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choice(_BASES) for _ in range(rng.randint(low, high)))


def _bsw_payload(rng: random.Random) -> Payload:
    return {"query": _dna(rng, 4, 24), "target": _dna(rng, 4, 24)}


def _pairhmm_payload(rng: random.Random) -> Payload:
    return {"read": _dna(rng, 3, 10), "haplotype": _dna(rng, 4, 12)}


def _dtw_payload(rng: random.Random) -> Payload:
    return {
        "a": [rng.randint(0, 40) for _ in range(rng.randint(3, 12))],
        "b": [rng.randint(0, 40) for _ in range(rng.randint(3, 12))],
    }


def _chain_payload(rng: random.Random) -> Payload:
    count = rng.randint(4, 16)
    anchors: List[List[int]] = []
    x, y = 0, 0
    for _ in range(count):
        x += rng.randint(1, 40)
        y += rng.randint(1, 40)
        anchors.append([x, y, DEFAULT_AVG_SEED_WEIGHT])
    return {"anchors": anchors, "n": DEFAULT_CHAIN_WINDOW}


def _poa_payload(rng: random.Random) -> Payload:
    reads = [_dna(rng, 6, 12) for _ in range(rng.randint(2, 3))]
    return {"sequences": reads, "query": _dna(rng, 5, 10)}


def _bf_payload(rng: random.Random) -> Payload:
    vertices = rng.randint(4, 8)
    edge_count = rng.randint(vertices, 2 * vertices)
    edges: List[List[int]] = []
    for _ in range(edge_count):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices)
        while v == u:
            v = rng.randrange(vertices)
        edges.append([u, v, rng.randint(1, 20)])
    return {"vertices": vertices, "edges": edges, "source": 0}


# ----------------------------------------------------------------------
# the kernel table


@dataclass(frozen=True)
class FuzzKernel:
    """One differential-fuzz kernel: everything known about it by name."""

    #: One case's payload, drawn from the case's seeded RNG.
    generate: Callable[[random.Random], Payload]
    #: Cell name -> DFG, in register-file order (``cell`` for a
    #: single-cell kernel).  The cells of one kernel share a PE's
    #: register file: each one's registers start past the last's.
    cells: Callable[[], Dict[str, DataFlowGraph]]
    #: The compiled path: (programs, payload, ALU observe hook) -> result.
    run: Callable[[KernelPrograms, Payload, Observe], Dict[str, Any]]
    #: The software-baseline answer the compiled path must reproduce.
    reference: Callable[[Payload], Dict[str, Any]]
    #: Shrinkable payload fields: (key, minimum length).
    shrink_fields: Tuple[Tuple[str, int], ...]
    #: The MATCH_SCORE table the random cell probes run with.
    match_table: Optional[MatchTable] = None
    #: Served by the engine: compiles carry a ``CompiledProgram`` and
    #: every case also checks the fused sweep against the interpreter.
    engine: bool = False


def _engine_row(
    kernel: str, generate: Callable[[random.Random], Payload]
) -> FuzzKernel:
    """A fuzz row for an engine kernel: all but the generator from its
    :data:`repro.engine.kernels.KERNELS` row."""
    return FuzzKernel(
        generate=generate,
        cells=lambda: {"cell": build_dfg(kernel)},
        run=_run_engine_compiled,
        reference=lambda payload: reference_result(kernel, payload),
        shrink_fields=tuple((key, 1) for key in KERNELS[kernel].keys),
        match_table=match_table_for(kernel),
        engine=True,
    )


def _poa_cells() -> Dict[str, DataFlowGraph]:
    gap = ScoringScheme().gap
    return {
        "edge": poa_edge_dfg(gap.open, gap.extend),
        "final": poa_final_dfg(gap.open, gap.extend),
    }


#: The six differential-fuzz kernels (superset of the engine's serving
#: kernels on the graph side, minus LCS which BSW subsumes), in report
#: order.
FUZZ_KERNELS: Dict[str, FuzzKernel] = {
    "bsw": _engine_row("bsw", _bsw_payload),
    "pairhmm": _engine_row("pairhmm", _pairhmm_payload),
    "poa": FuzzKernel(
        generate=_poa_payload,
        cells=_poa_cells,
        run=_run_poa_compiled,
        reference=_poa_reference,
        shrink_fields=(("sequences", 1), ("query", 1)),
    ),
    "chain": _engine_row("chain", _chain_payload),
    "dtw": _engine_row("dtw", _dtw_payload),
    "bellman_ford": FuzzKernel(
        generate=_bf_payload,
        cells=lambda: {"cell": bellman_ford_dfg()},
        run=_run_bf_compiled,
        reference=_bf_reference,
        shrink_fields=(("edges", 0),),
    ),
}

DIFF_KERNELS: Tuple[str, ...] = tuple(FUZZ_KERNELS)


def fuzz_kernel(kernel: str) -> FuzzKernel:
    row = FUZZ_KERNELS.get(kernel)
    if row is None:
        raise ValueError(f"unknown guard kernel {kernel!r}")
    return row


def generate_payload(kernel: str, seed: int, index: int) -> Payload:
    """The fuzz workload for case *(seed, kernel, index)* -- pure."""
    row = fuzz_kernel(kernel)
    return row.generate(seeded_rng(seed, "guard", kernel, index))


def compile_kernel_programs(kernel: str, optimize: bool = False) -> KernelPrograms:
    """Compile the program(s) the differential sweep for *kernel* runs.

    DPMap runs once per cell.  With *optimize*, each cell then goes
    through the optimizer's pass pipeline with its label's consumed
    outputs, before the register offset.
    """
    row = fuzz_kernel(kernel)
    programs = KernelPrograms(kernel=kernel)
    base = 0
    for name, dfg in row.cells().items():
        cell = compile_cell(dfg)
        opt_stats = None
        if optimize:
            outcome = default_pipeline(contract_for(programs.label(name))).run(cell)
            programs.outcomes[name] = outcome
            cell, opt_stats = outcome.program, dict(outcome.stats)
        if base:
            cell = offset_cell_program(cell, base)
        base = cell.register_count
        programs.cells[name] = cell
        if row.engine:
            programs.compiled = compiled_from_cell(
                kernel, dfg.content_hash(), cell, opt_stats=opt_stats
            )
    return programs


# ----------------------------------------------------------------------
# reference answers and comparison


def reference_answer(kernel: str, payload: Payload) -> Dict[str, Any]:
    """The software-baseline answer the compiled path must reproduce."""
    return fuzz_kernel(kernel).reference(payload)


@dataclass(frozen=True)
class DiffOutcome:
    """One differential case: payload, both answers, verdict."""

    kernel: str
    payload: Dict[str, Any]
    expected: Dict[str, Any]
    actual: Dict[str, Any]
    ok: bool


def run_case(
    kernel: str,
    payload: Dict[str, Any],
    programs: KernelPrograms,
    sentinel: Optional[Sentinel] = None,
) -> DiffOutcome:
    """Execute one differential comparison.

    Two oracles for engine-backed kernels: the interpreted program
    against the reference kernel, then the engine's default path (the
    fused sweep, armed too under a *sentinel*: its counts included)
    bit-for-bit against the interpreter.  A divergence of the second
    kind is reported like a reference mismatch, with the interpreter's
    answer as ``expected`` and the engine's as ``actual``.
    """
    row = fuzz_kernel(kernel)
    before = sentinel.snapshot() if sentinel is not None else {}
    observe = sentinel.observe if sentinel is not None else None
    actual = row.run(programs, payload, observe)
    expected = row.reference(payload)
    ok = results_match(kernel, actual, expected)
    if ok and row.engine:
        fused = run_job(kernel, programs.compiled, payload)
        if fused != actual:
            expected, actual, ok = actual, fused, False
        elif sentinel is not None:
            counts = {k: n - before[k] for k, n in sentinel.snapshot().items()}
            oracle = dict(actual, _sentinels=counts)
            armed = run_job(kernel, programs.compiled, dict(payload, _sentinels=True))
            if armed != oracle:
                expected, actual, ok = oracle, armed, False
    return DiffOutcome(
        kernel=kernel,
        payload=payload,
        expected=expected,
        actual=actual,
        ok=ok,
    )


# ----------------------------------------------------------------------
# payload shrinking


def payload_size(kernel: str, payload: Dict[str, Any]) -> int:
    """A scalar size measure the shrinker must never increase."""
    total = 0
    for value in payload.values():
        if isinstance(value, str):
            total += len(value)
        elif isinstance(value, list):
            total += sum(
                len(item) if isinstance(item, (str, list)) else 1 for item in value
            )
    return total


def _chunk_removals(sequence: Sequence[Any], minimum: int) -> List[List[Any]]:
    """Candidate reductions of *sequence*: drop halves, then chunks,
    then single elements -- ddmin-style, largest cuts first."""
    n = len(sequence)
    candidates: List[List[Any]] = []
    if n <= minimum:
        return candidates
    chunk = n // 2
    while chunk >= 1:
        for start in range(0, n, chunk):
            reduced = list(sequence[:start]) + list(sequence[start + chunk:])
            if len(reduced) >= minimum and len(reduced) < n:
                candidates.append(reduced)
        chunk //= 2
    return candidates


def shrink_payload(
    kernel: str,
    payload: Dict[str, Any],
    still_fails: Callable[[Dict[str, Any]], bool],
) -> Dict[str, Any]:
    """Greedily shrink a failing payload while *still_fails* holds.

    Every accepted candidate is strictly smaller (by
    :func:`payload_size`), so the result is minimal w.r.t. the
    reduction moves and always smaller-or-equal to the input.
    """
    current = dict(payload)
    fields = fuzz_kernel(kernel).shrink_fields
    improved = True
    while improved:
        improved = False
        for key, minimum in fields:
            value = current.get(key)
            if not isinstance(value, (str, list)):
                continue
            for reduced in _chunk_removals(value, minimum):
                candidate = dict(current)
                candidate[key] = (
                    "".join(reduced) if isinstance(value, str) else reduced
                )
                try:
                    failing = still_fails(candidate)
                except Exception:
                    failing = False  # invalid shrink, not a reproducer
                if failing:
                    current = candidate
                    improved = True
                    break
            if improved:
                break
    return current


# ----------------------------------------------------------------------
# DFG serialization + cell-level shrinking


def dfg_to_dict(dfg: DataFlowGraph) -> Dict[str, Any]:
    """A JSON-stable structural encoding of *dfg* (reproducer format)."""
    nodes = []
    for node in dfg.nodes:
        operands: List[Dict[str, Any]] = []
        for operand in node.operands:
            if isinstance(operand, InputRef):
                operands.append({"input": operand.name})
            elif isinstance(operand, ConstRef):
                operands.append({"const": operand.value})
            else:
                operands.append({"node": operand.node_id})
        nodes.append(
            {"opcode": node.opcode.value, "operands": operands, "name": node.name}
        )
    return {
        "name": dfg.name,
        "inputs": list(dfg.inputs),
        "nodes": nodes,
        "outputs": dict(dfg.outputs),
    }


def dfg_from_dict(data: Dict[str, Any]) -> DataFlowGraph:
    """Rebuild a DFG serialized by :func:`dfg_to_dict` (for replay)."""
    dfg = DataFlowGraph(data.get("name", ""))
    for name in data.get("inputs", []):
        dfg.input(name)
    for node in data["nodes"]:
        operands = []
        for operand in node["operands"]:
            if "input" in operand:
                operands.append(dfg.input(operand["input"]))
            elif "const" in operand:
                operands.append(ConstRef(operand["const"]))
            else:
                operands.append(NodeRef(operand["node"]))
        dfg.op(Opcode(node["opcode"]), *operands, name=node.get("name", ""))
    for name, node_id in data["outputs"].items():
        dfg.mark_output(name, NodeRef(node_id))
    return dfg


def restrict_outputs(
    dfg: DataFlowGraph, output_names: Sequence[str]
) -> DataFlowGraph:
    """The sub-DFG computing only *output_names* (dead nodes dropped)."""
    keep: set = set()
    stack = [dfg.outputs[name] for name in output_names]
    while stack:
        node_id = stack.pop()
        if node_id in keep:
            continue
        keep.add(node_id)
        for operand in dfg.nodes[node_id].operands:
            if isinstance(operand, NodeRef):
                stack.append(operand.node_id)
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    reduced = DataFlowGraph(dfg.name)
    for old in order:
        node = dfg.nodes[old]
        operands = []
        for operand in node.operands:
            if isinstance(operand, NodeRef):
                operands.append(NodeRef(remap[operand.node_id]))
            elif isinstance(operand, InputRef):
                operands.append(reduced.input(operand.name))
            else:
                operands.append(ConstRef(operand.value))
        reduced.op(node.opcode, *operands, name=node.name)
    for name in output_names:
        reduced.mark_output(name, NodeRef(remap[dfg.outputs[name]]))
    return reduced


def case_size(dfg: DataFlowGraph, inputs: Dict[str, int]) -> int:
    """Shrink metric for a (DFG, inputs) cell case."""
    return len(dfg.nodes) + len(dfg.inputs) + sum(
        abs(int(value)) for value in inputs.values()
    )


def shrink_case(
    dfg: DataFlowGraph,
    inputs: Dict[str, int],
    still_fails: Callable[[DataFlowGraph, Dict[str, int]], bool],
) -> Tuple[DataFlowGraph, Dict[str, int]]:
    """Shrink a failing (DFG, inputs) cell case to a minimal cone.

    Moves: restrict to a single failing output cone (fewer nodes),
    drop individual outputs, and shrink input magnitudes toward zero.
    Only candidates for which *still_fails* holds are accepted, so the
    result still fails and is smaller-or-equal by :func:`case_size`.
    """

    def check(candidate_dfg: DataFlowGraph, candidate_inputs: Dict[str, int]) -> bool:
        try:
            return bool(still_fails(candidate_dfg, candidate_inputs))
        except Exception:
            return False

    improved = True
    while improved:
        improved = False
        # 1. Cone restriction: try each single output, smallest first.
        if len(dfg.outputs) > 1:
            candidates = sorted(
                dfg.outputs,
                key=lambda name: len(restrict_outputs(dfg, [name]).nodes),
            )
            for name in candidates:
                reduced = restrict_outputs(dfg, [name])
                reduced_inputs = {
                    key: value
                    for key, value in inputs.items()
                    if key in reduced.inputs
                }
                if check(reduced, reduced_inputs):
                    dfg, inputs = reduced, reduced_inputs
                    improved = True
                    break
            if improved:
                continue
        # 2. Input magnitude shrinking: zero, then halve toward zero.
        for name in sorted(inputs):
            value = int(inputs[name])
            for candidate_value in (0, value // 2, value - (1 if value > 0 else -1)):
                if candidate_value == value or abs(candidate_value) > abs(value):
                    continue
                candidate_inputs = dict(inputs)
                candidate_inputs[name] = candidate_value
                if check(dfg, candidate_inputs):
                    inputs = candidate_inputs
                    improved = True
                    break
            if improved:
                break
    return dfg, inputs


# ----------------------------------------------------------------------
# reproducers


@dataclass(frozen=True)
class Reproducer:
    """A minimal, self-contained failing case, JSON-serializable.

    ``kind`` is ``"payload"`` (whole-workload divergence: replay by
    re-running the kernel's differential sweep on ``payload``) or
    ``"cell"`` (single cell-update divergence: replay by compiling
    ``dfg`` and running :func:`repro.dpmap.codegen.verify_program` on
    ``inputs``).
    """

    kind: str
    kernel: str
    seed: int
    index: int
    payload: Optional[Dict[str, Any]] = None
    dfg: Optional[Dict[str, Any]] = None
    inputs: Optional[Dict[str, int]] = None
    expected: Optional[Dict[str, Any]] = None
    actual: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "kind": self.kind,
            "kernel": self.kernel,
            "seed": self.seed,
            "index": self.index,
        }
        for key in ("payload", "dfg", "inputs", "expected", "actual"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def shrink_mismatch(
    kernel: str,
    seed: int,
    index: int,
    payload: Dict[str, Any],
    programs: KernelPrograms,
) -> Reproducer:
    """Shrink a sweep-level mismatch (armed runs included) into a payload reproducer."""

    def still_fails(candidate: Dict[str, Any]) -> bool:
        return not run_case(kernel, candidate, programs, make_sentinel(kernel)).ok

    shrunk = shrink_payload(kernel, payload, still_fails)
    outcome = run_case(kernel, shrunk, programs, make_sentinel(kernel))
    return Reproducer(
        kind="payload",
        kernel=kernel,
        seed=seed,
        index=index,
        payload=shrunk,
        expected=outcome.expected,
        actual=outcome.actual,
    )


def probe_cell(
    kernel: str,
    program: CellProgram,
    seed: int,
    index: int,
    probes: int = 3,
) -> Optional[Reproducer]:
    """Random-input program-vs-DFG probes of one cell program.

    Draws *probes* random input vectors (pure in ``(seed, kernel,
    index)``), checks :func:`verify_program`, and on divergence shrinks
    the (DFG, inputs) case to a minimal cell reproducer.
    """
    match_table = fuzz_kernel(kernel).match_table
    rng = seeded_rng(seed, "guard-cell", kernel, index)
    for probe in range(probes):
        inputs = {
            name: rng.randint(-64, 64) for name in program.mapping.dfg.inputs
        }
        check = verify_program(program, inputs, match_table=match_table)
        if check:
            continue

        def still_fails(dfg: DataFlowGraph, cand_inputs: Dict[str, int]) -> bool:
            compiled = compile_cell(dfg)
            return not verify_program(compiled, cand_inputs, match_table=match_table)

        dfg, shrunk_inputs = shrink_case(
            program.mapping.dfg, inputs, still_fails
        )
        compiled = compile_cell(dfg)
        final = verify_program(compiled, shrunk_inputs, match_table=match_table)
        return Reproducer(
            kind="cell",
            kernel=kernel,
            seed=seed,
            index=index,
            dfg=dfg_to_dict(dfg),
            inputs=shrunk_inputs,
            expected=final.expected,
            actual=final.actual,
        )
    return None
