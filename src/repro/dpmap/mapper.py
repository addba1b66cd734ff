"""DPMap driver: passes -> legal components -> VLIW schedule -> stats.

``run_dpmap`` is the public entry point.  Its result carries everything
the paper derives from the mapping:

- the component list and their CU slot assignments (for codegen);
- a 2-way VLIW list schedule (cycles per cell update);
- register-file accesses per cell (Table 2, "RF Accesses");
- CU/VLIW utilization (Table 2 "CU Utilization" and Table 11);
- compute-instruction count per cell (Figure 10d's GenDP bars).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.dfg.graph import DataFlowGraph
from repro.dpmap.mgraph import Component, MappingGraph
from repro.dpmap.passes import (
    alus_for_levels,
    legalized_assignments,
    partitioning_pass,
    refinement_pass,
    seeding_pass,
    tree_merge_pass,
)
from repro.dpmap.slots import SlotAssignment

#: Compute units per PE (2-way VLIW, Section 4.2).
CUS_PER_PE = 2


@dataclass
class MappingStats:
    """Per-cell statistics of a mapped objective function."""

    rf_reads: int
    rf_writes: int
    cycles: int
    alu_ops: int
    component_count: int
    levels: int

    @property
    def rf_accesses(self) -> int:
        """Total RF touches per cell (the Table 2 metric)."""
        return self.rf_reads + self.rf_writes

    @property
    def cu_utilization(self) -> float:
        """Busy-ALU fraction over the cell's schedule (Tables 2 and 11)."""
        capacity = self.cycles * CUS_PER_PE * alus_for_levels(self.levels)
        return self.alu_ops / capacity if capacity else 0.0

    @property
    def instructions_per_cell(self) -> int:
        """VLIW compute instructions issued per cell (Figure 10d)."""
        return self.cycles


@dataclass
class DPMapResult:
    """Everything DPMap produces for one objective function."""

    dfg: DataFlowGraph
    graph: MappingGraph
    components: List[Component]
    assignments: List[SlotAssignment]
    #: cycle index -> component indices issued that cycle (<= CUS_PER_PE)
    schedule: List[List[int]]
    stats: MappingStats


def run_dpmap(dfg: DataFlowGraph, levels: int = 2) -> DPMapResult:
    """Map *dfg* onto compute units with an L-level reduction tree.

    ``levels=2`` is the paper's design point and runs the three DPMap
    passes; ``levels=1`` degenerates to one op per instruction slot;
    ``levels=3`` adds the greedy tree-deepening merge.  All layouts are
    verified feasible by the slot assigner before emission.
    """
    graph = MappingGraph(dfg)
    if levels == 1:
        for node_id in graph.topo_ids():
            graph.remove_input_edges(node_id)
    else:
        partitioning_pass(graph)
        seeding_pass(graph)
        refinement_pass(graph)
        if levels > 2:
            tree_merge_pass(graph, levels)
    _spill_outputs(graph)
    components, assignments = legalized_assignments(graph, levels)

    schedule = _list_schedule(graph, components)
    stats = _collect_stats(graph, components, assignments, schedule, levels)
    return DPMapResult(
        dfg=dfg,
        graph=graph,
        components=components,
        assignments=assignments,
        schedule=schedule,
        stats=stats,
    )


def _spill_outputs(graph: MappingGraph) -> None:
    """Force every RF-visible value to be written to the register file.

    A compute unit writes exactly one result -- its component's root --
    so a node whose value must be architecturally visible cannot hide
    inside a component.  Two cases are spilled (all their out-edges cut,
    making the node a root):

    - DFG outputs still feeding a kept edge (e.g. POA's ``f``, both a
      cell output and an operand of ``h``);
    - nodes with *mixed* consumers -- one via a kept edge, another via
      the RF (e.g. Bellman-Ford's ``cand``, read by both ``min`` inside
      a tree and the partitioned 4-input predecessor select).
    """
    for node_id in set(graph.outputs.values()):
        if node_id in graph.nodes and graph.via_children(node_id):
            graph.remove_output_edges(node_id)
    # Spilling a node only cuts edges *from* it, so no later node's
    # membership in this set changes inside the loop.
    rf_consumed = _rf_producers(graph)
    for node_id in graph.topo_ids():
        if node_id in rf_consumed and graph.via_children(node_id):
            graph.remove_output_edges(node_id)


def _rf_producers(graph: MappingGraph) -> Set[int]:
    """Nodes at least one consumer reads through the register file."""
    return {
        source.producer
        for node in graph.nodes.values()
        for source in node.sources
        if source.producer is not None and not source.via_edge
    }


def _component_dependencies(
    graph: MappingGraph, components: List[Component]
) -> List[Set[int]]:
    """Component-level dependency sets over register-file (cut) edges."""
    owner: Dict[int, int] = {}
    for index, component in enumerate(components):
        for node_id in component.node_ids:
            owner[node_id] = index
    deps: List[Set[int]] = [set() for _ in components]
    for index, component in enumerate(components):
        for node_id in component.node_ids:
            for source in graph.nodes[node_id].sources:
                if source.producer is None:
                    continue
                producer_component = owner.get(source.producer)
                if producer_component is None or producer_component == index:
                    continue
                deps[index].add(producer_component)
    return deps


def _list_schedule(
    graph: MappingGraph, components: List[Component]
) -> List[List[int]]:
    """Greedy 2-issue list scheduling of the component DAG.

    A component may issue once all components it reads from (via the
    RF) have issued in an earlier cycle; up to :data:`CUS_PER_PE`
    components issue per cycle.
    """
    deps = _component_dependencies(graph, components)
    finished: Set[int] = set()
    pending = set(range(len(components)))
    schedule: List[List[int]] = []
    while pending:
        ready = sorted(
            index for index in pending if deps[index] <= finished
        )
        if not ready:
            raise AssertionError("cyclic component dependencies")
        issue = ready[:CUS_PER_PE]
        schedule.append(issue)
        for index in issue:
            pending.discard(index)
        finished.update(issue)
    return schedule


def _collect_stats(
    graph: MappingGraph,
    components: List[Component],
    assignments: List[SlotAssignment],
    schedule: List[List[int]],
    levels: int,
) -> MappingStats:
    """Derive the Table 2 / Table 11 metrics from the final mapping."""
    rf_reads = sum(
        1
        for node in graph.nodes.values()
        for source in node.sources
        if source.is_rf_read
    )
    written = _rf_producers(graph) | set(graph.outputs.values())
    rf_writes = len(written & graph.nodes.keys())
    alu_ops = sum(assignment.alu_ops_used for assignment in assignments)
    return MappingStats(
        rf_reads=rf_reads,
        rf_writes=rf_writes,
        cycles=len(schedule),
        alu_ops=alu_ops,
        component_count=len(components),
        levels=levels,
    )
