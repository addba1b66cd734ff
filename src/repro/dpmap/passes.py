"""The DPMap passes: Algorithms 1-3 of the paper, plus legalization.

Pass order and semantics follow Section 5:

1. **Partitioning** isolates nodes that monopolize CU resources --
   multiplications (the standalone multiplier) and 4-input operations
   (the left ALU) -- by cutting their edges, replicating multi-child
   4-input nodes into their consumers when the consumer op commutes.
2. **Seeding** finds nodes with two parents (the natural root of a
   2-level reduction tree) and groups each with its parents; nodes with
   multiple children always spill to the register file.
3. **Refinement** pairs the remaining single-parent/single-child chains
   two at a time.

``legalize_pass`` is our addition: it enforces the CU's 6-operand slot
budget on corner cases the paper's pseudocode leaves implicit (e.g. a
seed with two 4-input parents).  ``tree_merge_pass`` extends components
for the deeper reduction trees of the Table 2 design-space study.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.dfg.graph import (
    COMMUTATIVE_OPCODES,
    FOUR_INPUT_OPCODES,
    Opcode,
)
from repro.dpmap.mgraph import Component, MappingGraph
from repro.dpmap.slots import SlotAssignment, try_assign

#: Operand slots available to level-1 of a compute unit: 4 on the left
#: ALU + 2 on the right (Section 4.4's "6 operands").
CU_OPERAND_BUDGET = 6

#: ALU count of an L-level reduction tree (full binary tree).
def alus_for_levels(levels: int) -> int:
    """1, 3 or 7 ALUs for 1-, 2- or 3-level trees (Table 2)."""
    if levels < 1:
        raise ValueError("reduction tree needs at least one level")
    return (1 << levels) - 1


def partitioning_pass(graph: MappingGraph) -> None:
    """Algorithm 1: isolate multiplier and 4-input-ALU nodes."""
    for node_id in graph.topo_ids():
        node = graph.nodes[node_id]
        if node.opcode is Opcode.MUL:
            graph.remove_input_edges(node_id)
            graph.remove_output_edges(node_id)
            continue
        if node.opcode in FOUR_INPUT_OPCODES:
            graph.remove_input_edges(node_id)
            children = graph.via_children(node_id)
            if len(children) > 1:
                for child in children:
                    child_op = graph.nodes[child].opcode
                    if child_op in COMMUTATIVE_OPCODES:
                        graph.replicate_for_child(node_id, child)
                    else:
                        # Subtraction (and other order-sensitive ops):
                        # spill to the RF instead of replicating.
                        graph.remove_edge(node_id, child)
    graph.drop_dead_nodes()


def seeding_pass(graph: MappingGraph) -> None:
    """Algorithm 2: group two-parent seeds with their parents."""
    for node_id in graph.topo_ids():
        if node_id not in graph.nodes:
            continue
        parents = graph.via_parents(node_id)
        if len(parents) == 2:
            graph.remove_output_edges(node_id)
            for parent in parents:
                graph.remove_input_edges(parent)
        if len(graph.via_children(node_id)) > 1:
            graph.remove_output_edges(node_id)


def refinement_pass(graph: MappingGraph) -> None:
    """Algorithm 3: pair remaining chain nodes two at a time."""
    for node_id in reversed(graph.topo_ids()):
        for parent in graph.via_parents(node_id):
            if graph.via_parents(parent):
                graph.remove_input_edges(parent)


def legalize_pass(graph: MappingGraph, levels: int = 2) -> None:
    """Enforce CU feasibility on residual corner cases.

    The paper's pseudocode leaves implicit what happens when, e.g., a
    seed groups two 4-input parents (8 operands > the 6-operand budget).
    This pass asks the slot assigner whether each component fits and
    spills edges until every component does.  It terminates because the
    all-singleton partition is always feasible.
    """
    legalized_assignments(graph, levels)


def legalized_assignments(
    graph: MappingGraph, levels: int = 2
) -> Tuple[List[Component], List[SlotAssignment]]:
    """:func:`legalize_pass`, returning its last sweep: the components
    and the slot assignment that made each feasible."""
    while True:
        components = graph.components()
        assignments = []
        for component in components:
            assignment = try_assign(graph, component, levels)
            if assignment is None:
                _spill_one(graph, component)
                break  # components changed; recompute
            assignments.append(assignment)
        else:
            return components, assignments


def _spill_one(graph: MappingGraph, component: Component) -> None:
    """Shrink an infeasible component by cutting its root's input edges."""
    root = component.node_ids[-1]
    graph.remove_input_edges(root)


def tree_merge_pass(graph: MappingGraph, levels: int) -> None:
    """Deepen components for an L-level reduction tree (Table 2 study).

    Greedily re-keeps a cut edge between two components when the merge
    still fits: depth <= *levels*, node count <= ALU count, one 4-input
    node, and the producer component feeds only that consumer.
    """
    if levels <= 2:
        return
    merged = True
    while merged:
        merged = False
        components = graph.components()
        owner = {
            node_id: index
            for index, component in enumerate(components)
            for node_id in component.node_ids
        }
        for node_id in graph.topo_ids():
            node = graph.nodes[node_id]
            if node.opcode is Opcode.MUL:
                continue
            consumers = graph.all_children(node_id)
            if len(consumers) != 1:
                continue
            consumer = consumers[0]
            if owner[consumer] == owner[node_id]:
                continue
            if graph.nodes[consumer].opcode is Opcode.MUL:
                continue
            # Tentatively re-keep the edge; the slot assigner decides.
            for source in graph.nodes[consumer].sources:
                if source.producer == node_id:
                    source.via_edge = True
            rebuilt = _component_of(graph, node_id)
            if try_assign(graph, rebuilt, levels) is None:
                graph.remove_edge(node_id, consumer)
                continue
            merged = True
            break
    return


def _component_of(graph: MappingGraph, node_id: int) -> Component:
    """The (re)computed component containing *node_id*."""
    for component in graph.components():
        if node_id in component.node_ids:
            return component
    raise KeyError(node_id)
