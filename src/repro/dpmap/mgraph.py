"""Mutable working graph for DPMap's edge surgery.

DPMap "removes" DFG edges, which does not change the dataflow -- the
value still reaches the consumer -- it reroutes it through the register
file instead of the free intra-CU forwarding path.  The working graph
therefore keeps every operand's producer and a ``via_edge`` flag: True
means the value flows inside a compute unit, False means it takes an RF
write + read.

Node replication (Algorithm 1, line 12) clones a 4-input node so each
child's compute unit recomputes it locally instead of paying RF traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.dfg.graph import (
    ConstRef,
    DataFlowGraph,
    InputRef,
    NodeRef,
    Opcode,
)


@dataclass
class Source:
    """One operand slot of a working-graph node.

    Exactly one of ``input_name``/``const_value``/``producer`` is set;
    ``via_edge`` only applies to producer slots.
    """

    input_name: Optional[str] = None
    const_value: Optional[int] = None
    producer: Optional[int] = None
    via_edge: bool = True

    @property
    def is_rf_read(self) -> bool:
        """True if fetching this operand touches the register file."""
        if self.input_name is not None:
            return True
        return self.producer is not None and not self.via_edge

@dataclass
class MNode:
    """A working-graph node: opcode plus operand sources."""

    node_id: int
    opcode: Opcode
    sources: List[Source]
    name: str = ""
    #: True for nodes created by replication (they recompute a value).
    replica_of: Optional[int] = None


@dataclass
class Component:
    """A connected subgraph destined for one compute unit."""

    node_ids: List[int]

    def __len__(self) -> int:
        return len(self.node_ids)


class MappingGraph:
    """Mutable mirror of a :class:`DataFlowGraph` for DPMap passes."""

    def __init__(self, dfg: DataFlowGraph):
        dfg.validate()
        self.source_dfg = dfg
        self.nodes: Dict[int, MNode] = {}
        self.outputs: Dict[str, int] = dict(dfg.outputs)
        self._next_id = len(dfg.nodes)
        for node in dfg.nodes:
            sources = []
            for operand in node.operands:
                if isinstance(operand, InputRef):
                    sources.append(Source(input_name=operand.name))
                elif isinstance(operand, ConstRef):
                    sources.append(Source(const_value=operand.value))
                else:
                    sources.append(Source(producer=operand.node_id, via_edge=True))
            self.nodes[node.node_id] = MNode(
                node_id=node.node_id,
                opcode=node.opcode,
                sources=sources,
                name=node.name,
            )

    # ------------------------------------------------------------------
    # queries

    def topo_ids(self) -> List[int]:
        """Node ids in topological (creation) order."""
        return sorted(self.nodes)

    def via_parents(self, node_id: int) -> List[int]:
        """Distinct producers still connected by kept (intra-CU) edges."""
        seen: List[int] = []
        for source in self.nodes[node_id].sources:
            if (
                source.producer is not None
                and source.via_edge
                and source.producer not in seen
            ):
                seen.append(source.producer)
        return seen

    def via_children(self, node_id: int) -> List[int]:
        """Distinct consumers still connected by kept edges."""
        out: List[int] = []
        for other in self.nodes.values():
            for source in other.sources:
                if (
                    source.producer == node_id
                    and source.via_edge
                    and other.node_id not in out
                ):
                    out.append(other.node_id)
        return out

    def all_children(self, node_id: int) -> List[int]:
        """Distinct consumers regardless of edge state."""
        out: List[int] = []
        for other in self.nodes.values():
            for source in other.sources:
                if source.producer == node_id and other.node_id not in out:
                    out.append(other.node_id)
        return out

    # ------------------------------------------------------------------
    # surgery

    def remove_input_edges(self, node_id: int) -> None:
        """Route all of *node_id*'s producer operands through the RF."""
        for source in self.nodes[node_id].sources:
            if source.producer is not None:
                source.via_edge = False

    def remove_output_edges(self, node_id: int) -> None:
        """Route every consumer of *node_id* through the RF."""
        for other in self.nodes.values():
            for source in other.sources:
                if source.producer == node_id:
                    source.via_edge = False

    def remove_edge(self, producer: int, consumer: int) -> None:
        """Route the specific producer->consumer dependency via the RF."""
        for source in self.nodes[consumer].sources:
            if source.producer == producer:
                source.via_edge = False

    def replicate_for_child(self, node_id: int, child_id: int) -> int:
        """Clone *node_id*; the clone feeds only *child_id*.

        The clone's own operands come from the RF (its template's input
        edges must already be removed, which Algorithm 1 guarantees for
        the 4-input nodes it replicates).
        """
        template = self.nodes[node_id]
        clone_id = self._next_id
        self._next_id += 1
        clone_sources = [
            Source(
                input_name=source.input_name,
                const_value=source.const_value,
                producer=source.producer,
                via_edge=False if source.producer is not None else source.via_edge,
            )
            for source in template.sources
        ]
        self.nodes[clone_id] = MNode(
            node_id=clone_id,
            opcode=template.opcode,
            sources=clone_sources,
            name=f"{template.name}_r{clone_id}",
            replica_of=node_id,
        )
        for source in self.nodes[child_id].sources:
            if source.producer == node_id:
                source.producer = clone_id
                source.via_edge = True
        return clone_id

    def drop_dead_nodes(self) -> List[int]:
        """Remove nodes that no longer feed anything and are not outputs."""
        output_ids = set(self.outputs.values())
        dropped: List[int] = []
        changed = True
        while changed:
            changed = False
            for node_id in list(self.nodes):
                if node_id in output_ids:
                    continue
                if not self.all_children(node_id):
                    del self.nodes[node_id]
                    dropped.append(node_id)
                    changed = True
        return dropped

    # ------------------------------------------------------------------
    # components

    def components(self) -> List[Component]:
        """Connected components over kept edges, in topological order.

        Each component's node list is itself topologically ordered, and
        components are ordered by their earliest node so downstream
        scheduling sees a deterministic sequence.
        """
        parent_links: Dict[int, Set[int]] = {node_id: set() for node_id in self.nodes}
        for node_id in self.nodes:
            for parent in self.via_parents(node_id):
                if parent in self.nodes:
                    parent_links[node_id].add(parent)
                    parent_links[parent].add(node_id)

        seen: Set[int] = set()
        components: List[Component] = []
        for node_id in self.topo_ids():
            if node_id in seen:
                continue
            stack, members = [node_id], []
            seen.add(node_id)
            while stack:
                current = stack.pop()
                members.append(current)
                for neighbor in parent_links[current]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            components.append(Component(node_ids=self._topo_sort(members)))
        return components

    def _topo_sort(self, members: List[int]) -> List[int]:
        """Topologically order *members* by kept edges (Kahn's algorithm).

        Replica nodes get ids later than their children, so plain id
        order is not topological; kept-edge order is what matters for
        slot assignment and depth computation.
        """
        member_set = set(members)
        indegree = {
            node_id: sum(
                1 for p in self.via_parents(node_id) if p in member_set
            )
            for node_id in members
        }
        ready = sorted(node_id for node_id in members if indegree[node_id] == 0)
        ordered: List[int] = []
        while ready:
            current = ready.pop(0)
            ordered.append(current)
            for child in self.via_children(current):
                if child in member_set:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        ready.append(child)
            ready.sort()
        if len(ordered) != len(members):
            raise ValueError("cycle detected in kept edges")
        return ordered

    def component_depth(self, component: Component) -> int:
        """Longest kept-edge path (in nodes) within *component*."""
        members = set(component.node_ids)
        depth: Dict[int, int] = {}
        for node_id in component.node_ids:  # topologically ordered
            parents = [p for p in self.via_parents(node_id) if p in members]
            depth[node_id] = 1 + max((depth[p] for p in parents), default=0)
        return max(depth.values(), default=0)
