"""Bellman-Ford workload: roadmap graphs (robot-motion-planning shaped).

Section 7.6.5's BF study targets robotic motion planning, where the
graph is a probabilistic roadmap: vertices are configurations, edges
connect nearby configurations with distance weights.  The generator
builds exactly that -- random points in the unit square joined to their
k nearest neighbors -- which also yields the mixed near/ultra-long
vertex-index dependency profile the scratchpad-vs-DRAM split cares
about.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.kernels.bellman_ford import Edge


@dataclass
class BFWorkload:
    """One roadmap: vertex count, edges, and the query endpoints."""

    vertex_count: int
    edges: List[Edge]
    source: int
    goal: int

def generate_bf_workload(
    vertices: int = 100,
    neighbors: int = 6,
    seed: int = 0,
) -> BFWorkload:
    """Generate a k-nearest-neighbor roadmap over random 2-D points.

    Edges are bidirectional (two directed edges) weighted by Euclidean
    distance; source/goal are the extreme corners, giving long paths.
    """
    if vertices < 2:
        raise ValueError("need at least two vertices")
    if neighbors < 1:
        raise ValueError("need at least one neighbor per vertex")
    rng = random.Random(seed)
    points: List[Tuple[float, float]] = [
        (rng.random(), rng.random()) for _ in range(vertices)
    ]

    edges: List[Edge] = []
    seen = set()
    for index, point in enumerate(points):
        ranked = sorted(
            (candidate for candidate in range(vertices) if candidate != index),
            key=lambda candidate: _distance(point, points[candidate]),
        )
        for candidate in ranked[:neighbors]:
            key = (min(index, candidate), max(index, candidate))
            if key in seen:
                continue
            seen.add(key)
            weight = _distance(point, points[candidate])
            edges.append(Edge(index, candidate, weight))
            edges.append(Edge(candidate, index, weight))

    source = min(range(vertices), key=lambda i: points[i][0] + points[i][1])
    goal = max(range(vertices), key=lambda i: points[i][0] + points[i][1])
    return BFWorkload(vertex_count=vertices, edges=edges, source=source, goal=goal)


def _distance(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])
