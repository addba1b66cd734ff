"""Cycle-simulator validation of the scratchpad (long-range) kernels."""

import random

import pytest

from repro.kernels.bellman_ford import Edge, bellman_ford
from repro.kernels.poa import PartialOrderGraph, graph_dp_tables
from repro.mapping.longrange import BF_INF, run_bellman_ford, run_poa_row_dp
from repro.seq.alphabet import random_sequence
from repro.seq.mutate import MutationProfile, Mutator
from repro.workloads.graphs import generate_bf_workload


def noisy_graph(rng, length=12, reads=2):
    template = random_sequence(length, rng)
    mutator = Mutator(MutationProfile.nanopore(), rng)
    graph = PartialOrderGraph(template)
    for _ in range(reads):
        graph.add_sequence(mutator.mutate(template))
    return graph, template, mutator


class TestPOAOnSimulator:
    def test_h_table_matches_reference(self, rng):
        graph, template, mutator = noisy_graph(rng)
        query = mutator.mutate(template)
        run = run_poa_row_dp(graph, query)
        assert run.finished
        reference_h, _, _ = graph_dp_tables(graph, query)
        for row in range(len(graph.nodes)):
            for j in range(1, len(query) + 1):
                assert run.h[row][j - 1] == reference_h[row][j]

    def test_long_range_rows_hit_scratchpad(self, rng):
        graph, template, mutator = noisy_graph(rng, length=16, reads=3)
        run = run_poa_row_dp(graph, mutator.mutate(template))
        assert run.spm_accesses > run.cells  # every cell reads pred rows

    def test_profile_option_reports_without_changing_the_run(self, rng):
        graph, template, mutator = noisy_graph(rng, length=8, reads=1)
        query = mutator.mutate(template)
        plain = run_poa_row_dp(graph, query)
        profiled = run_poa_row_dp(graph, query, profile=True)
        assert plain.profile is None
        assert (profiled.cycles, profiled.h) == (plain.cycles, plain.h)
        assert 0 < profiled.profile.bundles < profiled.cycles

    def test_chain_graph_works(self, rng):
        # Degenerate case: a pure chain (every node one predecessor).
        graph = PartialOrderGraph(random_sequence(10, rng))
        query = random_sequence(8, rng)
        run = run_poa_row_dp(graph, query)
        reference_h, _, _ = graph_dp_tables(graph, query)
        assert run.h[-1][-1] == reference_h[-1][-1]

    def test_empty_query_rejected(self, rng):
        graph = PartialOrderGraph("ACGT")
        with pytest.raises(ValueError):
            run_poa_row_dp(graph, "")


class TestBellmanFordOnSimulator:
    def test_distances_match_reference(self, rng):
        workload = generate_bf_workload(vertices=15, neighbors=3, seed=7)
        edges = [Edge(e.src, e.dst, int(e.weight * 1000)) for e in workload.edges]
        run = run_bellman_ford(workload.vertex_count, edges, source=workload.source)
        reference = bellman_ford(
            workload.vertex_count, edges, source=workload.source
        )
        assert run.finished
        expected = [
            int(d) if d != float("inf") else BF_INF for d in reference.distances
        ]
        assert run.distances == expected
        assert run.predecessors == reference.predecessors

    def test_unreachable_vertices_stay_inf(self):
        edges = [Edge(0, 1, 5)]
        run = run_bellman_ford(3, edges, source=0)
        assert run.distances == [0, 5, BF_INF]

    def test_float_weights_rejected(self):
        with pytest.raises(ValueError):
            run_bellman_ford(2, [Edge(0, 1, 0.5)], source=0)

    def test_round_limit_controls_propagation(self):
        # A 5-vertex chain needs 4 rounds; with 1 round only the first
        # hop settles.
        edges = [Edge(i, i + 1, 1) for i in range(4)]
        partial = run_bellman_ford(5, edges, source=0, rounds=1)
        assert partial.distances[1] == 1
        full = run_bellman_ford(5, edges, source=0)
        assert full.distances == [0, 1, 2, 3, 4]
