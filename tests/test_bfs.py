"""Tests for the distributed BFS/SSSP primitives (congest.bfs)."""

import pytest

from repro.congest.bfs import (
    bfs_distances,
    bfs_tree,
    sssp_distances_weighted,
)
from repro.congest.network import CongestNetwork
from repro.congest.words import INF
from repro.graphs import random_instance


def diamond():
    # 0 -> 1 -> 3, 0 -> 2 -> 3, plus a long tail 3 -> 4.
    return CongestNetwork(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])


class TestBfsDistances:
    def test_forward_distances(self):
        dist = bfs_distances(diamond(), 0)
        assert dist == [0, 1, 1, 2, 3]

    def test_rounds_equal_depth(self):
        net = diamond()
        bfs_distances(net, 0)
        assert net.rounds == 3

    def test_backward_distances(self):
        # direction="in": distance from v *to* the source.
        dist = bfs_distances(diamond(), 3, direction="in")
        assert dist[0] == 2
        assert dist[1] == 1
        assert dist[4] == INF  # 4 cannot reach 3

    def test_avoid_edges_respected(self):
        dist = bfs_distances(diamond(), 0,
                             avoid_edges=frozenset([(0, 1), (0, 2)]))
        assert dist[1] == INF and dist[3] == INF

    def test_unreachable_marked_inf(self):
        net = CongestNetwork(3, [(0, 1), (2, 1)])
        dist = bfs_distances(net, 0)
        assert dist[2] == INF

    def test_matches_centralized_on_random_instance(self):
        instance = random_instance(50, seed=11)
        net = instance.build_network()
        got = bfs_distances(net, instance.s)
        want = instance.dijkstra(instance.s)
        assert got == want

    def test_reverse_matches_centralized(self):
        instance = random_instance(50, seed=12)
        net = instance.build_network()
        got = bfs_distances(net, instance.t, direction="in")
        want = instance.dijkstra(instance.t, reverse=True)
        assert got == want

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            bfs_distances(diamond(), 0, direction="sideways")


class TestBfsTree:
    def test_parent_pointers_consistent(self):
        dist, parent = bfs_tree(diamond(), 0)
        assert parent[0] == 0
        for v in range(1, 5):
            if dist[v] < INF:
                assert dist[parent[v]] == dist[v] - 1

    def test_tie_break_smallest_parent(self):
        _, parent = bfs_tree(diamond(), 0)
        assert parent[3] == 1  # 1 < 2

    def test_tree_follows_out_edges(self):
        # The tree grows forward on a directed graph: its depths are
        # the forward BFS distances, and each parent reaches its child
        # over an out-edge, one hop closer to the root.
        instance = random_instance(30, seed=11)
        topology = instance.build_network().topology
        one_way = [(u, v) for u, v in topology.directed_edges()
                   if not topology.has_edge(v, u)]
        assert one_way  # the instance is directed
        dist, parent = bfs_tree(instance.build_network(), instance.s)
        assert dist == bfs_distances(instance.build_network(), instance.s)
        for v in range(instance.n):
            if v == instance.s or dist[v] == INF:
                assert parent[v] == (v if v == instance.s else -1)
                continue
            assert topology.has_edge(parent[v], v)
            assert dist[parent[v]] == dist[v] - 1


class TestWeightedSssp:
    def test_simple_weights(self):
        net = CongestNetwork(3, [(0, 1, 5), (1, 2, 2), (0, 2, 9)])
        dist = sssp_distances_weighted(net, 0)
        assert dist == [0, 5, 7]

    def test_rounds_track_weighted_depth(self):
        net = CongestNetwork(3, [(0, 1, 5), (1, 2, 2)])
        sssp_distances_weighted(net, 0)
        assert net.rounds >= 6  # one round per weight unit en route

    def test_matches_dijkstra_on_random_weighted(self):
        instance = random_instance(35, seed=13, weighted=True,
                                   max_weight=6)
        net = instance.build_network()
        got = sssp_distances_weighted(net, instance.s)
        want = instance.dijkstra(instance.s)
        assert got == want

    def test_reverse_weighted(self):
        instance = random_instance(30, seed=14, weighted=True,
                                   max_weight=5)
        net = instance.build_network()
        got = sssp_distances_weighted(net, instance.t, direction="in")
        want = instance.dijkstra(instance.t, reverse=True)
        assert got == want
