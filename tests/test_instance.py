"""Tests for RPathsInstance validation and accessors."""

import pytest

from repro.congest.errors import InvalidInstanceError
from repro.congest.words import INF
from repro.graphs.instance import RPathsInstance, instance_from_edges


def valid_square():
    # 0 -> 1 -> 2 with a detour 0 -> 3 -> 2.
    return instance_from_edges(
        [(0, 1), (1, 2), (0, 3), (3, 2)], path=[0, 1, 2])


class TestAccessors:
    def test_basic_properties(self):
        inst = valid_square()
        assert inst.s == 0 and inst.t == 2
        assert inst.hop_count == 2
        assert inst.m == 4

    def test_path_edges(self):
        assert valid_square().path_edges() == [(0, 1), (1, 2)]

    def test_path_edge_set(self):
        assert valid_square().path_edge_set() == {(0, 1), (1, 2)}

    def test_prefix_weights_unweighted(self):
        assert valid_square().path_prefix_weights() == [0, 1, 2]

    def test_prefix_weights_weighted(self):
        inst = instance_from_edges(
            [(0, 1), (1, 2), (0, 2)], path=[0, 1, 2],
            weights={(0, 1): 2, (1, 2): 3, (0, 2): 9}, weighted=True)
        assert inst.path_prefix_weights() == [0, 2, 5]
        assert inst.path_length == 5

    def test_adjacency_cached(self):
        inst = valid_square()
        assert inst.adjacency() is inst.adjacency()

    def test_dijkstra_avoid(self):
        inst = valid_square()
        dist = inst.dijkstra(0, avoid_edges=frozenset([(0, 1)]))
        assert dist[2] == 2  # via 3
        assert dist[1] == INF


class TestValidation:
    def test_valid_instance_passes(self):
        valid_square().validate()

    def test_path_must_use_graph_edges(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_edges([(0, 1), (2, 1)], path=[0, 1, 2])

    def test_path_must_be_shortest(self):
        # Direct edge 0->2 makes the 2-hop path non-shortest.
        with pytest.raises(InvalidInstanceError) as err:
            instance_from_edges(
                [(0, 1), (1, 2), (0, 2)], path=[0, 1, 2])
        assert "shortest" in str(err.value)

    def test_path_prefixes_must_be_shortest(self):
        # Weighted: the prefix to 1 is not optimal.
        with pytest.raises(InvalidInstanceError):
            instance_from_edges(
                [(0, 1), (1, 2), (0, 3), (3, 1)],
                path=[0, 1, 2],
                weights={(0, 1): 5, (1, 2): 1, (0, 3): 1, (3, 1): 1},
                weighted=True)

    def test_repeated_path_vertex_rejected(self):
        inst = RPathsInstance(
            n=3, edges=[(0, 1, 1), (1, 0, 1), (0, 2, 1)],
            path=[0, 1, 0, 2])
        with pytest.raises(InvalidInstanceError):
            inst.validate()

    def test_duplicate_edge_rejected(self):
        inst = RPathsInstance(
            n=2, edges=[(0, 1, 1), (0, 1, 1)], path=[0, 1])
        with pytest.raises(InvalidInstanceError):
            inst.validate()

    def test_nonunit_weight_on_unweighted_rejected(self):
        inst = RPathsInstance(
            n=2, edges=[(0, 1, 3)], path=[0, 1], weighted=False)
        with pytest.raises(InvalidInstanceError):
            inst.validate()

    def test_self_loop_rejected(self):
        inst = RPathsInstance(
            n=2, edges=[(0, 1, 1), (1, 1, 1)], path=[0, 1])
        with pytest.raises(InvalidInstanceError):
            inst.validate()

    def test_unreachable_target_rejected(self):
        inst = RPathsInstance(
            n=3, edges=[(1, 0, 1), (1, 2, 1)], path=[0, 1])
        with pytest.raises(InvalidInstanceError):
            inst.validate()

    def test_disconnected_support_rejected(self):
        inst = RPathsInstance(
            n=4, edges=[(0, 1, 1), (2, 3, 1)], path=[0, 1])
        with pytest.raises(InvalidInstanceError):
            inst.validate()

    def test_single_vertex_rejected(self):
        inst = RPathsInstance(n=1, edges=[], path=[0])
        with pytest.raises(InvalidInstanceError):
            inst.validate()


class TestNetworkGlue:
    def test_build_network_shares_topology(self):
        inst = valid_square()
        net = inst.build_network()
        assert net.n == inst.n
        assert net.topology.num_edges == inst.m

    def test_strict_network(self):
        net = valid_square().build_network(bandwidth_words=1, strict=True)
        assert net.strict and net.bandwidth_words == 1
