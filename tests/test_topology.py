"""Unit tests for the frozen CSR topology (congest.topology)."""

import pytest

from repro.congest.errors import UnknownVertexError
from repro.congest.network import CongestNetwork
from repro.congest.topology import CSRTopology


def diamond():
    return CSRTopology(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])


class TestConstruction:
    def test_adjacency_matches_edges(self):
        topo = diamond()
        assert topo.out_neighbors(0) == [1, 2]
        assert topo.in_neighbors(3) == [1, 2]
        assert topo.neighbors(0) == [1, 2, 3]
        assert topo.num_edges == 5

    def test_csr_arrays_consistent_with_lists(self):
        topo = diamond()
        for u in range(topo.n):
            lo, hi = topo.nbr_indptr[u], topo.nbr_indptr[u + 1]
            assert topo.nbr_indices[lo:hi] == topo.neighbors(u)
            lo, hi = topo.out_indptr[u], topo.out_indptr[u + 1]
            assert topo.out_indices[lo:hi] == topo.out_neighbors(u)
            lo, hi = topo.in_indptr[u], topo.in_indptr[u + 1]
            assert topo.in_indices[lo:hi] == topo.in_neighbors(u)

    def test_neighbors_sorted(self):
        topo = CSRTopology(5, [(3, 1), (1, 0), (4, 1), (1, 2)])
        assert topo.neighbors(1) == [0, 2, 3, 4]

    def test_duplicate_edges_first_weight_wins(self):
        topo = CSRTopology(2, [(0, 1, 7), (0, 1, 9)])
        assert topo.num_edges == 1
        assert topo.weight(0, 1) == 7

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            CSRTopology(0, [])
        with pytest.raises(UnknownVertexError):
            CSRTopology(2, [(0, 5)])
        with pytest.raises(ValueError):
            CSRTopology(2, [(0, 0)])
        with pytest.raises(ValueError):
            CSRTopology(2, [(0, 1, -3)])


class TestLinkIds:
    def test_link_id_bijection(self):
        topo = diamond()
        seen = set()
        for v in range(topo.n):
            for u in topo.neighbors(v):
                lid = topo.link_id(u, v)
                assert 0 <= lid < topo.num_dirlinks
                assert topo.link_endpoints(lid) == (u, v)
                seen.add(lid)
        assert len(seen) == topo.num_dirlinks

    def test_receiver_major_layout(self):
        # Sorting link ids must sort by (receiver, sender): the batched
        # fabric's deterministic delivery order depends on this layout.
        topo = diamond()
        pairs = []
        for v in range(topo.n):
            for u in topo.neighbors(v):
                pairs.append((topo.link_id(u, v), (v, u)))
        pairs.sort()
        assert [p for _, p in pairs] == sorted(p for _, p in pairs)

    def test_both_directions_have_ids(self):
        topo = CSRTopology(2, [(0, 1)])
        assert topo.num_dirlinks == 2
        assert topo.link_id(0, 1) != topo.link_id(1, 0)
        assert topo.has_link(1, 0) and not topo.has_edge(1, 0)

    def test_missing_link_raises_keyerror_with_pair(self):
        topo = diamond()
        with pytest.raises(KeyError, match=r"\(1, 2\)"):
            topo.link_id(1, 2)
        with pytest.raises(KeyError):
            topo.weight(3, 1)

    def test_directed_edges_input_order(self):
        edges = [(3, 1), (0, 2), (1, 0)]
        topo = CSRTopology(4, edges)
        assert list(topo.directed_edges()) == edges


class TestSharing:
    def test_networks_share_one_topology_but_not_ledgers(self):
        topo = diamond()
        a = CongestNetwork(4, [], topology=topo)
        b = CongestNetwork(4, [], topology=topo)
        assert a.topology is b.topology
        a.exchange({0: [(1, ("x",))]})
        assert a.rounds == 1 and b.rounds == 0

    def test_instance_caches_topology(self):
        from repro.graphs import random_instance
        instance = random_instance(12, seed=3)
        a = instance.build_network()
        b = instance.build_network(fabric="reference")
        assert a.topology is b.topology

    def test_mismatched_topology_rejected(self):
        with pytest.raises(ValueError, match="n=4"):
            CongestNetwork(5, [], topology=diamond())

    def test_unknown_fabric_rejected(self):
        with pytest.raises(ValueError, match="fabric"):
            CongestNetwork(2, [(0, 1)], fabric="warp")
