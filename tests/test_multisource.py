"""Tests for the k-source h-hop BFS (Lemma 5.5, congest.multisource)."""

import pytest

from repro.congest.multisource import multi_source_hop_bfs
from repro.congest.network import CongestNetwork
from repro.congest.words import INF
from repro.graphs import random_instance


def reference_hop_distances(instance, sources, hop_limit, direction):
    """Centralized BFS reference."""
    out = []
    for s in sources:
        dist = instance.dijkstra(s, reverse=(direction == "in"))
        out.append([d if d <= hop_limit else INF for d in dist])
    return out


class TestMultiSourceBfs:
    def test_matches_reference_forward(self):
        instance = random_instance(60, seed=31)
        net = instance.build_network()
        sources = [0, 5, 11, 23]
        got = multi_source_hop_bfs(net, sources, hop_limit=6)
        want = reference_hop_distances(instance, sources, 6, "out")
        assert got == want

    def test_matches_reference_backward(self):
        instance = random_instance(60, seed=32)
        net = instance.build_network()
        sources = [1, 8, 30]
        got = multi_source_hop_bfs(net, sources, hop_limit=5,
                                   direction="in")
        want = reference_hop_distances(instance, sources, 5, "in")
        assert got == want

    def test_hop_limit_is_respected(self):
        net = CongestNetwork(5, [(i, i + 1) for i in range(4)])
        got = multi_source_hop_bfs(net, [0], hop_limit=2)
        assert got[0] == [0, 1, 2, INF, INF]

    def test_avoid_edges(self):
        net = CongestNetwork(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
        got = multi_source_hop_bfs(
            net, [0], hop_limit=4,
            avoid_edges=frozenset([(0, 1)]))
        assert got[0][1] == INF
        assert got[0][2] == 2

    def test_round_bound_k_plus_h(self):
        # Lemma 5.5: O(k + h) rounds; allow a small constant.
        cases = [(random_instance(80, seed=33), range(0, 80, 10), 7)]
        wide = random_instance(150, seed=9)
        cases += [(wide, range(0, 7 * k, 7), hop)
                  for k, hop in ((4, 4), (4, 16), (16, 4), (16, 16))]
        for instance, sources, hop in cases:
            net = instance.build_network()
            multi_source_hop_bfs(net, list(sources), hop_limit=hop)
            assert net.rounds <= 4 * (len(sources) + hop) + 4

    def test_congestion_one_announcement_per_link(self):
        instance = random_instance(50, seed=34)
        net = instance.build_network()
        multi_source_hop_bfs(net, [0, 1, 2, 3, 4], hop_limit=6)
        assert net.ledger.max_link_words <= 3  # ("hop", rank, d)

    def test_delay_simulates_weighted_subdivision(self):
        # An edge of weight 3 with delay(w)=w behaves like 3 unit hops.
        net = CongestNetwork(3, [(0, 1, 3), (1, 2, 2)])
        got = multi_source_hop_bfs(
            net, [0], hop_limit=10, delay=lambda w: w)
        assert got[0] == [0, 3, 5]

    def test_delay_respects_hop_budget(self):
        net = CongestNetwork(3, [(0, 1, 3), (1, 2, 2)])
        got = multi_source_hop_bfs(
            net, [0], hop_limit=4, delay=lambda w: w)
        assert got[0] == [0, 3, INF]

    def test_duplicate_source_ranks_independent(self):
        net = CongestNetwork(3, [(0, 1), (1, 2)])
        got = multi_source_hop_bfs(net, [0, 0], hop_limit=3)
        assert got[0] == got[1]

    def test_empty_sources(self):
        net = CongestNetwork(3, [(0, 1), (1, 2)])
        assert multi_source_hop_bfs(net, [], hop_limit=3) == []

    @pytest.mark.parametrize("fabric", ["reference", "fast", "vector"])
    def test_returns_lists_of_python_ints(self, fabric):
        # The vector kernel's (k, n) array is listed by the public
        # wrapper: MR24, the serve planner and the catalog read rows.
        net = random_instance(30, seed=35).build_network(fabric=fabric)
        got = multi_source_hop_bfs(net, [0, 4, 9], hop_limit=3)
        assert type(got) is list and len(got) == 3
        assert all(type(row) is list and len(row) == net.n for row in got)
        assert all(type(x) is int for row in got for x in row)
