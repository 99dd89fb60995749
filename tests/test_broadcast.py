"""Tests for spanning tree, broadcast (Lemma 2.4), and convergecast."""

import pytest

from repro.congest.broadcast import (
    broadcast_messages,
    broadcast_value,
    convergecast,
    global_min,
)
from repro.congest.errors import CongestError
from repro.congest.network import CongestNetwork
from repro.congest.spanning_tree import build_spanning_tree
from repro.congest.words import INF
from repro.graphs import random_instance


def path_net(n):
    return CongestNetwork(n, [(i, i + 1) for i in range(n - 1)])


class TestSpanningTree:
    def test_tree_spans_and_verifies(self):
        net = path_net(6)
        tree = build_spanning_tree(net)
        tree.verify()
        assert tree.height == 5

    def test_tree_on_random_graph(self):
        instance = random_instance(60, seed=21)
        net = instance.build_network()
        tree = build_spanning_tree(net)
        tree.verify()

    def test_rounds_linear_in_depth(self):
        net = path_net(10)
        build_spanning_tree(net)
        # flood + adopt per level: at most ~2 rounds per depth level.
        assert net.rounds <= 2 * 9 + 2

    def test_disconnected_raises(self):
        net = CongestNetwork(4, [(0, 1), (2, 3)])
        with pytest.raises(CongestError):
            build_spanning_tree(net)

    def test_custom_root(self):
        net = path_net(5)
        tree = build_spanning_tree(net, root=2)
        assert tree.root == 2
        assert tree.depth[0] == 2 and tree.depth[4] == 2


class TestBroadcast:
    def test_all_messages_collected(self):
        net = path_net(5)
        tree = build_spanning_tree(net)
        msgs = {0: [("a", 1)], 4: [("b", 2), ("c", 3)]}
        got = broadcast_messages(net, tree, msgs)
        assert got == sorted([(0, ("a", 1)), (4, ("b", 2)), (4, ("c", 3))])

    def test_empty_broadcast_costs_nothing(self):
        net = path_net(4)
        tree = build_spanning_tree(net)
        before = net.rounds
        assert broadcast_messages(net, tree, {}) == []
        assert net.rounds == before

    def test_round_bound_linear_in_m_plus_d(self):
        # Lemma 2.4: O(M + D) rounds.  M messages from one end of a path
        # of diameter D = n - 1; allow a small constant factor.
        for n, m in ((20, 15), (20, 10), (20, 60), (60, 10), (60, 120)):
            net = path_net(n)
            tree = build_spanning_tree(net)
            before = net.rounds
            broadcast_messages(
                net, tree, {0: [("m", i) for i in range(m)]})
            used = net.rounds - before
            assert used <= 3 * (m + n - 1), (n, m, used)

    def test_pipelining_beats_sequential(self):
        # M messages through a path must not cost M × D rounds.
        n, m = 16, 12
        net = path_net(n)
        tree = build_spanning_tree(net)
        before = net.rounds
        broadcast_messages(
            net, tree, {n - 1: [("m", i) for i in range(m)]})
        used = net.rounds - before
        assert used < m * (n - 1) / 2

    def test_congestion_one_message_per_link(self):
        net = path_net(10)
        tree = build_spanning_tree(net)
        broadcast_messages(net, tree, {0: [("m", i) for i in range(8)]})
        assert net.ledger.max_link_words <= 4


class TestConvergecast:
    def test_min_aggregation(self):
        net = path_net(6)
        tree = build_spanning_tree(net)
        values = {v: 10 + v for v in range(6)}
        values[3] = 1
        assert convergecast(net, tree, values, min, INF) == 1

    def test_sum_aggregation(self):
        net = path_net(5)
        tree = build_spanning_tree(net)
        got = convergecast(net, tree, {v: 1 for v in range(5)},
                           lambda a, b: a + b, 0)
        assert got == 5

    def test_missing_values_use_identity(self):
        net = path_net(4)
        tree = build_spanning_tree(net)
        assert convergecast(net, tree, {2: 7}, min, INF) == 7

    def test_rounds_linear_in_depth(self):
        net = path_net(12)
        tree = build_spanning_tree(net)
        before = net.rounds
        convergecast(net, tree, {v: v for v in range(12)}, min, INF)
        assert net.rounds - before <= 12

    def test_single_vertex_tree(self):
        net = CongestNetwork(2, [(0, 1)])
        tree = build_spanning_tree(net)
        assert convergecast(net, tree, {0: 3, 1: 9}, min, INF) == 3

    def test_broadcast_value_reaches_everyone(self):
        net = path_net(7)
        tree = build_spanning_tree(net)
        assert broadcast_value(net, tree, 42) == 42

    def test_global_min(self):
        instance = random_instance(40, seed=22)
        net = instance.build_network()
        tree = build_spanning_tree(net)
        values = {v: (v * 7919) % 101 for v in range(net.n)}
        assert global_min(net, tree, values, INF) == min(values.values())
