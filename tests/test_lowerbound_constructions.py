"""Tests for the Section 6 graph constructions (Figures 1 and 2)."""

import pytest

from repro.congest import CongestNetwork
from repro.congest.words import INF
from repro.lowerbound import (
    build_gamma_graph,
    build_hard_instance,
    expected_optimal_length,
    lexicographic_phi,
)


def undirected_diameter(g):
    """The diameter of G(Γ, d, p)'s communication graph."""
    return CongestNetwork(g.n, g.edges).undirected_diameter()


class TestGammaGraph:
    @pytest.mark.parametrize("gamma,d,p", [
        (2, 2, 1), (4, 2, 2), (3, 3, 1), (2, 2, 3),
        (2, 2, 2), (3, 3, 2), (8, 2, 3),
    ])
    def test_observation_6_3_vertex_count(self, gamma, d, p):
        g = build_gamma_graph(gamma, d, p)
        assert g.n == g.expected_vertex_count()
        assert g.n == gamma * d ** p + (d ** (p + 1) - 1) // (d - 1)

    def test_observation_6_3_diameter_when_paths_long(self):
        # The 2p+2 diameter requires the paths to be longer than the
        # tree route: d^p ≥ 2p + 1.
        g = build_gamma_graph(2, 2, 3)  # d^p = 8 ≥ 7
        assert undirected_diameter(g) == g.expected_diameter() == 8

    def test_diameter_never_exceeds_bound(self):
        for gamma, d, p in [(2, 2, 1), (4, 2, 2), (3, 3, 1), (2, 2, 2),
                            (2, 2, 3), (3, 3, 2), (8, 2, 3)]:
            g = build_gamma_graph(gamma, d, p)
            assert undirected_diameter(g) <= 2 * p + 2

    def test_alpha_beta_are_extreme_leaves(self):
        g = build_gamma_graph(3, 2, 2)
        assert g.name_of[g.alpha] == ("tree", 2, 0)
        assert g.name_of[g.beta] == ("tree", 2, 3)

    def test_leaf_attachment_degree(self):
        # Each leaf attaches to Γ path vertices.
        g = build_gamma_graph(5, 2, 1)
        from collections import Counter
        degree = Counter()
        for u, v in g.edges:
            degree[u] += 1
            degree[v] += 1
        assert degree[g.alpha] == 1 + 5  # tree parent + Γ paths

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_gamma_graph(0, 2, 1)
        with pytest.raises(ValueError):
            build_gamma_graph(2, 1, 1)


class TestPhi:
    def test_bijection(self):
        k = 4
        phi = lexicographic_phi(k)
        images = {phi(i) for i in range(1, k * k + 1)}
        assert len(images) == k * k
        assert all(1 <= a <= k and 1 <= b <= k for a, b in images)

    def test_out_of_range(self):
        phi = lexicographic_phi(3)
        with pytest.raises(ValueError):
            phi(0)
        with pytest.raises(ValueError):
            phi(10)


class TestHardInstance:
    def build(self, k=2, d=2, p=1, m_bit=1, x_bit=1):
        M = [[m_bit] * k for _ in range(k)]
        x = [x_bit] * (k * k)
        return build_hard_instance(k, d, p, M, x)

    def test_observation_6_6_exact_count(self):
        for k, d, p in [(2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2)]:
            hard = build_hard_instance(
                k, d, p, [[1] * k for _ in range(k)], [1] * (k * k))
            assert hard.n == hard.expected_vertex_count_order()

    def test_diameter_at_most_2p_plus_2(self):
        hard = self.build(k=2, d=2, p=2)
        net = hard.instance.build_network()
        assert net.undirected_diameter() <= 2 * 2 + 2

    def test_pstar_is_the_given_path(self):
        hard = self.build()
        ksq = hard.k ** 2
        assert hard.instance.hop_count == ksq
        assert [hard.name_of[v] for v in hard.instance.path] == \
            [("s", i) for i in range(ksq + 1)]

    def test_tree_unreachable_from_s(self):
        # No alternative route may sneak through the tree: nothing
        # points into it.
        hard = self.build()
        dist = hard.instance.dijkstra(hard.instance.s)
        assert dist[hard.alpha] >= INF
        assert dist[hard.beta] >= INF

    def test_all_ones_every_edge_optimal(self):
        from repro.baselines import replacement_lengths
        hard = self.build(m_bit=1, x_bit=1)
        truth = replacement_lengths(hard.instance)
        opt = expected_optimal_length(hard.k, hard.d, hard.p)
        assert truth == [opt] * (hard.k ** 2)

    def test_all_zero_x_blocks_optimal(self):
        from repro.baselines import replacement_lengths
        hard = self.build(m_bit=1, x_bit=0)
        truth = replacement_lengths(hard.instance)
        opt = expected_optimal_length(hard.k, hard.d, hard.p)
        assert all(t > opt for t in truth)

    def test_matrix_zero_blocks_optimal(self):
        from repro.baselines import replacement_lengths
        hard = self.build(m_bit=0, x_bit=1)
        truth = replacement_lengths(hard.instance)
        opt = expected_optimal_length(hard.k, hard.d, hard.p)
        assert all(t > opt for t in truth)

    def test_alice_bob_sides_partition_sensibly(self):
        hard = self.build()
        alice = set(hard.alice_side())
        bob = set(hard.bob_side())
        assert not alice & bob
        assert hard.alpha in alice and hard.beta in bob

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_hard_instance(1, 2, 1, [[1]], [1])
        with pytest.raises(ValueError):
            build_hard_instance(2, 2, 1, [[1, 1]], [1] * 4)
        with pytest.raises(ValueError):
            build_hard_instance(2, 2, 1, [[1, 1], [1, 1]], [1] * 3)
