"""Tests for the instance generators — every family must produce valid
instances in its intended regime."""

import pytest

from repro.congest.words import INF
from repro.graphs import (
    double_path_instance,
    expander_instance,
    grid_instance,
    layered_instance,
    path_with_chords_instance,
    power_law_instance,
    random_instance,
)
from repro.baselines import replacement_lengths


class TestRandomInstance:
    @pytest.mark.parametrize("seed", range(6))
    def test_valid_across_seeds(self, seed):
        inst = random_instance(50, seed=seed)
        inst.validate()

    def test_weighted_variant(self):
        inst = random_instance(40, seed=3, weighted=True, max_weight=9)
        inst.validate()
        assert any(w > 1 for _, _, w in inst.edges)

    def test_deterministic_under_seed(self):
        a = random_instance(45, seed=4)
        b = random_instance(45, seed=4)
        assert a.edges == b.edges and a.path == b.path

    def test_different_seeds_differ(self):
        a = random_instance(45, seed=1)
        b = random_instance(45, seed=2)
        assert a.edges != b.edges

    @pytest.mark.parametrize("n,avg_degree", [(1, 4.0), (2, 4.0),
                                              (4, 7.0)])
    def test_more_edges_than_the_digraph_holds_rejected(
            self, n, avg_degree):
        with pytest.raises(ValueError, match=f"n={n}, avg_degree="):
            random_instance(n, avg_degree=avg_degree)

    def test_complete_digraph_still_built(self):
        inst = random_instance(3)
        assert len(inst.edges) == 6
        inst.validate()


class TestChords:
    @pytest.mark.parametrize("hops", [4, 16, 50])
    def test_hop_count_as_requested(self, hops):
        inst = path_with_chords_instance(hops, seed=1)
        assert inst.hop_count == hops

    def test_most_edges_have_replacements(self):
        inst = path_with_chords_instance(32, seed=2)
        truth = replacement_lengths(inst)
        finite = sum(1 for x in truth if x < INF)
        assert finite >= inst.hop_count // 2

    def test_weighted_chords_valid(self):
        inst = path_with_chords_instance(20, seed=5, weighted=True)
        inst.validate()

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            path_with_chords_instance(1)


class TestLayered:
    def test_every_edge_has_replacement_when_wide(self):
        inst = layered_instance(5, 4, forward_prob=0.9, seed=1)
        truth = replacement_lengths(inst)
        assert all(x < INF for x in truth)

    def test_unweighted_replacements_equal_path_length(self):
        # In a leveled DAG every s-t path has the same hop count.
        inst = layered_instance(5, 4, forward_prob=0.9, seed=2)
        truth = replacement_lengths(inst)
        for x in truth:
            if x < INF:
                assert x == inst.hop_count

    def test_weighted_valid(self):
        layered_instance(5, 3, seed=3, weighted=True).validate()

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            layered_instance(1, 3)


class TestGrid:
    def test_replacement_is_plus_two(self):
        inst = grid_instance(3, 6)
        truth = replacement_lengths(inst)
        assert truth == [inst.hop_count + 2] * inst.hop_count

    def test_vertex_count(self):
        assert grid_instance(4, 5).n == 20

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            grid_instance(1, 5)


class TestDoublePath:
    def test_uniform_replacements(self):
        inst = double_path_instance(7, 3)
        truth = replacement_lengths(inst)
        assert truth == [10] * 7

    def test_hop_and_size(self):
        inst = double_path_instance(5, 2)
        assert inst.hop_count == 5
        assert inst.n == 5 + 1 + 6

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            double_path_instance(0, 1)
        with pytest.raises(ValueError):
            double_path_instance(5, 0)


class TestNewTopologies:
    def test_expander_valid_and_small_diameter(self):
        inst = expander_instance(40, degree=4, seed=0)
        inst.validate()
        # Near-regular: every vertex keeps bounded out-degree.
        adj = inst.adjacency()
        assert max(len(out) for out in adj) <= 8

    def test_power_law_valid_and_hubby(self):
        inst = power_law_instance(60, attach=2, seed=0)
        inst.validate()
        degree = [0] * inst.n
        for u, v, _ in inst.edges:
            degree[u] += 1
            degree[v] += 1
        # Preferential attachment: the busiest vertex dominates the
        # median by a wide margin.
        assert max(degree) >= 4 * sorted(degree)[inst.n // 2]

    def test_weighted_variants(self):
        expander_instance(24, seed=1, weighted=True).validate()
        power_law_instance(24, seed=1, weighted=True).validate()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            expander_instance(2)
        with pytest.raises(ValueError):
            expander_instance(24, degree=1)
        with pytest.raises(ValueError):
            power_law_instance(2)


class TestSeedThreading:
    def test_same_seed_same_instance(self):
        for build in (
            lambda s: random_instance(30, seed=s),
            lambda s: path_with_chords_instance(12, seed=s,
                                                weighted=True),
            lambda s: layered_instance(5, 3, seed=s),
            lambda s: expander_instance(24, seed=s),
            lambda s: power_law_instance(24, seed=s),
        ):
            a, b = build(7), build(7)
            assert a.edges == b.edges and a.path == b.path
            c = build(8)
            assert c.edges != a.edges or c.path != a.path

    def test_explicit_rng_stream_wins_over_seed(self):
        import random as _random
        a = random_instance(30, seed=0, rng=_random.Random(99))
        b = random_instance(30, seed=1, rng=_random.Random(99))
        assert a.edges == b.edges

    def test_shared_stream_is_sequential(self):
        # One Random threaded through two builds must consume the
        # stream in order: the second build differs from a fresh one.
        import random as _random
        rng = _random.Random(5)
        first = random_instance(24, rng=rng)
        second = random_instance(24, rng=rng)
        assert first.edges != second.edges
        assert second.edges != random_instance(
            24, rng=_random.Random(5)).edges

    def test_global_random_state_untouched(self):
        import random as _random
        _random.seed(1234)
        before = _random.random()
        _random.seed(1234)
        expander_instance(24, seed=3)
        power_law_instance(24, seed=3)
        random_instance(24, seed=3)
        assert _random.random() == before
