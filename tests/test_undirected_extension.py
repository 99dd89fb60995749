"""Tests for the undirected RPaths extension (extensions.undirected)."""

import pytest

from repro.congest.words import INF
from repro.extensions import (
    branch_labels,
    crossing_edge_replacement_lengths,
    is_symmetric,
    ladder_instance,
    random_undirected_instance,
    solve_rpaths_undirected,
    symmetrize,
    undirected_replacement_lengths,
)
from repro.graphs.instance import RPathsInstance


def ring_instance(n=8):
    """A cycle: the replacement for any path edge walks the other way."""
    edges = symmetrize([(i, (i + 1) % n) for i in range(n)])
    path = list(range(n // 2 + 1))
    inst = RPathsInstance(n=n, edges=edges, path=path,
                          name=f"ring({n})")
    inst.validate()
    return inst


class TestSymmetrize:
    def test_both_orientations(self):
        sym = symmetrize([(0, 1)])
        assert sym == [(0, 1, 1), (1, 0, 1)]

    def test_weights_propagate(self):
        sym = symmetrize([(0, 1)], weights={(0, 1): 5})
        assert sym == [(0, 1, 5), (1, 0, 5)]

    def test_is_symmetric_detects(self):
        inst = ring_instance()
        assert is_symmetric(inst)
        asym = RPathsInstance(n=3, edges=[(0, 1, 1), (1, 2, 1)],
                              path=[0, 1, 2])
        assert not is_symmetric(asym)

    def test_asymmetric_rejected(self):
        asym = RPathsInstance(n=3, edges=[(0, 1, 1), (1, 2, 1)],
                              path=[0, 1, 2])
        with pytest.raises(Exception):
            undirected_replacement_lengths(asym)


class TestOracle:
    def test_ring_truth(self):
        inst = ring_instance(8)
        truth = undirected_replacement_lengths(inst)
        # Any failure on the 4-edge path is replaced by going the long
        # way round: 8 − 4 + 2·(distance wasted)... on a cycle, the
        # replacement is always the full other arc: n − 1 edges rerouted
        # appropriately; check against first principles instead:
        for i, t in enumerate(truth):
            assert t == 8 - 1 - 3  # 4 forward hops replaced by 4 back
        # (concretely: s..t the other way around the ring: 8−4 = 4)

    def test_deletion_removes_both_orientations(self):
        # A graph where the reverse orientation of the failed edge would
        # create a fake replacement if not deleted.
        edges = symmetrize([(0, 1), (1, 2), (0, 2)])
        inst = RPathsInstance(n=3, edges=edges, path=[0, 1],
                              name="triangle")
        inst.validate()
        truth = undirected_replacement_lengths(inst)
        assert truth == [2]  # 0-2-1, not using (1,0)


class TestCrossingEdgeFormula:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_oracle_unweighted(self, seed):
        inst = random_undirected_instance(45, seed=seed)
        assert crossing_edge_replacement_lengths(inst) == \
            undirected_replacement_lengths(inst)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle_weighted(self, seed):
        inst = random_undirected_instance(30, seed=seed, weighted=True)
        assert crossing_edge_replacement_lengths(inst) == \
            undirected_replacement_lengths(inst)

    def test_ring(self):
        inst = ring_instance(10)
        assert crossing_edge_replacement_lengths(inst) == \
            undirected_replacement_lengths(inst)

    def test_no_replacement_is_inf(self):
        # A tree has no replacement paths at all.
        edges = symmetrize([(0, 1), (1, 2), (1, 3)])
        inst = RPathsInstance(n=4, edges=edges, path=[0, 1, 2])
        inst.validate()
        assert crossing_edge_replacement_lengths(inst) == [INF, INF]

    def test_branch_labels_on_path_vertices(self):
        inst = ring_instance(8)
        from repro.extensions.undirected import _sssp_with_parents
        _, parent = _sssp_with_parents(inst, inst.s)
        from repro.extensions.undirected import (
            _path_respecting_parents)
        parent = _path_respecting_parents(inst, None, parent)
        labels = branch_labels(inst, parent)
        for i, v in enumerate(inst.path):
            assert labels[v] == i


class TestDistributedUndirected:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_oracle_unweighted(self, seed):
        inst = random_undirected_instance(40, seed=seed)
        report = solve_rpaths_undirected(inst)
        assert report.lengths == undirected_replacement_lengths(inst)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle_weighted(self, seed):
        inst = random_undirected_instance(26, seed=seed, weighted=True)
        report = solve_rpaths_undirected(inst)
        assert report.lengths == undirected_replacement_lengths(inst)

    def test_round_profile_additive_in_hst(self):
        # O(T_SSSP + h_st + D): on a long undirected path-with-ladder,
        # rounds must stay within a small multiple of h_st + D.
        inst = ladder_instance(40)
        report = solve_rpaths_undirected(inst)
        assert report.lengths == undirected_replacement_lengths(inst)
        diameter = inst.build_network().undirected_diameter()
        assert report.rounds <= 8 * (inst.hop_count + diameter) + 30

    def test_phases_recorded(self):
        inst = random_undirected_instance(30, seed=1)
        report = solve_rpaths_undirected(inst)
        breakdown = report.ledger.breakdown()
        assert "interval-aggregation" in breakdown
        assert "result-broadcast" in breakdown


class TestStaggeredConvergecast:
    def test_aggregates_match_reference(self):
        from repro.congest.broadcast import staggered_convergecast_min
        from repro.congest.network import CongestNetwork
        from repro.congest.spanning_tree import build_spanning_tree
        import random as rnd
        rng = rnd.Random(3)
        n, waves = 20, 12
        net = CongestNetwork(n, [(i, i + 1) for i in range(n - 1)])
        tree = build_spanning_tree(net)
        table = [[rng.randrange(1000) for _ in range(waves)]
                 for _ in range(n)]
        got = staggered_convergecast_min(
            net, tree, lambda v, w: table[v][w], waves, identity=10**9)
        want = [min(table[v][w] for v in range(n))
                for w in range(waves)]
        assert got == want

    def test_pipelining_round_bound(self):
        from repro.congest.broadcast import staggered_convergecast_min
        from repro.congest.network import CongestNetwork
        from repro.congest.spanning_tree import build_spanning_tree
        n, waves = 25, 30
        net = CongestNetwork(n, [(i, i + 1) for i in range(n - 1)])
        tree = build_spanning_tree(net)
        before = net.rounds
        staggered_convergecast_min(
            net, tree, lambda v, w: v + w, waves, identity=10**9)
        used = net.rounds - before
        assert used <= waves + n + 2       # count + height
        assert used < waves * n            # i.e. genuinely pipelined
