"""Tests for Lemmas 5.4/5.6 (core.landmark_distances).

With the landmark set equal to all of V, hop-bounded BFS plus closure
must reproduce exact G \\ P distances deterministically; with sparser
sets the values must never *under*-shoot (they are path lengths).
"""

import pytest

from repro.congest.spanning_tree import build_spanning_tree
from repro.congest.words import INF, words_of
from repro.core import landmark_distances
from repro.core.landmark_distances import (
    compute_landmark_distances,
    landmark_closure,
)
from repro.graphs import grid_instance, random_instance


def rows(table):
    """A completed table as lists (the vector fabric returns arrays)."""
    return table.tolist() if hasattr(table, "tolist") else table


def gp_distance_oracle(instance, sources, reverse=False):
    avoid = instance.path_edge_set()
    return [instance.dijkstra(s, reverse=reverse, avoid_edges=avoid)
            for s in sources]


class TestClosure:
    def test_identity_diagonal(self):
        closure = landmark_closure([[0, 5], [7, 0]])
        assert closure[0][0] == 0 and closure[1][1] == 0

    def test_two_hop_improvement(self):
        pair = [[0, 2, INF], [INF, 0, 3], [INF, INF, 0]]
        closure = landmark_closure(pair)
        assert closure[0][2] == 5

    def test_inf_propagation(self):
        closure = landmark_closure([[0, INF], [INF, 0]])
        assert closure[0][1] >= INF


class TestFullLandmarkExactness:
    @pytest.mark.parametrize("builder,args", [
        (grid_instance, (3, 6)),
        (random_instance, (35,)),
    ])
    def test_from_and_to_exact(self, builder, args):
        instance = builder(*args)
        net = instance.build_network()
        tree = build_spanning_tree(net)
        landmarks = list(range(instance.n))
        dists = compute_landmark_distances(
            net, tree, landmarks, hop_limit=2,
            avoid_edges=instance.path_edge_set())
        want_from = gp_distance_oracle(instance, landmarks)
        want_to = gp_distance_oracle(instance, landmarks, reverse=True)
        assert rows(dists.from_landmark) == want_from
        assert rows(dists.to_landmark) == want_to

    def test_closure_equals_pairwise(self):
        instance = grid_instance(3, 5)
        net = instance.build_network()
        tree = build_spanning_tree(net)
        landmarks = list(range(instance.n))
        dists = compute_landmark_distances(
            net, tree, landmarks, hop_limit=1,
            avoid_edges=instance.path_edge_set())
        oracle = gp_distance_oracle(instance, landmarks)
        for a in range(len(landmarks)):
            for b in range(len(landmarks)):
                assert dists.closure[a][b] == min(
                    oracle[a][landmarks[b]], INF)


class TestSparseLandmarks:
    def test_never_undershoots(self):
        instance = random_instance(60, seed=41)
        net = instance.build_network()
        tree = build_spanning_tree(net)
        landmarks = list(range(0, 60, 7))
        dists = compute_landmark_distances(
            net, tree, landmarks, hop_limit=4,
            avoid_edges=instance.path_edge_set())
        oracle_from = gp_distance_oracle(instance, landmarks)
        oracle_to = gp_distance_oracle(instance, landmarks, reverse=True)
        for a in range(len(landmarks)):
            for v in range(instance.n):
                assert dists.from_landmark[a][v] >= min(
                    oracle_from[a][v], INF)
                assert dists.to_landmark[a][v] >= min(
                    oracle_to[a][v], INF)

    def test_hop_limit_large_enough_is_exact(self):
        instance = random_instance(40, seed=42)
        net = instance.build_network()
        tree = build_spanning_tree(net)
        landmarks = list(range(0, 40, 5))
        dists = compute_landmark_distances(
            net, tree, landmarks, hop_limit=instance.n,
            avoid_edges=instance.path_edge_set())
        assert rows(dists.from_landmark) == gp_distance_oracle(
            instance, landmarks)

    def test_empty_landmarks(self):
        instance = grid_instance(2, 3)
        net = instance.build_network()
        tree = build_spanning_tree(net)
        dists = compute_landmark_distances(
            net, tree, [], hop_limit=3,
            avoid_edges=instance.path_edge_set())
        assert dists.count == 0


class TestVectorHandOff:
    def test_pair_broadcast_carries_python_ints(self, monkeypatch):
        # The vector kBFS tables stay int64 arrays up to the
        # completion, but the pair broadcast's payloads must be Python
        # ints: the wire prices no NumPy scalar.
        np = pytest.importorskip("numpy")
        with pytest.raises(TypeError):
            words_of(("pair", 0, 1, np.int64(3)))
        sent = []
        broadcast = landmark_distances.broadcast_messages

        def spy(net, tree, messages, phase):
            sent.extend(p for ps in messages.values() for p in ps)
            return broadcast(net, tree, messages, phase=phase)

        monkeypatch.setattr(landmark_distances, "broadcast_messages", spy)
        instance = random_instance(40, seed=7)
        net = instance.build_network(fabric="vector")
        landmarks = [0, 5, 9, 17]
        compute_landmark_distances(
            net, build_spanning_tree(net), landmarks, hop_limit=3,
            avoid_edges=instance.path_edge_set())
        assert len(sent) == len(landmarks) ** 2
        assert all(type(x) is int for payload in sent for x in payload[1:])
