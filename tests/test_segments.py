"""Tests for checkpoints and segment pipelining (Lemmas 5.7–5.9)."""

import pytest

from repro.congest.spanning_tree import build_spanning_tree
from repro.congest.words import INF
from repro.core.knowledge import oracle_knowledge
from repro.core.landmark_distances import compute_landmark_distances
from repro.core.segments import (
    checkpoint_positions,
    finish_distance_tables,
    prefix_min_to_landmarks,
    suffix_min_from_landmarks,
)
from repro.graphs import grid_instance, path_with_chords_instance


class TestCheckpoints:
    def test_cover_whole_path(self):
        assert checkpoint_positions(10, 4) == [0, 4, 8, 10]

    def test_exact_division(self):
        assert checkpoint_positions(8, 4) == [0, 4, 8]

    def test_short_path_single_segment(self):
        assert checkpoint_positions(3, 10) == [0, 3]

    def test_invalid_segment_len(self):
        with pytest.raises(ValueError):
            checkpoint_positions(5, 0)


def build_environment(instance, segment_len):
    net = instance.build_network()
    tree = build_spanning_tree(net)
    knowledge = oracle_knowledge(instance)
    landmarks = list(range(instance.n))
    distances = compute_landmark_distances(
        net, tree, landmarks, hop_limit=instance.n,
        avoid_edges=instance.path_edge_set())
    checkpoints = checkpoint_positions(instance.hop_count, segment_len)
    return net, tree, knowledge, distances, checkpoints


def brute_m(instance, knowledge, distances, i, j):
    """min_{u ≤ v_i} |su| + |u l_j|_{G\\P} — the Lemma 5.8 target."""
    best = INF
    for u_pos in range(i + 1):
        cand = (knowledge.dist_from_s[u_pos]
                + distances.to_landmark[j][knowledge.path[u_pos]])
        best = min(best, cand)
    return min(best, INF)


def brute_n(instance, knowledge, distances, i, j):
    """min_{u ≥ v_{i+1}} |l_j u|_{G\\P} + |ut| — the Lemma 5.9 target."""
    best = INF
    for u_pos in range(i + 1, knowledge.hop_count + 1):
        cand = (distances.from_landmark[j][knowledge.path[u_pos]]
                + knowledge.dist_to_t[u_pos])
        best = min(best, cand)
    return min(best, INF)


@pytest.mark.parametrize("builder,segment_len", [
    (lambda: grid_instance(3, 8), 3),
    (lambda: path_with_chords_instance(14, seed=2), 4),
    (lambda: path_with_chords_instance(14, seed=2), 100),  # one segment
])
def test_final_tables_match_brute_force(builder, segment_len):
    instance = builder()
    net, tree, knowledge, distances, checkpoints = build_environment(
        instance, segment_len)
    prefix = prefix_min_to_landmarks(net, knowledge, distances,
                                     checkpoints)
    suffix = suffix_min_from_landmarks(net, knowledge, distances,
                                       checkpoints)
    tables = finish_distance_tables(
        net, tree, knowledge, distances, checkpoints, prefix, suffix)
    h = instance.hop_count
    for j in range(distances.count):
        for i in range(h):
            assert tables["M"][j][i] == brute_m(
                instance, knowledge, distances, i, j), (i, j, "M")
            assert tables["N"][j][i] == brute_n(
                instance, knowledge, distances, i, j), (i, j, "N")


def test_prefix_traces_are_local_minima():
    instance = grid_instance(3, 7)
    net, tree, knowledge, distances, checkpoints = build_environment(
        instance, 3)
    carried, finals = prefix_min_to_landmarks(net, knowledge, distances,
                                              checkpoints)
    # Within each segment the token carries the running minimum of the
    # local quantity across every edge, independently recomputed here,
    # and ends with the whole segment's minimum.
    for g in range(len(checkpoints) - 1):
        left, right = checkpoints[g], checkpoints[g + 1]
        for j in range(distances.count):
            best = INF
            for pos in range(left, right + 1):
                local = (knowledge.dist_from_s[pos]
                         + distances.to_landmark[j][knowledge.path[pos]])
                best = min(best, local)
                if pos < right:
                    assert carried[j][pos] == best, (g, j, pos)
            assert finals[j][g] == best, (g, j)


def test_suffix_traces_are_local_minima():
    instance = path_with_chords_instance(14, seed=2)
    net, tree, knowledge, distances, checkpoints = build_environment(
        instance, 4)
    carried, finals = suffix_min_from_landmarks(
        net, knowledge, distances, checkpoints)
    # Leftward: edge i's value leaves v_{i+1}, and the segment ends at
    # its left checkpoint.
    for g in range(len(checkpoints) - 1):
        left, right = checkpoints[g], checkpoints[g + 1]
        for j in range(distances.count):
            best = INF
            for pos in range(right, left - 1, -1):
                local = (distances.from_landmark[j][knowledge.path[pos]]
                         + knowledge.dist_to_t[pos])
                best = min(best, local)
                if pos > left:
                    assert carried[j][pos - 1] == best, (g, j, pos)
            assert finals[j][g] == best, (g, j)


def test_segment_sweeps_pipelined_round_bound():
    instance = path_with_chords_instance(30, seed=4)
    net, tree, knowledge, distances, checkpoints = build_environment(
        instance, 6)
    before = net.rounds
    prefix_min_to_landmarks(net, knowledge, distances, checkpoints)
    used = net.rounds - before
    # |L| sweeps per segment, all pipelined: O(segment + |L|), far below
    # the sequential |L| × segment cost.
    seg = 6
    k = distances.count
    assert used <= 2 * (seg + k) + 4
    assert used < k * seg
