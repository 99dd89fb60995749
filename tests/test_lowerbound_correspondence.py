"""Tests for Lemma 6.8 (lowerbound.correspondence) and the
disjointness reduction (Lemma 6.9, lowerbound.reduction)."""

import random

import pytest

from repro.lowerbound import (
    bits_to_matrix,
    build_hard_instance,
    decide_disjointness_via_two_sisp,
    decode_matrix_from_lengths,
    disjointness,
    expected_optimal_length,
    inner_product,
    verify_correspondence,
)
from repro.lowerbound.disjointness import (
    TrivialDisjointnessProtocol,
    disjointness_lower_bound_bits,
)


class TestLemma68:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_inputs_k2(self, seed):
        rng = random.Random(seed)
        k = 2
        M = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
        x = [rng.randint(0, 1) for _ in range(k * k)]
        hard = build_hard_instance(k, 2, 1, M, x)
        report = verify_correspondence(hard)
        assert report.holds, report.violations

    @pytest.mark.parametrize("seed", range(2))
    def test_random_inputs_k3(self, seed):
        rng = random.Random(100 + seed)
        k = 3
        M = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
        x = [rng.randint(0, 1) for _ in range(k * k)]
        hard = build_hard_instance(k, 2, 1, M, x)
        report = verify_correspondence(hard)
        assert report.holds, report.violations

    def test_larger_tree_depth(self):
        rng = random.Random(7)
        k = 2
        M = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
        x = [rng.randint(0, 1) for _ in range(k * k)]
        hard = build_hard_instance(k, 2, 2, M, x)
        assert verify_correspondence(hard).holds

    def test_k3_larger_tree_depth(self):
        rng = random.Random(42)
        k = 3
        M = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
        x = [rng.randint(0, 1) for _ in range(k * k)]
        hard = build_hard_instance(k, 2, 2, M, x)
        assert verify_correspondence(hard).holds

    def test_hit_count_matches_inner_structure(self):
        k = 2
        M = [[1, 0], [0, 1]]
        x = [1, 1, 0, 1]
        hard = build_hard_instance(k, 2, 1, M, x)
        report = verify_correspondence(hard)
        # hits = x_i ∧ M_{φ(i)} with φ row-major: positions 1 and 4.
        assert report.hits == [True, False, False, True]

    def test_decode_matrix_under_full_x(self):
        rng = random.Random(11)
        k = 3
        M = [[rng.randint(0, 1) for _ in range(k)] for _ in range(k)]
        hard = build_hard_instance(k, 2, 1, M, [1] * (k * k))
        from repro.baselines import replacement_lengths
        lengths = replacement_lengths(hard.instance)
        decoded = decode_matrix_from_lengths(lengths, k, 2, 1)
        assert decoded == M

    def test_optimal_length_formula(self):
        assert expected_optimal_length(2, 2, 1) == 12 + 4 + 4
        assert expected_optimal_length(3, 2, 2) == 27 + 8 + 4


class TestDisjointnessBasics:
    def test_inner_product(self):
        assert inner_product([1, 0, 1], [1, 1, 0]) == 1
        with pytest.raises(ValueError):
            inner_product([1], [1, 0])

    def test_disjointness_values(self):
        assert disjointness([1, 0], [0, 1]) == 1
        assert disjointness([1, 0], [1, 0]) == 0

    def test_trivial_protocol_bits(self):
        answer, transcript = TrivialDisjointnessProtocol().run(
            [1, 0, 1, 1], [0, 1, 0, 0])
        assert answer == 1
        assert transcript.alice_bits == 4
        assert transcript.bob_bits == 1
        assert transcript.total_bits == 5
        assert transcript.total_bits >= disjointness_lower_bound_bits(4)

    def test_transcript_rejects_non_bits(self):
        from repro.lowerbound.disjointness import Transcript
        with pytest.raises(ValueError):
            Transcript().send("alice", "2x")


class TestLemma69Reduction:
    def test_bits_to_matrix_row_major(self):
        assert bits_to_matrix([1, 0, 0, 1], 2) == [[1, 0], [0, 1]]
        with pytest.raises(ValueError):
            bits_to_matrix([1, 0], 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_end_to_end_random(self, seed):
        rng = random.Random(seed)
        k = 2
        x = [rng.randint(0, 1) for _ in range(k * k)]
        y = [rng.randint(0, 1) for _ in range(k * k)]
        report = decide_disjointness_via_two_sisp(
            x, y, k, use_oracle_knowledge=True)
        assert report.correct, (x, y, report)

    def test_intersecting_inputs(self):
        report = decide_disjointness_via_two_sisp(
            [1, 0, 0, 0], [1, 0, 0, 0], 2, use_oracle_knowledge=True)
        assert report.expected == 0 and report.decided == 0
        assert report.two_sisp_length == report.optimal_length

    def test_disjoint_inputs(self):
        report = decide_disjointness_via_two_sisp(
            [1, 0, 0, 0], [0, 1, 1, 1], 2, use_oracle_knowledge=True)
        assert report.expected == 1 and report.decided == 1
        assert report.two_sisp_length > report.optimal_length

    def test_all_zero_alice(self):
        report = decide_disjointness_via_two_sisp(
            [0, 0, 0, 0], [1, 1, 1, 1], 2, use_oracle_knowledge=True)
        assert report.correct and report.expected == 1
