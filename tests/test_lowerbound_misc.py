"""Tests for the Ω(D) construction (Theorem 2) and the cut-traffic
analysis (the simulation-lemma view)."""

import pytest

from repro.baselines import two_sisp_length
from repro.congest.words import INF
from repro.core import solve_two_sisp
from repro.lowerbound import (
    bipartite_cut,
    build_diameter_instance,
    build_hard_instance,
    expected_two_sisp,
    measure_cut_traffic,
)


class TestOmegaDConstruction:
    @pytest.mark.parametrize("diameter", [3, 6, 10])
    def test_intact_second_path(self, diameter):
        inst = build_diameter_instance(diameter)
        assert two_sisp_length(inst) == diameter + 1
        assert expected_two_sisp(diameter, None) == diameter + 1

    @pytest.mark.parametrize("rev", [0, 2, 5])
    def test_reversed_edge_destroys_second_path(self, rev):
        inst = build_diameter_instance(6, reversed_edge=rev)
        assert two_sisp_length(inst) == INF

    def test_distributed_solver_distinguishes(self):
        for rev in (None, 1):
            inst = build_diameter_instance(7, reversed_edge=rev)
            got = solve_two_sisp(inst,
                                 landmarks=list(range(inst.n)))
            assert got.length == expected_two_sisp(7, rev)

    def test_rounds_grow_with_diameter(self):
        rounds = []
        for diameter in (4, 8, 16, 32):
            inst = build_diameter_instance(diameter)
            got = solve_two_sisp(inst, landmarks=list(range(inst.n)))
            assert got.length == expected_two_sisp(diameter, None)
            rounds.append(got.rounds)
        assert rounds == sorted(rounds)
        assert rounds[2] > rounds[0] and rounds[3] > rounds[0]

    def test_padding_clique(self):
        inst = build_diameter_instance(4, pad_to=30)
        assert inst.n == 30
        assert two_sisp_length(inst) == 5  # padding changes nothing

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_diameter_instance(1)


class TestCutAnalysis:
    def build(self):
        k = 2
        M = [[1, 0], [0, 1]]
        x = [1, 1, 1, 1]
        return build_hard_instance(k, 2, 1, M, x)

    def test_cut_partitions_vertices(self):
        hard = self.build()
        alice = bipartite_cut(hard)
        assert hard.alpha in alice
        assert hard.beta not in alice
        assert 0 < len(alice) < hard.n

    def test_traffic_crosses_cut_on_real_run(self):
        hard = self.build()

        def run(net):
            from repro.congest.spanning_tree import build_spanning_tree
            from repro.core.knowledge import oracle_knowledge
            from repro.core.long_detour import long_detour_lengths
            from repro.core.short_detour import short_detour_lengths
            knowledge = oracle_knowledge(hard.instance)
            tree = build_spanning_tree(net)
            zeta = 4
            short_detour_lengths(hard.instance, net, knowledge, zeta)
            long_detour_lengths(
                hard.instance, net, tree, knowledge, zeta,
                landmarks=list(range(hard.n)))

        report = measure_cut_traffic(hard, run)
        # Any correct run must move information across the cut: the
        # optimal detours thread the bipartite gadget.
        assert report.crossing_words > 0
        assert report.payload_bits == 4
        assert report.crossing_words >= report.payload_bits
        assert report.total_words >= report.crossing_words
        assert report.rounds > 0
        assert report.words_per_round > 0

    def test_crossing_at_least_payload_on_decisive_run(self):
        # Information-theoretically, decoding all of M requires at least
        # k² bits to cross; our (word-level, hence generous) measurement
        # must certainly exceed that.
        hard = self.build()

        def run(net):
            from repro.congest.spanning_tree import build_spanning_tree
            from repro.core.knowledge import oracle_knowledge
            from repro.core.long_detour import long_detour_lengths
            knowledge = oracle_knowledge(hard.instance)
            tree = build_spanning_tree(net)
            long_detour_lengths(
                hard.instance, net, tree, knowledge, 4,
                landmarks=list(range(hard.n)))

        report = measure_cut_traffic(hard, run)
        assert report.crossing_words >= report.payload_bits
