"""Cross-algorithm consistency: four independent implementations of the
same problem must agree everywhere, and auxiliary primitives must match
their specifications."""

import pytest

from repro.baselines import (
    replacement_lengths,
    replacement_witnesses,
    solve_rpaths_mr24,
    solve_rpaths_naive,
    solve_rpaths_roditty_zwick,
)
from repro.congest.words import INF
from repro.core.rpaths import solve_rpaths
from tests.conftest import family_instances


class TestFourWayAgreement:
    """Theorem 1, MR24b, trivial, and RZ all solve the same problem."""

    @pytest.mark.parametrize("idx", range(6))
    def test_all_four_agree(self, idx):
        instance = family_instances()[idx]
        full = list(range(instance.n))
        ours = solve_rpaths(instance, landmarks=full).lengths
        mr = solve_rpaths_mr24(instance, landmarks=full).lengths
        nv = solve_rpaths_naive(instance).lengths
        rz = solve_rpaths_roditty_zwick(instance, landmarks=full)
        assert ours == mr == nv == rz, instance.name

    @pytest.mark.parametrize("idx", range(6))
    def test_witness_lengths_agree_with_distributed(self, idx):
        instance = family_instances()[idx]
        ours = solve_rpaths(instance,
                            landmarks=list(range(instance.n))).lengths
        witnesses = replacement_witnesses(instance)
        assert ours == [w.length for w in witnesses]


class TestOutputInvariants:
    """Structural facts every RPaths output must satisfy."""

    @pytest.mark.parametrize("idx", range(6))
    def test_replacement_never_shorter_than_p(self, idx):
        instance = family_instances()[idx]
        base = instance.path_length
        for x in replacement_lengths(instance):
            assert x >= base or x >= INF

    @pytest.mark.parametrize("idx", range(6))
    def test_unweighted_parity_consistency(self, idx):
        # In an unweighted graph, a replacement differs from |P| by the
        # detour overhead d − (l − j) ≥ 0; no replacement can be equal
        # to |P| unless a same-length disjoint route exists — either
        # way it is an integer ≥ |P|.
        instance = family_instances()[idx]
        for x in replacement_lengths(instance):
            if x < INF:
                assert isinstance(x, int)
                assert x >= instance.hop_count

    def test_monotone_under_edge_addition(self):
        # Adding a fresh detour can only improve (or keep) every entry.
        from repro.graphs.instance import instance_from_edges
        base_edges = [(0, 1), (1, 2), (2, 3)]
        inst_a = instance_from_edges(base_edges, path=[0, 1, 2, 3])
        before = replacement_lengths(inst_a)
        extra = base_edges + [(0, 4), (4, 5), (5, 3)]
        inst_b = instance_from_edges(extra, path=[0, 1, 2, 3])
        after = replacement_lengths(inst_b)
        assert all(b <= a for a, b in zip(before, after))
        assert after == [3, 3, 3]


class TestAuxiliaryPrimitives:
    def test_two_sisp_equals_min_across_algorithms(self):
        from repro.baselines import two_sisp_length
        from repro.core.two_sisp import solve_two_sisp
        for idx in (0, 2, 4):
            instance = family_instances()[idx]
            report = solve_two_sisp(
                instance, landmarks=list(range(instance.n)))
            assert report.length == two_sisp_length(instance)
            assert report.length == min(report.rpaths.lengths)


class TestApproxUpperBoundsExact:
    """Theorem 3's output on an unweighted instance upper-bounds and
    (1+ε)-approximates the Theorem 1 output — the two solvers are
    mutually consistent."""

    @pytest.mark.parametrize("idx", [0, 2, 3])
    def test_theorem3_brackets_theorem1(self, idx):
        from repro.approx.apx_rpaths import solve_apx_rpaths
        instance = family_instances()[idx]
        full = list(range(instance.n))
        exact = solve_rpaths(instance, landmarks=full).lengths
        approx = solve_apx_rpaths(instance, epsilon=0.5,
                                  landmarks=full).lengths
        for e, a in zip(exact, approx):
            if e >= INF:
                assert a == float("inf")
            else:
                assert e - 1e-9 <= a <= 1.5 * e + 1e-9
