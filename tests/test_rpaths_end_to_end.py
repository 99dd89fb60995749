"""End-to-end integration tests for Theorem 1 (core.rpaths)."""

import pytest

from repro.baselines import replacement_lengths
from repro.congest.words import INF
from repro.core.landmarks import sample_landmarks
from repro.core.rpaths import default_zeta, solve_rpaths
from repro.graphs import path_with_chords_instance
from tests.conftest import family_instances


class TestExactness:
    @pytest.mark.parametrize("idx", range(6))
    def test_full_landmarks_deterministic_exact(self, idx):
        instance = family_instances()[idx]
        report = solve_rpaths(
            instance, landmarks=list(range(instance.n)))
        assert report.lengths == replacement_lengths(instance), \
            instance.name

    @pytest.mark.parametrize("idx", range(6))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sampled_landmarks_whp_exact(self, idx, seed):
        instance = family_instances()[idx]
        report = solve_rpaths(instance, seed=seed, landmark_c=3.0)
        assert report.lengths == replacement_lengths(instance), \
            (instance.name, seed)

    def test_distributed_knowledge_matches_oracle_knowledge(self):
        instance = family_instances()[2]
        a = solve_rpaths(instance, landmarks=list(range(instance.n)),
                         use_oracle_knowledge=True)
        b = solve_rpaths(instance, landmarks=list(range(instance.n)),
                         use_oracle_knowledge=False)
        assert a.lengths == b.lengths


class TestReportContents:
    def test_phases_present(self, grid):
        chords = path_with_chords_instance(128, seed=3, overlay_hub=True)
        for instance, seed in ((grid, 1), (chords, 2)):
            report = solve_rpaths(instance, seed=seed)
            breakdown = report.ledger.breakdown()
            assert "short-detour(P4.1)" in breakdown
            assert "long-detour(P5.1)" in breakdown
            assert "knowledge(L2.5)" in breakdown
            assert sum(v for k, v in breakdown.items()
                       if k in ("short-detour(P4.1)", "long-detour(P5.1)",
                                "knowledge(L2.5)")) <= report.rounds
            assert report.phase_rounds("short-detour(P4.1)") > 0
            assert report.phase_rounds("long-detour(P5.1)") > 0

    def test_extras_hold_stage_outputs(self, grid):
        report = solve_rpaths(grid, landmarks=list(range(grid.n)))
        short = report.extras["short"]
        long_ = report.extras["long"]
        assert report.lengths == [min(a, b)
                                  for a, b in zip(short, long_)]

    def test_landmark_count_is_the_set_the_stage_used(self, grid):
        # Repeated landmarks collapse: the long-detour stage runs on
        # three, and both theorems' reports count three.
        from repro.approx.apx_rpaths import solve_apx_rpaths
        repeated = [0, 0, 1, 1, 2]
        assert solve_rpaths(grid, landmarks=repeated).landmark_count == 3
        assert solve_apx_rpaths(grid, epsilon=0.5,
                                landmarks=repeated).landmark_count == 3
        # A sampled set is counted from the one draw the stage ran on.
        report = solve_rpaths(grid, seed=4)
        assert report.landmark_count == len(
            sample_landmarks(grid.n, report.zeta, seed=5))

    def test_default_zeta_formula(self):
        assert default_zeta(1000) == 100
        assert default_zeta(1) == 1

    def test_diameter_optional(self, grid):
        report = solve_rpaths(grid, compute_diameter=True)
        assert report.diameter == grid.build_network(
        ).undirected_diameter()

    def test_weighted_instance_rejected(self):
        from repro.graphs import random_instance
        inst = random_instance(30, seed=1, weighted=True)
        with pytest.raises(ValueError):
            solve_rpaths(inst)


class TestUnreachableEdges:
    def test_no_replacement_reported_inf(self):
        # A pure path with no detours at all.
        from repro.graphs.instance import instance_from_edges
        inst = instance_from_edges(
            [(0, 1), (1, 2), (2, 3)], path=[0, 1, 2, 3])
        report = solve_rpaths(inst, landmarks=list(range(inst.n)))
        assert report.lengths == [INF, INF, INF]

    def test_mixed_reachability(self):
        # Detour exists only around the middle edge.
        from repro.graphs.instance import instance_from_edges
        inst = instance_from_edges(
            [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (5, 2)],
            path=[0, 1, 2, 3])
        report = solve_rpaths(inst, landmarks=list(range(inst.n)))
        assert report.lengths == [INF, 3 + 2, INF]


class TestZetaAblation:
    @pytest.mark.parametrize("zeta", [1, 2, 5, 20])
    def test_any_threshold_is_exact_with_full_landmarks(self, zeta):
        instance = family_instances()[3]
        report = solve_rpaths(instance, zeta=zeta,
                              landmarks=list(range(instance.n)))
        assert report.lengths == replacement_lengths(instance)
