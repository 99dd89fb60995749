"""Tests for Proposition 4.1 (core.short_detour) against the centralized
short-detour oracle."""

import pytest

from repro.baselines.centralized import (
    detour_replacement_lengths_with_threshold,
)
from repro.congest.words import INF
from repro.core.knowledge import oracle_knowledge
from repro.core.short_detour import short_detour_lengths, x_geq_from_table
from tests.conftest import family_instances


@pytest.mark.parametrize("idx", range(6))
@pytest.mark.parametrize("zeta", [2, 4, 8])
def test_matches_oracle_across_families(idx, zeta):
    instance = family_instances()[idx]
    net = instance.build_network()
    knowledge = oracle_knowledge(instance)
    got = short_detour_lengths(instance, net, knowledge, zeta)
    want, _ = detour_replacement_lengths_with_threshold(instance, zeta)
    assert got == want, instance.name


def test_round_budget_linear_in_zeta(grid):
    net = grid.build_network()
    knowledge = oracle_knowledge(grid)
    zeta = 5
    short_detour_lengths(grid, net, knowledge, zeta)
    # Stage 1 is exactly ζ rounds, stage 3 exactly ζ−1.
    assert net.rounds == zeta + (zeta - 1)


def test_no_short_detours_yields_inf():
    # Double path with a long alternative: with ζ below the detour hop
    # count, the short-detour stage must report INF everywhere.
    from repro.graphs import double_path_instance
    inst = double_path_instance(6, 4)  # detour has 10 hops
    net = inst.build_network()
    knowledge = oracle_knowledge(inst)
    got = short_detour_lengths(inst, net, knowledge, zeta=3)
    assert got == [INF] * inst.hop_count


def test_large_zeta_recovers_everything():
    from repro.graphs import double_path_instance
    from repro.baselines import replacement_lengths
    inst = double_path_instance(6, 4)
    net = inst.build_network()
    knowledge = oracle_knowledge(inst)
    got = short_detour_lengths(inst, net, knowledge, zeta=inst.n)
    assert got == replacement_lengths(inst)


class TestXGeqLocalComputation:
    def test_simple_table(self):
        # f*(1) = 2 means: 1-hop detour reaching v_2.
        # At i = 0 with h_st = 3: X[0, ≥2] = 3 − 2 + 1 = 2.
        table = [None, (2, 0), None, None]
        x = x_geq_from_table(table, i=0, hop_count=3, zeta=3)
        assert x[2] == 2
        assert x[3] == INF
        assert x[1] == 2  # monotone closure over j

    def test_later_hits_do_not_improve_earlier_j(self):
        table = [None, (1, 0), (3, 0), None]
        x = x_geq_from_table(table, i=0, hop_count=3, zeta=3)
        # j = 3 via 2 hops: 3 − 3 + 2 = 2; j = 1 via 1 hop: 3 − 1 + 1 = 3.
        assert x[3] == 2
        assert x[1] == 2  # the j=3 detour also covers "≥ 1"

    def test_entries_behind_i_ignored(self):
        table = [None, (0, 0), None]
        x = x_geq_from_table(table, i=1, hop_count=2, zeta=2)
        assert x[2] == INF

    def test_zeta_truncates_table(self):
        table = [None, None, None, (2, 0)]
        x = x_geq_from_table(table, i=0, hop_count=2, zeta=2)
        assert x[2] == INF  # the hit at hop 3 is beyond ζ = 2

    def test_window_folds_hits_beyond_zeta(self):
        # Only j in (i, i+ζ] is built, whatever h_st is.  The 1-hop
        # detour rejoining at j = h_st has length h − (j − i) + 1 = 1;
        # it folds in at j = i+ζ and so covers the whole window.
        x = x_geq_from_table([None, (10 ** 6, 0)], i=0,
                             hop_count=10 ** 6, zeta=3)
        assert len(x) == 3
        assert x[3] == 1
        assert x == {1: 1, 2: 1, 3: 1}
