"""ReplacementPathOracle: cost-model unit tests + property fuzz.

The satellite contract: random (s, t, e) queries across every
generator family must agree with ``baselines.centralized`` ground
truth — including unreachable/INF answers and edges not on the s-t
path.
"""

import random

import pytest

from conftest import family_instances
from repro.baselines.centralized import replacement_lengths
from repro.congest.words import INF
from repro.graphs.instance import instance_from_edges
from repro.serve import (
    FALLBACK_CACHED,
    FALLBACK_SOLVE,
    HIT_OFF_PATH,
    HIT_PATH_EDGE,
    ReplacementPathOracle,
    centralized_truth,
    hit_ratio,
)
from repro.telemetry.counters import registry
from repro.telemetry.schema import SERVE_ORACLE_ANSWERS


def chain_instance():
    """A bare chain: every path-edge failure disconnects t (INF)."""
    edges = [(0, 1), (1, 2), (2, 3)]
    return instance_from_edges(edges, [0, 1, 2, 3], name="chain4")


class TestOracleHits:
    def test_path_edge_hits_match_centralized(self, grid):
        oracle = ReplacementPathOracle.build(grid, solver="theorem1")
        truth = replacement_lengths(grid)
        for i, edge in enumerate(grid.path_edges()):
            answer = oracle.query(grid.s, grid.t, edge)
            assert answer.kind == HIT_PATH_EDGE
            assert answer.length == truth[i]

    def test_off_path_edge_is_path_length(self, small_random):
        oracle = ReplacementPathOracle.build(
            small_random, solver="centralized")
        on_path = small_random.path_edge_set()
        off = [(u, v) for u, v, _ in small_random.edges
               if (u, v) not in on_path]
        assert off, "family should have off-path edges"
        answer = oracle.query(small_random.s, small_random.t, off[0])
        assert answer.kind == HIT_OFF_PATH
        assert answer.length == small_random.path_length
        assert answer.length == centralized_truth(
            small_random, small_random.s, small_random.t, off[0])

    def test_non_edge_is_also_an_off_path_hit(self, grid):
        oracle = ReplacementPathOracle.build(grid,
                                             solver="centralized")
        answer = oracle.query(grid.s, grid.t, (grid.t, grid.s))
        assert answer.kind == HIT_OFF_PATH
        assert answer.length == grid.path_length

    def test_unreachable_is_inf(self):
        inst = chain_instance()
        oracle = ReplacementPathOracle.build(inst,
                                             solver="theorem1")
        for edge in inst.path_edges():
            answer = oracle.query(inst.s, inst.t, edge)
            assert answer.length >= INF
            assert not answer.reachable
            assert answer.display_length() == "inf"


class TestOracleFallback:
    def test_arbitrary_pair_solves_then_caches(self, small_random):
        oracle = ReplacementPathOracle.build(
            small_random, solver="centralized")
        edge = small_random.path_edges()[0]
        s = small_random.path[1]

        def answered():
            return [registry.value(SERVE_ORACLE_ANSWERS.name, kind=kind)
                    for kind in (FALLBACK_SOLVE, FALLBACK_CACHED)]

        before = answered()
        first = oracle.query(s, small_random.t, edge)
        assert first.kind == FALLBACK_SOLVE
        # Different target, same (s, e): served from the memo.
        second = oracle.query(s, small_random.path[0], edge)
        assert second.kind == FALLBACK_CACHED
        assert [a - b for a, b in zip(answered(), before)] == [1, 1]

    def test_out_of_range_endpoints_raise(self, grid):
        oracle = ReplacementPathOracle.build(grid,
                                             solver="centralized")
        with pytest.raises(ValueError):
            oracle.query(-1, grid.t, grid.path_edges()[0])
        with pytest.raises(ValueError):
            oracle.query(grid.s, grid.n, grid.path_edges()[0])

    def test_stats_hit_ratio(self, grid):
        oracle = ReplacementPathOracle.build(grid,
                                             solver="centralized")
        answers = [oracle.query(grid.s, grid.t, grid.path_edges()[0]),
                   oracle.query(grid.path[1], grid.t,
                                grid.path_edges()[0])]
        assert [a.kind for a in answers] == [HIT_PATH_EDGE,
                                             FALLBACK_SOLVE]
        assert hit_ratio(answers) == 0.5


class TestOracleProperty:
    """The fuzz satellite: every family, every query class."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_random_queries_match_centralized(self, weighted):
        rng = random.Random(20260728 + weighted)
        for inst in family_instances(weighted=weighted):
            oracle = ReplacementPathOracle.build(
                inst, solver="centralized")
            pool = ([(u, v) for u, v, _ in inst.edges]
                    + inst.path_edges() * 3
                    + [(inst.t, inst.s)])  # usually a non-edge
            for _ in range(40):
                shape = rng.randrange(3)
                if shape == 0:  # own pair (hit classes)
                    s, t = inst.s, inst.t
                elif shape == 1:  # arbitrary pair
                    s, t = (rng.randrange(inst.n),
                            rng.randrange(inst.n))
                else:  # on-path source, arbitrary target
                    s = rng.choice(inst.path)
                    t = rng.randrange(inst.n)
                edge = rng.choice(pool)
                answer = oracle.query(s, t, edge)
                assert answer.length == centralized_truth(
                    inst, s, t, edge), (inst.name, s, t, edge)

    def test_theorem1_and_centralized_oracles_agree(self):
        for inst in family_instances(weighted=False)[:3]:
            fast = ReplacementPathOracle.build(
                inst, solver="theorem1", seed=5)
            exact = ReplacementPathOracle.build(
                inst, solver="centralized")
            assert fast.lengths == exact.lengths


class TestSnapshot:
    def test_roundtrip_preserves_answers(self, chords):
        oracle = ReplacementPathOracle.build(chords,
                                             solver="centralized")
        restored = ReplacementPathOracle.from_snapshot(
            chords, oracle.snapshot())
        assert restored is not None
        assert restored.lengths == oracle.lengths
        edge = chords.path_edges()[2]
        assert (restored.query(chords.s, chords.t, edge).length
                == oracle.query(chords.s, chords.t, edge).length)

    def test_snapshot_is_json_safe(self, grid):
        import json
        oracle = ReplacementPathOracle.build(grid,
                                             solver="centralized")
        data = json.loads(json.dumps(oracle.snapshot()))
        restored = ReplacementPathOracle.from_snapshot(grid, data)
        assert restored is not None and restored.lengths == \
            oracle.lengths

    def test_mismatched_snapshot_rejected(self, grid, small_random):
        oracle = ReplacementPathOracle.build(grid,
                                             solver="centralized")
        assert ReplacementPathOracle.from_snapshot(
            small_random, oracle.snapshot()) is None
        broken = oracle.snapshot()
        broken["lengths"] = broken["lengths"][:-1]
        assert ReplacementPathOracle.from_snapshot(grid, broken) is \
            None

    def test_unknown_solver_rejected(self, grid):
        with pytest.raises(ValueError):
            ReplacementPathOracle.build(grid, solver="quantum")
