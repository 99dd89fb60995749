"""BatchPlanner: grouped k-source solves must be invisible in answers.

Property contract: a batch-planned answer equals the per-query
centralized ground truth for every generator family and workload
shape, on every fabric; the plan report's accounting must reflect the
documented batching rule.
"""

import random

import pytest

from conftest import family_instances
from repro.serve import planner as planner_mod
from repro.serve import (
    BATCHED_SOLVE,
    BatchPlanner,
    Query,
    ReplacementPathOracle,
    centralized_truth,
    generate_workload,
)


def _planner(inst, fabric="vector"):
    oracle = ReplacementPathOracle.build(inst, solver="centralized")
    return BatchPlanner(oracle, fabric=fabric)


def _assert_truth(inst, answers):
    for a in answers:
        q = a.query
        assert a.length == centralized_truth(
            inst, q.s, q.t, q.edge), (inst.name, q)


class TestPlannerProperty:
    @pytest.mark.parametrize("kind",
                             ["uniform", "zipf", "adversarial",
                              "mixed"])
    def test_workload_answers_match_centralized(self, kind):
        for inst in family_instances(weighted=False)[:4]:
            planner = _planner(inst)
            stream = generate_workload(kind, inst, 60, seed=9)
            answers, report = planner.answer_batch(stream)
            assert len(answers) == len(stream)
            assert report.queries == len(stream)
            _assert_truth(inst, answers)

    @pytest.mark.parametrize("fabric",
                             ["reference", "fast", "vector"])
    def test_fabrics_agree(self, small_random, fabric):
        planner = _planner(small_random, fabric=fabric)
        stream = generate_workload("zipf", small_random, 40, seed=3)
        answers, _ = planner.answer_batch(stream)
        _assert_truth(small_random, answers)

    def test_random_query_fuzz(self, chords):
        rng = random.Random(42)
        planner = _planner(chords)
        pool = [(u, v) for u, v, _ in chords.edges]
        stream = [
            Query(s=rng.randrange(chords.n),
                  t=rng.randrange(chords.n),
                  edge=rng.choice(pool), instance=chords.name)
            for _ in range(80)
        ]
        answers, _ = planner.answer_batch(stream)
        _assert_truth(chords, answers)


class TestBatchingRule:
    def test_one_solve_covers_a_shared_edge_group(self, small_random):
        inst = small_random
        planner = _planner(inst)
        edge = inst.path_edges()[0]
        sources = [v for v in range(inst.n) if v != inst.s][:10]
        stream = [Query(s=s, t=inst.t, edge=edge) for s in sources]
        answers, report = planner.answer_batch(stream)
        assert report.groups == 1
        assert report.batch_solves == 1  # 10 sources, one solve
        assert report.batched_queries == len(stream)
        assert report.solves_saved == len(stream) - 1
        assert all(a.kind == BATCHED_SOLVE for a in answers)
        _assert_truth(inst, answers)

    def test_max_group_chunks_the_sources(self, small_random,
                                          monkeypatch):
        monkeypatch.setattr(planner_mod, "MAX_GROUP", 4)
        inst = small_random
        planner = _planner(inst)
        edge = inst.path_edges()[0]
        sources = [v for v in range(inst.n) if v != inst.s][:9]
        stream = [Query(s=s, t=inst.t, edge=edge) for s in sources]
        _, report = planner.answer_batch(stream)
        assert report.groups == 1
        assert report.batch_solves == 3  # ceil(9 / 4)

    def test_own_pair_queries_never_solve(self, grid):
        planner = _planner(grid)
        stream = [Query(s=grid.s, t=grid.t, edge=e)
                  for e in grid.path_edges()]
        answers, report = planner.answer_batch(stream)
        assert report.batch_solves == 0
        assert report.oracle_answered == len(stream)
        assert report.rounds == 0  # the fabric was never touched
        _assert_truth(grid, answers)

    def test_second_batch_hits_the_seeded_memo(self, small_random):
        inst = small_random
        planner = _planner(inst)
        edge = inst.path_edges()[1]
        stream = [Query(s=inst.path[1], t=inst.t, edge=edge)]
        _, first = planner.answer_batch(stream)
        assert first.batch_solves == 1
        answers, second = planner.answer_batch(stream)
        assert second.batch_solves == 0
        assert second.memo_answered == 1
        _assert_truth(inst, answers)

    def test_weighted_instances_degrade_to_memoized_fallback(self):
        inst = family_instances(weighted=True)[0]
        planner = _planner(inst)
        stream = generate_workload("zipf", inst, 30, seed=1)
        answers, report = planner.answer_batch(stream)
        assert report.batch_solves == 0  # no hop-BFS on weights
        _assert_truth(inst, answers)
