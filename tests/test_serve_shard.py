"""Sharded service: routing, LRU, spill persistence, serving.

Also covers the runtime executor's generalized ``pool_map``, which
suite cells and the ``parallel=`` k-source fan-out run on.
"""

import sys
import threading
import time

import pytest

from repro.graphs.generators import grid_instance, random_instance
from repro.runtime.executor import POOL_ERROR, pool_map
from repro.runtime.store import ResultStore
from repro.serve import (
    OracleShard,
    Query,
    ShardStats,
    ShardedQueryService,
    centralized_truth,
    generate_workload,
    shard_of,
    spill_key,
    verify_against_centralized,
)


def _instances(count=4, n=24):
    return [random_instance(n, seed=s) for s in range(1, count + 1)]


def _service(insts, **kw):
    kw.setdefault("solver", "centralized")
    return ShardedQueryService(insts, **kw)


class TestRouting:
    def test_shard_assignment_is_stable(self):
        assert shard_of("abc", 7) == shard_of("abc", 7)
        assert 0 <= shard_of("abc", 7) < 7

    def test_every_instance_is_reachable(self):
        insts = _instances()
        service = _service(insts, shards=3)
        for inst in insts:
            edge = inst.path_edges()[0]
            answer = service.query(inst.name, inst.s, inst.t, edge)
            assert answer.length == centralized_truth(
                inst, inst.s, inst.t, edge)

    def test_unknown_instance_raises(self):
        service = _service(_instances(2))
        with pytest.raises(KeyError, match="unknown instance"):
            service.query("nope", 0, 1, (0, 1))
        with pytest.raises(KeyError, match="unknown instance"):
            service.serve([Query(s=0, t=1, edge=(0, 1),
                                 instance="nope")])

    def test_duplicate_names_rejected(self):
        inst = random_instance(20, seed=1)
        with pytest.raises(ValueError, match="duplicate"):
            ShardedQueryService([inst, inst])

    def test_unnamed_instance_rejected(self):
        inst = grid_instance(3, 5, name="x")
        inst.name = ""
        with pytest.raises(ValueError, match="name"):
            ShardedQueryService([inst])


class TestLruAndSpill:
    def test_lru_evicts_and_spill_restores(self, tmp_path):
        store = ResultStore(tmp_path)
        shard = OracleShard(capacity=1, store=store,
                            solver="centralized")
        insts = _instances(2)
        for inst in insts:
            shard.add_instance(inst)
        shard.oracle_for(insts[0].name)
        shard.oracle_for(insts[1].name)  # evicts the first
        assert shard.stats.evictions == 1
        assert shard.stats.oracle_builds == 2
        assert shard.stats.spill_saves == 2
        # Coming back to the evicted key restores from the spill, not
        # a rebuild.
        shard.oracle_for(insts[0].name)
        assert shard.stats.oracle_builds == 2
        assert shard.stats.spill_loads == 1

    def test_spill_survives_the_process_object(self, tmp_path):
        store = ResultStore(tmp_path)
        insts = _instances(2)
        first = OracleShard(capacity=2, store=store,
                            solver="centralized")
        for inst in insts:
            first.add_instance(inst)
        first.warm()
        reborn = OracleShard(capacity=2, store=store,
                             solver="centralized")
        for inst in insts:
            reborn.add_instance(inst)
        reborn.warm()
        assert reborn.stats.oracle_builds == 0
        assert reborn.stats.spill_loads == 2

    def test_spill_key_is_solver_scoped(self):
        assert (spill_key("a", "theorem1")
                != spill_key("a", "centralized"))
        assert spill_key("a", "theorem1") != spill_key("b", "theorem1")

    def test_warm_without_store_stops_at_capacity(self):
        shard = OracleShard(capacity=1, solver="centralized")
        for inst in _instances(3):
            shard.add_instance(inst)
        shard.warm()
        # Building past the LRU with nowhere to spill would discard
        # whole solves; warm must not do that.
        assert shard.stats.oracle_builds == 1
        assert shard.stats.evictions == 0

    def test_warm_with_store_spills_everything(self, tmp_path):
        shard = OracleShard(capacity=1, solver="centralized",
                            store=ResultStore(tmp_path))
        for inst in _instances(3):
            shard.add_instance(inst)
        shard.warm()
        assert shard.stats.spill_saves == 3

    def test_lru_hit_counts(self):
        shard = OracleShard(capacity=2, solver="centralized")
        inst = random_instance(20, seed=1)
        shard.add_instance(inst)
        shard.oracle_for(inst.name)
        shard.oracle_for(inst.name)
        assert shard.stats.lru_hits == 1


class TestServing:
    def test_serve_matches_truth_and_reports(self):
        insts = _instances(3)
        service = _service(insts, shards=2, capacity=2)
        queries = []
        for inst in insts:
            queries.extend(
                generate_workload("mixed", inst, 30, seed=2))
        report = service.serve(queries)
        assert report.queries == len(queries)
        assert verify_against_centralized(insts, report.answers)
        assert 0.0 < report.hit_ratio < 1.0
        assert report.as_metrics()["shards"] == 2

    def test_empty_serve_is_a_stats_snapshot(self):
        service = _service(_instances(2))
        report = service.serve([])
        assert report.queries == 0
        assert report.hit_ratio == 0.0


def _double(x):
    return x * 2


def _boom(x):
    raise RuntimeError(f"bad {x}")


class _ShortPlanner:
    """A planner stub that answers every query but the last."""

    def answer_batch(self, queries):
        return [object()] * (len(queries) - 1), None


def _stub_shard():
    shard = OracleShard(solver="centralized")
    inst = random_instance(20, seed=1)
    shard.add_instance(inst)
    queries = [Query(s=inst.s, t=inst.t, edge=e, instance=inst.name)
               for e in inst.path_edges()[:3]]
    return shard, inst, queries


class TestAnswerAlignment:
    """A short batch must raise, never shift answers onto the wrong
    queries (positional lists have no other way to notice)."""

    def test_short_planner_batch_raises(self):
        shard, inst, queries = _stub_shard()
        shard._planners[inst.name] = _ShortPlanner()
        with pytest.raises(RuntimeError, match="2 answers for 3"):
            shard.answer_batch(queries)

    def test_short_stale_batch_raises(self):
        shard, inst, queries = _stub_shard()
        shard._previous[inst.name] = (0, _ShortPlanner())
        with pytest.raises(RuntimeError, match="2 answers for 3"):
            shard.answer_stale(queries)

    def test_short_shard_batch_raises_in_service(self):
        insts = _instances(2)
        service = _service(insts, shards=1)
        queries = generate_workload("uniform", insts[0], 4, seed=0)
        shard = service.shard_for(insts[0].name)
        shard.answer_batch = lambda qs: [None] * (len(qs) - 1)
        with pytest.raises(RuntimeError, match="3 answers for 4"):
            service.serve(queries)


class _YieldingStats(ShardStats):
    """Every store gives up the interpreter lock first, so another
    thread can run between a counter's read and its write — the
    interleaving an unlocked ``+=`` is always open to, made likely."""

    def __setattr__(self, name, value):
        time.sleep(0)
        super().__setattr__(name, value)


class TestStatsUnderThreads:
    def test_concurrent_answers_lose_no_count(self):
        inst = random_instance(12, seed=4, name="stats-race")
        shard = OracleShard(solver="centralized")
        shard.stats = _YieldingStats()
        shard.add_instance(inst)
        shard.warm()
        query = Query(s=inst.s, t=inst.t, edge=inst.path_edges()[0],
                      instance=inst.name)
        threads, per = 4, 500

        def work():
            for _ in range(per):
                shard.answer_batch([query])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleaving mid-update
        try:
            workers = [threading.Thread(target=work)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(worker.is_alive() for worker in workers)
        assert shard.stats.queries == threads * per
        assert shard.stats.lru_hits == threads * per


class TestPoolMap:
    def test_ordered_results(self):
        assert pool_map(_double, [3, 1, 2], jobs=2) == [6, 2, 4]

    def test_fallback_replaces_failures(self):
        out = pool_map(
            _boom, ["a"], jobs=2,
            fallback=lambda payload, kind, msg: (payload, kind))
        assert out == [("a", POOL_ERROR)]

    def test_no_fallback_propagates(self):
        with pytest.raises(RuntimeError, match="bad a"):
            pool_map(_boom, ["a"], jobs=2)

    def test_none_results_keep_their_slot(self):
        out = pool_map(_boom, ["a", "b"], jobs=2,
                       fallback=lambda payload, kind, msg: None)
        assert out == [None, None]  # positions preserved, not dropped
