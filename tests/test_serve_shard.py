"""Sharded service: routing, LRU, spill persistence, serving."""

import itertools
import sys
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.congest.words import INF
from repro.dynamic import MutationStream, apply_mutations
from repro.graphs.generators import grid_instance, random_instance
from repro.runtime.store import ResultStore
from repro.serve import (
    OracleShard,
    Query,
    ServeDaemon,
    ShardStats,
    ShardedQueryService,
    centralized_truth,
    generate_workload,
    shard_of,
    spill_key,
    verify_against_centralized,
)
from repro.telemetry import counters as counters_mod
from repro.telemetry import tooling


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

    @pytest.mark.parametrize("cls, count, lookup", [
        (ShardedQueryService, "shards", "shard_for"),
        (ServeDaemon, "workers", "shard_for_key"),
    ])
    def test_both_serving_paths_route_alike(self, cls, count, lookup):
        """The library service and the daemon (never started here)
        place a catalog with the same checks and the same error."""
        insts = _instances(3)
        unnamed = grid_instance(3, 5, name="x")
        unnamed.name = ""
        for catalog, kw, match in (
                ([], {}, "at least one instance"),
                (insts, {count: 0}, "count must be positive"),
                ([unnamed], {}, "needs a name"),
                ([insts[0], insts[0]], {}, "duplicate instance name")):
            with pytest.raises(ValueError, match=match):
                cls(catalog, solver="centralized", **kw)
        served = cls(insts, solver="centralized", **{count: 2})
        assert served.instance_keys == sorted(i.name for i in insts)
        names = ", ".join(sorted(i.name for i in insts))
        with pytest.raises(KeyError) as err:
            getattr(served, lookup)("nope")
        assert err.value.args == (
            f"unknown instance 'nope'; served: {names}",)


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


def _dispatch_rows():
    counters = counters_mod.registry.snapshot()["counters"]
    return {(kernel, outcome, reason)
            for kernel, outcome, reason, _ in
            tooling.dispatch_rows(counters)}


class TestOneFabric:
    def test_fabric_builds_the_oracle_and_runs_the_planner(self):
        # A theorem-1 build plus a mixed stream: oracle hits and
        # planner fallbacks (k-source solves) on one engine setting.
        insts = _instances(2)
        queries = [q for inst in insts
                   for q in generate_workload("mixed", inst, 30, seed=2)]
        out = {}
        try:
            for fabric in ("default", "fast"):
                kw = {} if fabric == "default" else {"fabric": fabric}
                service = ShardedQueryService(insts, shards=2, **kw)
                counters_mod.registry.reset()
                service.warm()
                build = _dispatch_rows()
                counters_mod.registry.reset()
                answers = service.serve(queries).answers
                plan = _dispatch_rows()
                tables = [service.shard_for(inst.name)
                          .planner_for(inst.name).oracle.lengths
                          for inst in insts]
                out[fabric] = (answers, tables, build, plan)
        finally:
            counters_mod.registry.reset()
        assert out["default"][:2] == out["fast"][:2]
        _, _, build, plan = out["default"]
        assert any(o == "vector" for _, o, _ in build), build
        assert ("multisource", "vector", "") in plan, plan
        _, _, build, plan = out["fast"]
        assert build and plan
        assert build | plan == {(kernel, "fallback", "fabric-not-vector")
                                for kernel, _, _ in build | plan}


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


#: Queries a machine step sends: (instance, source, target, edge)
#: picks.  Few sources and edges, so fallback rows are asked for again
#: after mutations (the memo carry); source 4 is the instance's own
#: pair (the precomputed table).
_PICKS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4),
                            st.integers(0, 63), st.integers(0, 7)),
                  min_size=1, max_size=4)


class ShardMachine(RuleBasedStateMachine):
    """One :class:`OracleShard` with a spill store under any order of
    answers, mutations, stale reads and warms, against a model of its
    LRU, previous-epoch slots and spills and against
    ``centralized_truth`` on the epoch each answer belongs to."""

    def __init__(self, store_dir):
        super().__init__()
        self.store = ResultStore(store_dir)

    @initialize(capacity=st.integers(1, 2), seed=st.integers(0, 99))
    def setup(self, capacity, seed):
        self.capacity = capacity
        self.shard = OracleShard(capacity=capacity, store=self.store,
                                 solver="centralized")
        instances = [
            random_instance(12, seed=1, name="machine-0"),
            random_instance(12, seed=2, name="machine-1"),
            random_instance(12, seed=3, weighted=True, max_weight=5,
                            name="machine-2"),
        ]
        #: key -> the instance of every epoch so far, by version.
        self.epochs = {}
        for inst in instances:
            self.shard.add_instance(inst)
            self.epochs[inst.name] = [inst]
        self.keys = [inst.name for inst in instances]
        self.stream = MutationStream(seed=seed)
        self.lru = []  # hot keys, least recently used first
        self.previous = {}  # key -> epoch of its previous-epoch slot
        self.spilled = set()  # (key, epoch) snapshots in the store
        self.builds = self.spill_loads = self.invalidations = 0
        self.queries = self.stale = 0

    def _current(self, key):
        return self.epochs[key][-1]

    def _queries(self, picks, key=None):
        queries = []
        for which, s, t, e in picks:
            inst = self._current(key or self.keys[which])
            edges = inst.path_edges() + [(u, v) for u, v, _ in inst.edges]
            if s == 4:
                s, t = inst.s, inst.t
            queries.append(Query(s=s, t=t % inst.n, edge=edges[e],
                                 instance=inst.name))
        return queries

    def _touch(self, key):
        """What ``planner_for`` does to the model."""
        if key in self.lru:
            self.lru.remove(key)
        else:
            epoch = len(self.epochs[key]) - 1
            if (key, epoch) in self.spilled:
                self.spill_loads += 1
            else:
                self.builds += 1
                self.spilled.add((key, epoch))
            self.previous.pop(key, None)
        self.lru.append(key)
        del self.lru[:-self.capacity]

    @rule(picks=_PICKS)
    def answer(self, picks):
        queries = self._queries(picks)
        answers = self.shard.answer_batch(queries)
        for key in dict.fromkeys(q.instance for q in queries):
            self._touch(key)
        for q, a in zip(queries, answers):
            assert a.length == centralized_truth(
                self._current(q.instance), q.s, q.t, q.edge)
        self.queries += len(queries)

    @rule(which=st.integers(0, 2), count=st.integers(1, 3),
          batches=st.integers(1, 3))
    def mutate(self, which, count, batches):
        key = self.keys[which]
        for _ in range(batches):
            old = self._current(key)
            result = apply_mutations(
                old, self.stream.burst(old, count, heal_fraction=0.5))
            if not result.applied:
                continue
            self.stream.note_applied(key, result.applied)
            self.shard.invalidate(key, result.instance, result.applied)
            self.epochs[key].append(result.instance)
            assert result.epoch == len(self.epochs[key]) - 1
            if key in self.lru:
                self.lru.remove(key)
                self.previous[key] = old.topology_version
            self.invalidations += 1

    @precondition(lambda self: any(len(e) > 1
                                   for e in self.epochs.values()))
    @rule(data=st.data(), picks=_PICKS)
    def answer_stale(self, data, picks):
        key = data.draw(st.sampled_from(
            [k for k in self.keys if len(self.epochs[k]) > 1]))
        queries = self._queries(picks, key)
        out = self.shard.answer_stale(queries)
        if key not in self.previous:
            assert out is None
            return
        answers, lags = out
        epoch = self.previous[key]
        current = self._current(key).topology_version
        assert lags == [current - epoch] * len(queries)
        for q, a in zip(queries, answers):
            assert a.length == centralized_truth(
                self.epochs[key][epoch], q.s, q.t, q.edge)
        self.queries += len(queries)
        self.stale += len(queries)

    @rule()
    def warm(self):
        self.shard.warm()
        for key in sorted(self.keys):
            self._touch(key)

    @invariant()
    def shard_matches_model(self):
        with self.shard._lock:
            hot = dict(self.shard._planners)
            previous = {key: epoch for key, (epoch, _planner)
                        in self.shard._previous.items()}
        assert list(hot) == self.lru
        assert len(hot) <= self.capacity
        for key, planner in hot.items():
            # A hot oracle, spill-loaded or built, is never of a
            # superseded epoch, and every fallback row it holds
            # (computed there or carried across epochs) is exact.
            current = self._current(key)
            assert planner.oracle.instance is current
            for (s, edge), row in planner.oracle._fallback.items():
                exact = current.dijkstra(s, avoid_edges=frozenset([edge]))
                assert [min(d, INF) for d in row] == exact
        assert previous == self.previous
        stats = self.shard.stats
        assert stats.queries == self.queries
        assert stats.stale_answers == self.stale
        assert stats.oracle_builds == self.builds
        assert stats.spill_loads == self.spill_loads
        assert stats.invalidations == self.invalidations


def test_shard_state_machine(tmp_path):
    stores = itertools.count()
    run_state_machine_as_test(
        lambda: ShardMachine(tmp_path / f"store-{next(stores)}"),
        settings=settings(max_examples=40, stateful_step_count=20,
                          deadline=None))
