"""Tests for the scale-out machinery: int32 diet, shm, ``parallel=``.

Three contracts:

1. **Memory diet** — :class:`TopologyArrays` / ``send_arrays`` emit
   int32 views exactly when the value ranges permit, promote to int64
   when they do not (including the OverflowError escape for
   pathological delay steps), and the values are identical either way.
2. **Shared memory** — a published topology attaches to a bit-equal,
   read-only replica whose lazily materialized Python side answers
   every scalar accessor like the original.
3. **Parallel fan-out** — ``solve_rpaths(parallel=...)`` and a
   warmed-parallel :class:`BatchPlanner` return results *and* round
   ledgers bit-identical to the serial path, on every fabric.
"""

from __future__ import annotations

import random

import pytest

from repro.congest.metrics import RoundLedger
from repro.congest.multisource import multi_source_hop_bfs
from repro.congest.network import CongestNetwork
from repro.congest.topology import CSRTopology, TopologyArrays
from repro.core.rpaths import solve_rpaths
from repro.graphs import grid_instance, random_instance
from repro.runtime import sharedmem
from repro.serve.oracle import ReplacementPathOracle
from repro.serve.planner import BatchPlanner
from repro.serve.queries import Query

np = pytest.importorskip("numpy")

FABRICS = ("reference", "fast", "vector")


def _random_topology(n: int, m: int, seed: int,
                     max_weight: int = 1) -> CSRTopology:
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    return CSRTopology(
        n, [(u, v, rng.randint(1, max_weight)) for u, v in edges])


def _phases(ledger: RoundLedger):
    return [stats.as_dict() for stats in ledger.phases()]


# -- 1: the int32 memory diet -------------------------------------------------


class TestInt32Diet:
    def test_small_topology_exports_int32(self):
        arr = _random_topology(60, 150, seed=1).arrays()
        assert arr.index_dtype is np.int32
        assert arr.key_dtype is np.int32
        assert arr.weight_dtype is np.int32
        for name, _role in TopologyArrays.FIELDS:
            view = getattr(arr, name)
            assert view.flags.writeable is False, name

    def test_key_dtype_promotes_past_46340(self):
        # n^2 - 1 exceeds int32 from n = 46341 on; indices still fit.
        topo = CSRTopology(46342, [(0, 1), (1, 0), (1, 46341)])
        arr = topo.arrays()
        assert arr.index_dtype is np.int32
        assert arr.key_dtype is np.int64
        assert int(arr.out_keys.max()) == 1 * 46342 + 46341

    def test_weight_dtype_promotes_on_big_weights(self):
        big = (1 << 31) + 7
        topo = CSRTopology(4, [(0, 1, big), (1, 2, 3), (2, 3, 1)])
        arr = topo.arrays()
        assert arr.weight_dtype is np.int64
        assert int(arr.out_weights.max()) == big
        assert arr.key_dtype is np.int32

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_exports_match_python_csr_exactly(self, seed):
        # The diet must never change values, only widths: every
        # exported array equals the Python-list CSR it views.
        topo = _random_topology(80, 240, seed=seed, max_weight=9)
        arr = topo.arrays()
        n = topo.n
        assert arr.out_indptr.tolist() == list(topo.out_indptr)
        assert arr.out_indices.tolist() == list(topo.out_indices)
        assert arr.in_indptr.tolist() == list(topo.in_indptr)
        assert arr.in_indices.tolist() == list(topo.in_indices)
        assert arr.nbr_indptr.tolist() == list(topo.nbr_indptr)
        assert arr.nbr_indices.tolist() == list(topo.nbr_indices)
        assert arr.link_receiver.tolist() == list(topo.link_receiver)
        expect_keys = [u * n + v for u, row in enumerate(topo.out_lists)
                       for v in row]
        assert arr.out_keys.tolist() == expect_keys
        assert arr.out_weights.tolist() == [
            topo._weight_by_key[k] for k in expect_keys]

    def test_steps_int32_unit_and_promoted_on_big_delay(self):
        topo = _random_topology(30, 80, seed=5, max_weight=4)
        _ptr, _idx, steps = topo.send_arrays("out")
        assert steps.dtype == np.int32
        assert set(steps.tolist()) == {1}
        big = 1 << 40
        _ptr, _idx, steps2 = topo.send_arrays(
            "out", delay=lambda w: big + w)
        assert steps2.dtype == np.int64
        assert int(steps2.min()) >= big + 1

    def test_delay_overflow_still_escapes(self):
        topo = _random_topology(10, 20, seed=6)
        with pytest.raises(OverflowError):
            topo.send_arrays("out", delay=lambda w: 1 << 62)
        with pytest.raises(OverflowError):
            topo.send_arrays("out", delay=lambda w: 0)

    def test_send_plan_cache_hits_and_bypasses(self):
        topo = _random_topology(30, 80, seed=7)
        avoid = frozenset([(0, 1)])
        first = topo.send_arrays("out", avoid)
        again = topo.send_arrays("out", avoid)
        # Cache hit: the very same frozen arrays, not a rebuild.
        assert all(a is b for a, b in zip(first, again))
        # Delay callables bypass (no stable identity to key on).
        d1 = topo.send_arrays("out", avoid, delay=lambda w: 2)
        d2 = topo.send_arrays("out", avoid, delay=lambda w: 2)
        assert d1[2] is not d2[2]

    def test_avoid_filter_values_unchanged_by_diet(self):
        topo = _random_topology(40, 120, seed=8)
        avoid = frozenset(list(topo.directed_edges())[:5])
        indptr, indices, _steps = topo.send_arrays("out", avoid)
        kept = set()
        ptr = indptr.tolist()
        flat = indices.tolist()
        for u in range(topo.n):
            for v in flat[ptr[u]:ptr[u + 1]]:
                kept.add((u, v))
        expect = set(topo.directed_edges()) - avoid
        assert kept == expect


# -- 2: shared-memory round-trip ----------------------------------------------


class TestSharedMemory:
    def test_publish_attach_roundtrip(self):
        topo = _random_topology(50, 140, seed=9, max_weight=6)
        with sharedmem.publish_topology(topo) as pub:
            attached = sharedmem.attach_topology(pub.handle)
            try:
                a, b = topo.arrays(), attached.arrays()
                for name, _role in TopologyArrays.FIELDS:
                    va, vb = getattr(a, name), getattr(b, name)
                    assert va.dtype == vb.dtype, name
                    assert va.tolist() == vb.tolist(), name
                    assert vb.flags.writeable is False, name
                # Scalar accessors ride the lazily rebuilt Python side.
                assert attached.n == topo.n
                assert attached.num_edges == topo.num_edges
                assert (list(attached.directed_edges())
                        == list(topo.directed_edges()))
                for u, v in list(topo.directed_edges())[:10]:
                    assert attached.weight(u, v) == topo.weight(u, v)
                    assert attached.link_id(u, v) == topo.link_id(u, v)
            finally:
                sharedmem.detach_topology(attached)

    def test_attached_topology_runs_message_fabric(self):
        inst = random_instance(40, seed=11)
        topo = inst.build_network(fabric="fast").topology
        with sharedmem.publish_topology(topo) as pub:
            attached = sharedmem.attach_topology(pub.handle)
            try:
                base = CongestNetwork(topo.n, (), fabric="fast",
                                      topology=topo)
                over = CongestNetwork(topo.n, (), fabric="fast",
                                      topology=attached)
                want = multi_source_hop_bfs(base, [0, 1], hop_limit=12)
                got = multi_source_hop_bfs(over, [0, 1], hop_limit=12)
                assert want == got
                assert (_phases(base.ledger) == _phases(over.ledger))
            finally:
                sharedmem.detach_topology(attached)


# -- 3: parallel-vs-serial bit-identity ---------------------------------------


class TestParallelBitIdentity:
    @pytest.mark.parametrize("fabric", FABRICS)
    def test_solve_rpaths_tables_and_ledgers(self, fabric):
        inst = random_instance(60, avg_degree=5.0, seed=13)
        serial = solve_rpaths(inst, fabric=fabric, parallel=1)
        fanned = solve_rpaths(inst, fabric=fabric, parallel=2)
        assert fanned.lengths == serial.lengths
        assert _phases(fanned.ledger) == _phases(serial.ledger)

    def test_planner_warm_parallel_matches_serial(self):
        inst = random_instance(50, avg_degree=5.0, seed=17)
        queries = [Query(s=s, t=inst.t, edge=e)
                   for e in inst.path_edges()[:4]
                   for s in range(0, 40, 5)]

        def run(parallel):
            planner = BatchPlanner(ReplacementPathOracle.build(inst),
                                   fabric="vector", max_group=4)
            planner.warm(parallel=parallel)
            try:
                answers, report = planner.answer_batch(queries)
            finally:
                planner.close()
            return ([a.length for a in answers],
                    [a.kind for a in answers],
                    _phases(planner._net.ledger),
                    report.as_metrics())

        assert run(1) == run(3)

    def test_fanout_width_capped_at_cpu_count(self, monkeypatch):
        from repro.runtime import executor
        from repro.telemetry.counters import registry

        # One CPU: four requested workers run two wide, never one.
        monkeypatch.setattr(executor, "default_jobs", lambda: 1)
        inst = random_instance(60, avg_degree=5.0, seed=19)
        chunks = [[0, 1, 2], [3, 4], [5, 6, 7, 8]]
        serial_net = inst.build_network(fabric="vector")
        serial = [multi_source_hop_bfs(serial_net, chunk, hop_limit=8,
                                       phase="chunk")
                  for chunk in chunks]
        fanned_net = inst.build_network(fabric="vector")
        registry.reset()
        with sharedmem.publish_topology(fanned_net.topology) as pub:
            fanned = sharedmem.fanout_kbfs(
                fanned_net, pub, 4,
                [dict(sources=chunk, hop_limit=8, phase="chunk")
                 for chunk in chunks],
                site="serve-batch")
        widths = registry.snapshot()["summaries"][
            'repro_parallel_fanout_width{site="serve-batch"}']
        registry.reset()
        assert (widths["count"], widths["max"]) == (1, 2)
        assert fanned == serial
        assert _phases(fanned_net.ledger) == _phases(serial_net.ledger)

    def test_ledger_merge_reproduces_serial_aggregates(self):
        serial = RoundLedger()
        with serial.phase("outer"):
            with serial.phase("a"):
                serial.charge_round(3, 9, 2)
            with serial.phase("b"):
                serial.charge_rounds(4, 8, 16, 5, violations=1)

        parent = RoundLedger()
        workers = []
        for name, charge in (("a", lambda led: led.charge_round(3, 9, 2)),
                             ("b", lambda led: led.charge_rounds(
                                 4, 8, 16, 5, violations=1))):
            worker = RoundLedger()
            with worker.phase("outer"):
                with worker.phase(name):
                    charge(worker)
            workers.append(worker.phase_snapshot())
        with parent.phase("outer"):
            pass
        for snapshot in workers:
            parent.merge_phases(snapshot)
        assert _phases(parent) == _phases(serial)
