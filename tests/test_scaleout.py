"""Tests for the scale-out machinery: the int32 memory diet.

:class:`TopologyArrays` / ``send_arrays`` emit int32 views exactly when
the value ranges permit, promote to int64 when they do not (including
the OverflowError escape for pathological delay steps), and the values
are identical either way.
"""

from __future__ import annotations

import random

import pytest

from repro.congest.topology import CSRTopology, TopologyArrays

np = pytest.importorskip("numpy")


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


class TestInt32Diet:
    def test_small_topology_exports_int32(self):
        arr = _random_topology(60, 150, seed=1).arrays()
        assert arr.index_dtype is np.int32
        assert arr.key_dtype is np.int32
        assert arr.weight_dtype is np.int32
        for name in TopologyArrays.FIELDS:
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
