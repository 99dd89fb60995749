"""Vector kernel vs. message engine equivalence (the PR's invariant).

``fabric="vector"`` routes the pruned hop-BFS (Lemma 4.2), the k-source
hop BFS (Lemma 5.5), and the pipelined broadcast (Lemma 2.4) through
the NumPy array kernels of :mod:`repro.congest.kernels`.  The message
engines stay the semantic oracles: for every covered call the kernel
must produce **bit-identical result tables and ledger accounting**
(rounds, messages, per-phase word totals, max link words, violations).

Layers of evidence:

* Hypothesis-style randomized fuzz: random graphs x random avoid-edge
  sets x random delay functions x random mode flags, asserting table
  and full-ledger equality per trial;
* end-to-end runs (landmark pipeline, full Theorem 1 solver) on both
  fabrics;
* registry-parametrized fallback coverage
  (:class:`TestRegistryForcedFallbacks`): every primitive x every
  constraint declared in :mod:`repro.congest.dispatch` gets an
  automatic force-fallback case — a call violating exactly that
  constraint must take the message path with bit-identical results
  and ledgers, and the dispatch counter must charge that constraint's
  reason.  Registering a new constraint without a case here fails the
  coverage test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace
from typing import List

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.approx.apx_rpaths import solve_apx_rpaths
from repro.baselines.mr24 import solve_rpaths_mr24
from repro.baselines.naive_distributed import solve_rpaths_naive
from repro.congest import (
    CongestNetwork,
    SweepTask,
    broadcast_messages,
    build_spanning_tree,
    multi_source_hop_bfs,
    run_path_sweeps,
    vector_enabled,
)
from repro.congest import kernels
from repro.congest.pipeline import (
    SegmentSweeps,
    _path_sweeps_message,
    run_segment_sweeps,
)
from repro.congest.dispatch import REASON_FABRIC, REASON_NUMPY_MISSING
from repro.congest.dispatch import check as primitive_check
from repro.congest.dispatch import dispatch as run_primitive
from repro.congest.dispatch import registry as primitive_registry
from repro.congest.kernels import numpy_or_none
from repro.congest.metrics import RoundLedger
from repro.congest.words import INF
from repro.congest.spanning_tree import SpanningTree
from repro.core import rpaths
from repro.core.hop_bfs import pruned_max_hop_bfs
from repro.core.landmark_distances import (
    _completion_message,
    landmark_closure,
)
from repro.core.long_detour import _pairwise_min_sum_message
from repro.core.segments import _n_shift_message
from repro.core.two_sisp import solve_two_sisp
from repro.extensions import (
    random_undirected_instance,
    solve_rpaths_undirected,
)
from repro.graphs import (
    double_path_instance,
    expander_instance,
    grid_instance,
    path_with_chords_instance,
    power_law_instance,
    random_instance,
)
from repro.graphs.instance import RPathsInstance
from repro.lowerbound.reduction import decide_disjointness_via_two_sisp
from repro.serve import BatchPlanner, Query, ReplacementPathOracle
from repro.telemetry import counters as counters_mod
from repro.telemetry import tooling

#: (delay-fn or None) choices; weights in the fuzz graphs are 1..5.
DELAYS = (None, lambda w: w, lambda w: 2 * w - 1, lambda w: min(w, 3))


def ledger_snapshot(ledger: RoundLedger):
    """Everything the ledger records, phase by phase."""
    return [stats.as_dict() for stats in ledger.phases()]


def plain(value):
    """``value`` with every vector-lane array turned into lists, so the
    two lanes' results compare with ``==``."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return type(value)(plain(v) for v in value)
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


def fuzz_instance(rng: random.Random, trial: int):
    kind = trial % 3
    if kind == 0:
        return random_instance(
            rng.randint(6, 28), avg_degree=rng.uniform(2.0, 5.0),
            seed=trial, weighted=bool(trial % 2), max_weight=5)
    if kind == 1:
        return expander_instance(rng.randint(12, 24), degree=3,
                                 seed=trial)
    return power_law_instance(rng.randint(10, 24), attach=2, seed=trial)


def fuzz_avoid(rng: random.Random, instance):
    choice = rng.randrange(4)
    if choice == 0:
        return frozenset()
    if choice == 1:
        return instance.path_edge_set()
    edges = [(u, v) for u, v, _ in instance.edges]
    picked = rng.sample(edges, rng.randint(0, len(edges) // 2))
    if choice == 3:
        # Out-of-range pairs name no edge; both engines must ignore
        # them (regression: their dense keys must not collide with
        # real edges in the kernel's send plan).
        n = instance.n
        picked.append((rng.randrange(n), n + rng.randrange(2 * n)))
        picked.append((-1, rng.randrange(n)))
    return frozenset(picked)


def _expander():
    return expander_instance(100, degree=4, seed=5)


def _late_arrival():
    """A core of cycles of length 2 and 3 repeats its state from round
    5, while a 9-step edge still carries P[1]'s index toward it."""
    a, d, b, c, e = range(5)
    edges = [(a, d, 1), (e, d, 9), (a, e, 1), (b, a, 1), (a, b, 1),
             (c, b, 1), (a, c, 1)]
    return RPathsInstance(n=5, edges=edges, path=[a, d],
                          name="late-arrival")


#: Fixed-point exit cases of the hop-BFS kernel: name -> (instance,
#: call overrides, network settings).  The hop limit defaults to ζ.
HOP_BFS_EXIT_CASES = {
    # The state repeats early: the tail is charged in one call.
    "expander-period-1": (_expander, {}, {}),
    # Bipartite: the state alternates with period 2, so no exit.
    "grid-period-2": (lambda: grid_instance(20, 20), {}, {}),
    # The frontier empties by itself before the budget.
    "double-path-empties": (lambda: double_path_instance(10),
                            {"hop_limit": 30}, {}),
    # A delayed arrival is still pending when the state repeats.
    "delayed-steps": (_late_arrival, {"delay": lambda w: w,
                                      "hop_limit": 16}, {}),
    "early-exit-budget": (_expander, {"run_full_budget": False}, {}),
    # Non-strict overload: the tail's violations are charged in bulk.
    "bulk-violations": (_expander, {}, {"bandwidth_words": 2}),
    # Strict overload: raises inside round 1, before any repeat.
    "strict-overload": (_expander, {},
                        {"bandwidth_words": 2, "strict": True}),
}


def _hop_bfs_exit_run(case, fabric, sense="backward", select="max"):
    """Tables (or the raised error) and ledger of one exit case."""
    build, call, settings_ = HOP_BFS_EXIT_CASES[case]
    instance = build()
    net = instance.build_network(
        bandwidth_words=settings_.get("bandwidth_words"), fabric=fabric)
    net.strict = settings_.get("strict", False)
    call = {"hop_limit": rpaths.default_zeta(instance.n), **call}
    seeds = {v: (i, 7 * i + 3) for i, v in enumerate(instance.path)}
    outcome = _outcome(
        lambda inst, net: pruned_max_hop_bfs(
            net, seeds, avoid_edges=inst.path_edge_set(),
            record_for=inst.path, sense=sense, select=select, **call),
        instance, net)
    return outcome, ledger_snapshot(net.ledger)


class TestPrunedHopBfsFuzz:
    @pytest.mark.parametrize("sense, select",
                             [("backward", "max"), ("forward", "min")])
    @pytest.mark.parametrize("case", sorted(HOP_BFS_EXIT_CASES))
    def test_fixed_point_exit_is_bit_identical(self, case, sense,
                                               select):
        vector = _hop_bfs_exit_run(case, "vector", sense, select)
        assert vector == _hop_bfs_exit_run(case, "fast", sense, select)
        (status, *_), ledger = vector
        phase = ledger[-1]
        if case == "strict-overload":
            assert status == "raise" and phase["rounds"] == 1
        else:
            assert status == "ok"
        if case == "bulk-violations":
            assert phase["violations"] == phase["messages"] > 0

    def test_fixed_point_exit_charges_the_tail_in_bulk(
            self, monkeypatch):
        per_round = []
        charge = kernels._charge_uniform_round

        def counted(*args):
            per_round.append(args)
            charge(*args)

        monkeypatch.setattr(kernels, "_charge_uniform_round", counted)
        (status, _), ledger = _hop_bfs_exit_run(
            "expander-period-1", "vector")
        zeta = rpaths.default_zeta(_expander().n)
        assert status == "ok" and ledger[-1]["rounds"] == zeta
        assert 1 < len(per_round) < zeta

    def test_randomized_equivalence(self):
        rng = random.Random(20260728)
        for trial in range(30):
            instance = fuzz_instance(rng, trial)
            avoid = fuzz_avoid(rng, instance)
            delay = rng.choice(DELAYS) if instance.weighted else (
                rng.choice((None, lambda w: w + 1)))
            hop = rng.randint(1, 14)
            sense = rng.choice(("backward", "forward"))
            select = rng.choice(("max", "min"))
            full = rng.random() < 0.5
            record = (None if rng.random() < 0.5
                      else rng.sample(range(instance.n),
                                      rng.randint(1, instance.n)))
            # Aux must be a function of the index (the documented
            # contract the solvers obey).
            seeds = {v: (i, 7 * i + 3)
                     for i, v in enumerate(instance.path)}
            out = {}
            for fabric in ("fast", "vector"):
                net = instance.build_network(fabric=fabric)
                tables = pruned_max_hop_bfs(
                    net, seeds, hop, avoid_edges=avoid, delay=delay,
                    record_for=record, run_full_budget=full,
                    sense=sense, select=select)
                out[fabric] = (tables, ledger_snapshot(net.ledger))
            assert out["vector"] == out["fast"], trial

    def test_early_exit_records_started_idle_rounds(self):
        # The run_full_budget=False exit must charge every round that
        # actually executed — including a trailing idle round that
        # discovered quiescence — and nothing after it, identically on
        # both engines.
        # A directed chain: exact-hop walks die out at hop 3, then one
        # started idle round discovers quiescence — 4 charged rounds,
        # not 40 and not 3, on both engines.
        rounds = {}
        for fabric in ("fast", "vector"):
            net = CongestNetwork(4, [(0, 1), (1, 2), (2, 3)],
                                 fabric=fabric)
            pruned_max_hop_bfs(net, {3: (0, 0)}, hop_limit=40,
                               run_full_budget=False)
            rounds[fabric] = net.ledger.rounds
        assert rounds["vector"] == rounds["fast"] == 4


class TestMultisourceFuzz:
    def test_randomized_equivalence(self):
        rng = random.Random(20260729)
        for trial in range(30):
            instance = fuzz_instance(rng, trial)
            avoid = fuzz_avoid(rng, instance)
            delay = (rng.choice(DELAYS) if instance.weighted
                     else rng.choice((None, lambda w: w + 2)))
            hop = rng.randint(1, 14)
            k = rng.randint(1, min(6, instance.n))
            sources = rng.sample(range(instance.n), k)
            direction = rng.choice(("out", "in"))
            out = {}
            for fabric in ("fast", "vector"):
                net = instance.build_network(fabric=fabric)
                dist = multi_source_hop_bfs(
                    net, sources, hop, direction=direction,
                    avoid_edges=avoid, delay=delay)
                out[fabric] = (dist, ledger_snapshot(net.ledger))
            assert out["vector"] == out["fast"], trial

    def test_empty_sources(self):
        instance = random_instance(8, seed=0)
        for fabric in ("fast", "vector"):
            net = instance.build_network(fabric=fabric)
            assert multi_source_hop_bfs(net, [], 4) == []
            assert net.ledger.rounds == 0

    @staticmethod
    def _parity(instance, sources, hop, direction="out", delay=None,
                avoid=frozenset(), bandwidth=None):
        """Tables (or the raised overload) and ledgers on both fabrics;
        the vector call must have taken the kernel."""
        out = {}
        for fabric in ("fast", "vector"):
            counters_mod.registry.reset()
            if bandwidth is None:
                net = instance.build_network(fabric=fabric)
            else:
                net = instance.build_network(bandwidth_words=bandwidth,
                                             fabric=fabric)
                net.strict = True
            out[fabric] = (_outcome(
                lambda inst, net: multi_source_hop_bfs(
                    net, sources, hop, direction=direction,
                    avoid_edges=avoid, delay=delay),
                instance, net), ledger_snapshot(net.ledger))
        rows = _dispatch_row_set()
        counters_mod.registry.reset()
        assert ("multisource", "vector", "") in rows
        assert not any(k == "multisource" and o == "fallback"
                       for k, o, _ in rows)
        assert out["vector"] == out["fast"]
        return out["vector"]

    def test_many_repeated_sources(self):
        # k up to 3n: every vertex holds several ranks at once.
        rng = random.Random(20261017)
        for trial in range(6):
            instance = fuzz_instance(rng, trial)
            n = instance.n
            sources = [rng.randrange(n)
                       for _ in range(rng.randint(n, 3 * n))]
            delay = rng.choice(DELAYS) if instance.weighted else None
            self._parity(instance, sources, rng.randint(1, 10),
                         rng.choice(("out", "in")), delay)

    def test_zero_hop_limit(self):
        instance = random_instance(20, seed=3, weighted=True,
                                   max_weight=5)
        for direction in ("out", "in"):
            for delay in (None, DELAYS[1]):
                (status, dist), ledger = self._parity(
                    instance, [0, 5, 5, 9], 0, direction, delay)
                # Vertex 5 announces its two ranks in two rounds.
                assert status == "ok" and ledger[-1]["rounds"] == 2
                assert all(row.count(0) == 1 for row in dist)

    def test_dense_rounds(self):
        # Most rows change every round: the whole-matrix minimum.
        instance = expander_instance(256, degree=4, seed=9)
        sources = random.Random(4).sample(range(instance.n), 40)
        for direction in ("out", "in"):
            (status, _), ledger = self._parity(
                instance, sources, 12, direction,
                avoid=instance.path_edge_set())
            assert status == "ok" and ledger[-1]["rounds"] > 40

    def test_sparse_many_rounds(self):
        # A few rows change per round over ~n rounds: touched rows only.
        instance = path_with_chords_instance(60, seed=4)
        sources = [instance.s, instance.path[30], instance.t]
        for direction in ("out", "in"):
            (status, _), ledger = self._parity(instance, sources,
                                               instance.n, direction)
            assert status == "ok" and ledger[-1]["rounds"] > 60

    def test_strict_overload_in_dense_round(self):
        # Every vertex is a source: the first round, where the 3-word
        # announcements overload a 2-word link, has n senders.
        instance = expander_instance(64, degree=4, seed=2)
        sources = list(range(instance.n)) * 2
        (status, error, _), ledger = self._parity(
            instance, sources, 6, bandwidth=2)
        assert (status, error) == ("raise", "BandwidthExceededError")
        assert ledger[-1]["rounds"] == 1

    def test_strict_overload_in_sparse_round(self):
        # Two senders of 64 in the first round: the senders-only lane.
        instance = expander_instance(64, degree=4, seed=2)
        (status, error, _), ledger = self._parity(
            instance, [3, 40], 6, bandwidth=2)
        assert (status, error) == ("raise", "BandwidthExceededError")
        assert ledger[-1]["rounds"] == 1

    def test_dense_then_sparse_rounds(self, monkeypatch):
        # Every vertex of a directed path is a source, so vertex v has
        # v ranks to announce: the announcing share falls from all
        # vertices to none, and the rounds switch from the whole-CSR
        # gather to the senders-only expansion half way.
        n = 40
        instance = RPathsInstance(
            n=n, edges=[(v, v + 1, 1) for v in range(n - 1)],
            path=list(range(n)), name="path")
        sparse_rounds = []
        expand = kernels._expand_ranges
        monkeypatch.setattr(
            kernels, "_expand_ranges",
            lambda *args: sparse_rounds.append(1) or expand(*args))
        (status, dist), ledger = self._parity(instance, list(range(n)), n)
        rounds = ledger[-1]["rounds"]
        assert status == "ok" and dist[0][n - 1] == n - 1
        assert 0 < len(sparse_rounds) < rounds

    def test_steps_beyond_the_hop_limit_are_clamped(self):
        # Steps of 2^61 would overflow int64 keys d·k + rank unclamped
        # (k = 6); every step above hop_limit + 1 advances like it.
        instance = random_instance(24, seed=5, weighted=True,
                                   max_weight=5)
        for direction in ("out", "in"):
            (status, dist), _ = self._parity(
                instance, [0, 3, 3, 8, 11, 17], 4, direction,
                delay=lambda w: 1 if w < 3 else 1 << 61)
            assert status == "ok"
            assert all(d == INF or d <= 4 for row in dist for d in row)

    #: Hop limits that put the keys of a k-source call at the top of
    #: int16, just past it, and at the key-fit limit
    #: ``(hop_limit + 2)·k < 2^62``.
    WIDTH_HOP_LIMITS = {
        "int16": lambda k: (1 << 14) // k - 2,
        "int32": lambda k: -(-(1 << 14) // k),
        "int64": lambda k: (1 << 62) // k - 3,
    }

    def _hop_limit(self, width, k):
        np = pytest.importorskip("numpy")
        hop = self.WIDTH_HOP_LIMITS[width](k)
        assert kernels._key_dtype(np, (hop + 1) * k) == width
        return hop

    @pytest.mark.parametrize("width", sorted(WIDTH_HOP_LIMITS))
    def test_key_width_unit_steps(self, width):
        dense = expander_instance(128, degree=4, seed=9)
        sources = random.Random(4).sample(range(dense.n), 20)
        (status, _), ledger = self._parity(
            dense, sources, self._hop_limit(width, 20), "in",
            avoid=dense.path_edge_set())
        assert status == "ok" and ledger[-1]["rounds"] > 20
        sparse = path_with_chords_instance(60, seed=4)
        sources = [sparse.s, sparse.path[30], sparse.t, sparse.t]
        (status, _), ledger = self._parity(
            sparse, sources, self._hop_limit(width, 4))
        assert status == "ok" and ledger[-1]["rounds"] > 60

    @pytest.mark.parametrize("width", sorted(WIDTH_HOP_LIMITS))
    def test_key_width_delayed_steps(self, width):
        # Steps of 2^59 stay below the int64 hop limit (k = 6), so
        # those keys run up to the cap unclamped.
        instance = random_instance(24, seed=5, weighted=True,
                                   max_weight=5)
        for direction in ("out", "in"):
            (status, dist), _ = self._parity(
                instance, [0, 3, 3, 8, 11, 17],
                self._hop_limit(width, 6), direction,
                delay=lambda w: w if w < 4 else 1 << 59)
            assert status == "ok"
            assert any(d > 4 for row in dist for d in row if d != INF)

    @pytest.mark.parametrize("width", sorted(WIDTH_HOP_LIMITS))
    def test_key_width_strict_overloads(self, width):
        instance = expander_instance(64, degree=4, seed=2)
        for sources in (list(range(instance.n)) * 2, [3, 40]):
            (status, error, _), ledger = self._parity(
                instance, sources, self._hop_limit(width, len(sources)),
                bandwidth=2)
            assert (status, error) == ("raise", "BandwidthExceededError")
            assert ledger[-1]["rounds"] == 1

    @pytest.mark.parametrize("width", sorted(WIDTH_HOP_LIMITS))
    def test_vector_lane_returns_a_c_contiguous_table(self, width):
        np = pytest.importorskip("numpy")
        instance = expander_instance(40, degree=3, seed=1)
        net = instance.build_network(fabric="vector")
        dist = run_primitive(
            "multisource", net, sources=[0, 7, 7, 19],
            hop_limit=self._hop_limit(width, 4), direction="in",
            avoid_edges=frozenset(), delay=None, name="k-source-bfs")
        assert isinstance(dist, np.ndarray)
        assert dist.shape == (4, instance.n) and dist.dtype == np.int64
        assert dist.flags.c_contiguous


class TestKeyWidth:
    """The k-source BFS keys live in the narrowest of int16, int32
    and int64 that holds twice the cap ``(hop_limit + 1)·k``."""

    @pytest.mark.parametrize("cap, width", [
        ((1 << 14) - 1, "int16"), (1 << 14, "int32"),
        ((1 << 30) - 1, "int32"), (1 << 30, "int64"),
    ])
    def test_width_switches_at_twice_the_cap(self, cap, width):
        np = pytest.importorskip("numpy")
        assert kernels._key_dtype(np, cap) == width


class TestBroadcastFuzz:
    def test_randomized_equivalence(self):
        rng = random.Random(20260730)
        for trial in range(10):
            instance = fuzz_instance(rng, trial)
            messages = {
                v: [("m", v, i, "x" * rng.randint(1, 12))
                    for i in range(rng.randint(0, 3))]
                for v in rng.sample(range(instance.n),
                                    rng.randint(1, instance.n))
            }
            out = {}
            for fabric in ("fast", "vector"):
                net = instance.build_network(fabric=fabric)
                tree = build_spanning_tree(net)
                received = broadcast_messages(net, tree, messages)
                out[fabric] = (received, ledger_snapshot(net.ledger))
            assert out["vector"] == out["fast"], trial


class TestBroadcastDeepTreesAndHubs:
    """Ledger parity where links carry several busy periods.

    A deep path-like tree with items at several path vertices makes
    the traffic of each direction interleave on the path links; a
    power-law tree's hubs merge many busy child links.
    """

    @staticmethod
    def _parity(instance, messages):
        out = {}
        for fabric in ("fast", "vector"):
            counters_mod.registry.reset()
            net = instance.build_network(fabric=fabric)
            tree = build_spanning_tree(net)
            received = broadcast_messages(net, tree, messages)
            out[fabric] = (received, ledger_snapshot(net.ledger))
        rows = _dispatch_row_set()
        counters_mod.registry.reset()
        assert ("broadcast", "vector", "") in rows
        assert not any(k == "broadcast" and o == "fallback"
                       for k, o, _ in rows)
        assert out["vector"] == out["fast"]
        return out["vector"][1]

    def test_deep_path_tree(self):
        instance = path_with_chords_instance(60, seed=4)
        path = instance.path
        origins = path[::7]
        uniform = {v: [("pair", i, j, 3 * i + j) for j in range(4)]
                   for i, v in enumerate(origins)}
        ledger = self._parity(instance, uniform)
        assert ledger[-1]["rounds"] > 60
        # The knowledge broadcast's mix: 3-word anchors, 6-word links.
        mixed = {v: [("anchor", v)] if i % 2 else
                 [("link", v, path[0], i, 5 * i), ("anchor", v)]
                 for i, v in enumerate(path[::5])}
        self._parity(instance, mixed)

    def test_power_law_hubs(self):
        instance = power_law_instance(300, seed=2)
        rng = random.Random(11)
        origins = rng.sample(range(instance.n), 40)
        uniform = {v: [("pair", v, j, j) for j in range(3)]
                   for v in origins}
        self._parity(instance, uniform)
        mixed = {v: [("anchor", v)] * (1 + v % 3)
                 + [("link", v, 1, 2, 3)] * (v % 2) for v in origins}
        # Oversized items outside strict mode are charged as violations.
        mixed[origins[0]].append(("blob", "x" * 80))
        ledger = self._parity(instance, mixed)
        assert ledger[-1]["violations"] == instance.n - 1


def _uniform_broadcast_schedule(net, tree, item_counts: List[int],
                                count: int, size: int) -> None:
    """Charge the whole FIFO broadcast schedule without routing items.

    When every item has the same word size, the ledger charge is fully
    determined by the *queue-length* dynamics: each active directed
    tree link pops exactly one item per round (``size`` words, its own
    link), so a round charges ``(a, a·size, size, a·[size > B])`` for
    ``a`` active links — no item identity needed.  The queue lengths
    themselves evolve by local conservation (one pop per active link;
    each delivery to ``v`` feeds every link out of ``v`` except the
    reverse one), which this helper iterates as whole-array updates:
    O(rounds) NumPy steps instead of O(items · links) Python steps.

    Total crossings are conserved — every item crosses every undirected
    tree link exactly once — which the final assertion double-checks
    before the bulk charge.
    """
    np = numpy_or_none()
    n = net.n
    nonroot = [v for v in range(n) if v != tree.root]
    if not nonroot or count == 0:
        return
    nr = np.asarray(nonroot, dtype=np.int64)
    par = np.asarray(tree.parent, dtype=np.int64)[nr]
    links = 2 * nr.size
    tail = np.empty(links, dtype=np.int64)
    head = np.empty(links, dtype=np.int64)
    tail[0::2] = nr
    head[0::2] = par
    tail[1::2] = par
    head[1::2] = nr
    rev = np.arange(links, dtype=np.int64)
    rev[0::2] += 1
    rev[1::2] -= 1
    counts_v = np.asarray(item_counts, dtype=np.int64)
    # Every origin pushes all of its items onto each of its tree links.
    queue = counts_v[tail].copy()
    rounds = 0
    total = 0
    while True:
        active = queue > 0
        moved = int(active.sum())
        if not moved:
            break
        rounds += 1
        total += moved
        delivered = np.bincount(head[active], minlength=n)
        queue += delivered[tail] - active[rev] - active
    assert total == count * (n - 1), "broadcast schedule lost items"
    violations = total if size > net.bandwidth_words else 0
    net.ledger.charge_rounds(rounds, total, total * size, size, violations)


def _tree_from_edges(n, edges, root):
    """The rooted tree (BFS order from ``root``) over ``edges``."""
    adjacent = [[] for _ in range(n)]
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    parent, depth = [-1] * n, [0] * n
    children = [[] for _ in range(n)]
    parent[root] = root
    order = [root]
    for v in order:
        for u in sorted(adjacent[v]):
            if parent[u] < 0:
                parent[u], depth[u] = v, depth[v] + 1
                children[v].append(u)
                order.append(u)
    return SpanningTree(root, parent, children, depth)


@st.composite
def broadcast_trees(draw):
    """A rooted tree and per-vertex item counts."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(
        ("recursive", "path", "star", "broom", "caterpillar")))
    if shape == "recursive":
        edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    elif shape == "path":
        edges = [(v - 1, v) for v in range(1, n)]
    elif shape == "star":
        edges = [(0, v) for v in range(1, n)]
    elif shape == "caterpillar":
        # A spine 0..spine-1 with pendant leaves; items sit on the spine.
        spine = draw(st.integers(1, n))
        edges = [(v - 1, v) for v in range(1, spine)]
        edges += [(v, draw(st.integers(0, spine - 1)))
                  for v in range(spine, n)]
    else:
        handle = draw(st.integers(0, n - 1))
        edges = [(v - 1, v) for v in range(1, handle + 1)]
        edges += [(handle, v) for v in range(handle + 1, n)]
    tree = _tree_from_edges(n, edges, draw(st.integers(0, n - 1)))
    if shape == "caterpillar":
        return tree, draw(st.lists(st.integers(0, 4), min_size=spine,
                                   max_size=spine)) + [0] * (n - spine)
    counts = draw(st.sampled_from(("zero", "single", "every")))
    item_counts = [0] * n
    if counts == "single":
        item_counts[draw(st.integers(0, n - 1))] = draw(st.integers(1, 9))
    elif counts == "every":
        item_counts = draw(st.lists(st.integers(1, 4), min_size=n,
                                    max_size=n))
    return tree, item_counts


class TestBroadcastSchedule:
    """The leaf makespan against the whole-array stepper."""

    def test_layout_sizes_match_words_of(self):
        from collections import Counter
        from fractions import Fraction

        from repro.congest.words import words_of

        class Label(str):
            pass

        payloads = [
            ("pair", 1, 2, 3), ("pair", 4, 5, 6), ("p" * 9, 1),
            ("p" * 17, 1), ("", None, True, 2.5, Fraction(1, 3)),
            (("nested", 1), 2), (("nested", 1, 2, 3), 2), ([1, 2],),
            ([1, 2, 3],), (Label("x" * 20),), (Label("x"),), 7, "tag",
        ]
        items = [(v, p) for v in range(3) for p in payloads]
        assert kernels._broadcast_size_counts(items) == Counter(
            words_of(item) for item in items)

    @given(broadcast_trees())
    @example((_tree_from_edges(2, [(0, 1)], 0), [2, 1]))
    @example((_tree_from_edges(2, [(0, 1)], 1), [0, 3]))
    # Both leaves hold more items than the hops between them: the
    # makespan (5) counts no leaf's own items; counting all 9 reads 8.
    @example((_tree_from_edges(3, [(0, 1), (1, 2)], 1), [4, 1, 4]))
    @settings(max_examples=150, deadline=None)
    def test_makespan_and_crossings_match_the_stepper(self, drawn):
        tree, item_counts = drawn
        n = len(item_counts)
        net = SimpleNamespace(n=n, bandwidth_words=1, ledger=RoundLedger())
        _uniform_broadcast_schedule(net, tree, item_counts,
                                    sum(item_counts), 1)
        stepped = (net.ledger.rounds, net.ledger["total"].messages)
        assert kernels._broadcast_schedule(tree, item_counts) == stepped


class TestEndToEnd:
    def test_landmark_pipeline_identical(self):
        from repro.congest.spanning_tree import build_spanning_tree
        from repro.core.landmark_distances import (
            compute_landmark_distances,
        )

        rng = random.Random(5)
        for trial in range(4):
            instance = random_instance(20, avg_degree=3.0, seed=trial)
            landmarks = sorted(rng.sample(range(instance.n), 4))
            out = {}
            for fabric in ("fast", "vector"):
                net = instance.build_network(fabric=fabric)
                tree = build_spanning_tree(net)
                dists = compute_landmark_distances(
                    net, tree, landmarks, hop_limit=6,
                    avoid_edges=instance.path_edge_set())
                out[fabric] = (dists.closure, plain(dists.from_landmark),
                               plain(dists.to_landmark),
                               ledger_snapshot(net.ledger))
            assert out["vector"] == out["fast"], trial

    def test_full_solver_identical(self):
        from repro.core.rpaths import solve_rpaths
        from repro.graphs import path_with_chords_instance

        summaries = {}
        for fabric in ("fast", "vector"):
            instance = path_with_chords_instance(20, seed=4,
                                                 overlay_hub=True)
            report = solve_rpaths(instance, seed=7, fabric=fabric)
            summaries[fabric] = (
                list(report.lengths), report.rounds,
                ledger_snapshot(report.ledger))
        assert summaries["vector"] == summaries["fast"]


# -- Lemma 5.6's completion: the per-row hop-limit test ----------------------


def _kbfs_inputs(instance, landmarks, zeta, fabric):
    """The completion's inputs as the landmark stage builds them on
    ``fabric``: the forward and backward ζ-hop kBFS tables in G \\ P
    (the kernel's ``(k, n)`` arrays on the vector fabric, lists on the
    message lanes) and the pair hops read off the forward one."""
    net = instance.build_network(fabric=fabric)
    tables = [run_primitive("multisource", net, sources=landmarks,
                            hop_limit=zeta, direction=direction,
                            avoid_edges=instance.path_edge_set(),
                            delay=None, name="kBFS")
              for direction in ("out", "in")]
    pair = [[int(tables[0][a][lm]) for lm in landmarks]
            for a in range(len(landmarks))]
    return net, pair, tables


def _open_rows(table, zeta):
    """Ranks whose kBFS row holds a finite entry at or above ζ."""
    return [a for a, row in enumerate(table)
            if any(zeta <= x < INF for x in row)]


def _dense_completion(pair, from_len, to_len):
    """Lemma 5.6's min-plus join over every pivot, on every row."""
    closure = landmark_closure(pair)
    ranks, n = range(len(closure)), len(from_len[0])
    from_out = [[min(INF, min(closure[a][m] + from_len[m][v]
                              for m in ranks))
                 for v in range(n)] for a in ranks]
    to_out = [[min(INF, min(to_len[m][v] + closure[m][a]
                            for m in ranks))
               for v in range(n)] for a in ranks]
    return closure, from_out, to_out


@st.composite
def completion_cases(draw):
    """``(n, seed, landmarks, ζ)``: a small random graph, a landmark
    set and a ζ small enough that some kBFS rows reach it."""
    n = draw(st.integers(5, 14))
    seed = draw(st.integers(0, 10_000))
    landmarks = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1,
                                    max_size=n)))
    return n, seed, landmarks, draw(st.integers(1, 5))


#: Every vertex a landmark and ζ = 1: a landmark with an edge in G \ P
#: reaches the limit, so its row is open, and the join lowers entries.
OPEN_CASE = (10, 3, list(range(10)), 1)
#: ζ = n: no BFS runs n hops on n vertices, so every row is complete.
COMPLETE_CASE = (10, 3, [0, 4, 7], 10)


class TestLandmarkCompletionLanes:
    """The completion joins only the rows its hop limit left open; both
    lanes must equal the dense join, fed the real kBFS tables."""

    @given(case=completion_cases())
    @example(case=OPEN_CASE)
    @example(case=COMPLETE_CASE)
    @settings(max_examples=60, deadline=None)
    def test_lanes_match_the_dense_join(self, case):
        n, seed, landmarks, zeta = case
        instance = random_instance(n, avg_degree=3.0, seed=seed)
        net, pair, (fwd, bwd) = _kbfs_inputs(instance, landmarks, zeta,
                                             "fast")
        vnet, vpair, (vfwd, vbwd) = _kbfs_inputs(instance, landmarks,
                                                 zeta, "vector")
        assert vpair == pair
        want = _dense_completion(pair, fwd, bwd)
        assert _completion_message(net, pair, fwd, bwd,
                                   hop_limit=zeta) == want
        assert plain(kernels.landmark_completion_vector(
            vnet, pair, vfwd, vbwd, hop_limit=zeta)) == want

    def test_pinned_cases_reach_both_outcomes(self):
        tables = {}
        for name, (n, seed, landmarks, zeta) in (
                ("open", OPEN_CASE), ("complete", COMPLETE_CASE)):
            instance = random_instance(n, avg_degree=3.0, seed=seed)
            _, pair, (fwd, bwd) = _kbfs_inputs(instance, landmarks,
                                               zeta, "fast")
            tables[name] = (pair, fwd, bwd, zeta)
        pair, fwd, bwd, zeta = tables["open"]
        assert _open_rows(fwd, zeta) and _open_rows(bwd, zeta)
        _, from_out, to_out = _dense_completion(pair, fwd, bwd)
        assert from_out != fwd and to_out != bwd
        pair, fwd, bwd, zeta = tables["complete"]
        assert not _open_rows(fwd, zeta) and not _open_rows(bwd, zeta)


class TestOperandsClampedAtInf:
    """The completion and min-sum kernels clamp their operands at INF
    before any sum, so their check passes an integer array on its
    dtype alone: entries far above INF must not wrap in int64."""

    BIG = 2 ** 62 + 5
    TOP = 2 ** 63 - 1

    def test_min_sum_takes_the_kernel_and_matches(self):
        np = pytest.importorskip("numpy")
        net = random_instance(16, seed=5).build_network(fabric="vector")
        m = np.array([[self.BIG, 1, INF], [3, self.BIG, self.TOP]])
        n = np.array([[self.BIG, self.TOP, 4], [1, 7, 9]])
        assert primitive_check("pairwise_min_sum", net,
                               m_rows=m, n_rows=n) is None
        want = _pairwise_min_sum_message(net, m.tolist(), n.tolist())
        assert want == [4, INF, INF]
        assert kernels.pairwise_min_sum_vector(net, m, n) == want

    def test_completion_takes_the_kernel_and_matches(self):
        np = pytest.importorskip("numpy")
        net = random_instance(16, seed=5).build_network(fabric="vector")
        pair = [[0, 2], [INF + 3, 0]]
        fwd = np.array([[self.TOP] * 8, [v % 3 for v in range(8)]])
        bwd = np.array([[self.BIG, 1] * 4, [self.TOP, 0] * 4])
        call = dict(pair_hops=pair, from_len=fwd, to_len=bwd)
        assert primitive_check("landmark_completion", net, **call) is None
        want = _completion_message(net, pair, fwd.tolist(), bwd.tolist())
        assert want[1][0] == [2, 3, 4, 2, 3, 4, 2, 3]
        assert plain(kernels.landmark_completion_vector(net, **call)) == want

    @staticmethod
    def _path_parity(instance, primitive, kernel, message, arrays, rows):
        """``kernel`` on the vector fabric takes ``arrays`` (the range
        check passes them on their dtype) and matches ``message`` on
        ``rows``, the same operands as lists: values and ledgers."""
        vector = instance.build_network(fabric="vector")
        assert primitive_check(primitive, vector, path=instance.path,
                               **arrays) is None
        out = []
        for net, impl, call in ((vector, kernel, arrays),
                                (instance.build_network(fabric="fast"),
                                 message, rows)):
            with net.ledger.phase("p"):
                value = impl(net, path=instance.path, **call)
            out.append((plain(value), ledger_snapshot(net.ledger)))
        assert out[0] == out[1]
        return out[0][0]

    def test_sweeps_take_the_kernel_and_match(self):
        np = pytest.importorskip("numpy")
        instance = random_instance(16, seed=5)
        h = instance.hop_count
        table = np.array([[self.TOP] * 16, [v % 4 for v in range(16)],
                          [self.BIG - v for v in range(16)]])
        offset = [3 * p for p in range(h)] + [INF]
        for rightward in (True, False):
            grid = dict(checkpoints=[0, h // 2, h], offset=offset,
                        rightward=rightward)
            carried, _ = self._path_parity(
                instance, "path_sweeps", kernels.run_path_sweeps_vector,
                _path_sweeps_message,
                dict(tasks=(), name="s",
                     segments=SegmentSweeps(table=table, **grid)),
                dict(tasks=(), name="s",
                     segments=SegmentSweeps(table=table.tolist(), **grid)))
            assert set(carried[0]) == {INF}

    def test_n_shift_takes_the_kernel_and_matches(self):
        np = pytest.importorskip("numpy")
        instance = random_instance(16, seed=5)
        h = instance.hop_count
        prefix = np.array([[self.TOP] * h, [v % 5 for v in range(h)]])
        suffix = np.array([[self.BIG] * h, [self.TOP - v for v in range(h)]])
        call = dict(hop_count=h, checkpoints=[0, h // 2, h],
                    m_seg=[[INF, 6], [2, INF]], n_seg=[[7, INF], [INF, 1]])
        m_final, n_final = self._path_parity(
            instance, "n_shift", kernels.n_shift_vector, _n_shift_message,
            dict(call, prefix=prefix, suffix=suffix),
            dict(call, prefix=prefix.tolist(), suffix=suffix.tolist()))
        assert set(m_final[0]) == {INF} and set(n_final[0]) == {INF}


def _small():
    return random_instance(16, seed=3)


def _default_planner_batch():
    instance = _small()
    oracle = ReplacementPathOracle.build(instance, solver="centralized")
    edge = instance.path_edges()[0]
    return BatchPlanner(oracle).answer_batch(
        [Query(s=v, t=instance.t, edge=edge) for v in range(1, 4)])


#: Public entry point -> a call on a small instance that leaves
#: ``fabric`` at its default.
DEFAULT_FABRIC_CALLS = {
    "CongestNetwork": lambda: CongestNetwork(16, _small().edges),
    "build_network": lambda: _small().build_network(),
    "solve_rpaths": lambda: rpaths.solve_rpaths(_small()),
    "solve_two_sisp": lambda: solve_two_sisp(_small()),
    "solve_apx_rpaths": lambda: solve_apx_rpaths(
        random_instance(14, seed=3, weighted=True, max_weight=4)),
    "solve_rpaths_mr24": lambda: solve_rpaths_mr24(_small()),
    "solve_rpaths_naive": lambda: solve_rpaths_naive(_small()),
    "solve_rpaths_undirected": lambda: solve_rpaths_undirected(
        random_undirected_instance(16, seed=3)),
    "decide_disjointness_via_two_sisp":
        lambda: decide_disjointness_via_two_sisp(
            [1, 0, 0, 0], [1, 0, 0, 0], 2, use_oracle_knowledge=True),
    "ReplacementPathOracle.build":
        lambda: ReplacementPathOracle.build(_small()),
    "BatchPlanner": _default_planner_batch,
}


class TestKernelGating:
    @pytest.mark.parametrize("entry", sorted(DEFAULT_FABRIC_CALLS))
    def test_entry_point_defaults_to_vector(self, entry):
        counters_mod.registry.reset()
        try:
            out = DEFAULT_FABRIC_CALLS[entry]()
            rows = _dispatch_row_set()
        finally:
            counters_mod.registry.reset()
        if isinstance(out, CongestNetwork):
            assert vector_enabled(out)
            return
        assert any(o == "vector" for _, o, _ in rows), rows
        assert not any(r == REASON_FABRIC for _, _, r in rows), rows

    def test_vector_enabled_only_for_vector_fabric(self):
        instance = random_instance(10, seed=2)
        assert vector_enabled(instance.build_network(fabric="vector"))
        for fabric in ("fast", "reference"):
            assert not vector_enabled(
                instance.build_network(fabric=fabric))

    def test_link_total_recording_disables_kernels(self):
        instance = random_instance(10, seed=2)
        net = instance.build_network(fabric="vector")
        net.record_link_totals = True
        assert not vector_enabled(net)
        # The covered primitives must still run (message path) and
        # populate the per-link totals the cut analysis reads.
        multi_source_hop_bfs(net, [instance.s], 3)
        assert net.link_totals

    def test_numpy_absence_degrades_to_message_path(self, monkeypatch):
        monkeypatch.setattr(kernels, "numpy_or_none", lambda: None)
        instance = random_instance(12, seed=6)
        net = instance.build_network(fabric="vector")
        assert not vector_enabled(net)
        got = multi_source_hop_bfs(net, [instance.s], 4)
        ref_net = instance.build_network(fabric="fast")
        want = multi_source_hop_bfs(ref_net, [instance.s], 4)
        assert got == want
        assert (ledger_snapshot(net.ledger)
                == ledger_snapshot(ref_net.ledger))

        # The default solve takes every message lane through the
        # numpy-missing gate, with the fast fabric's tables and ledger.
        for instance in (random_instance(40, seed=3),
                         expander_instance(48, degree=3, seed=2)):
            counters_mod.registry.reset()
            try:
                got = rpaths.solve_rpaths(instance)
                rows = _dispatch_row_set()
            finally:
                counters_mod.registry.reset()
            want = rpaths.solve_rpaths(instance, fabric="fast")
            assert got.lengths == want.lengths
            assert (ledger_snapshot(got.ledger)
                    == ledger_snapshot(want.ledger))
            assert rows == {(name, "fallback", REASON_NUMPY_MISSING)
                            for name in primitive_registry()}

    def test_vector_fabric_exchange_matches_fast(self):
        # Non-kernelized primitives on the vector fabric go through the
        # batched engine; a direct exchange must behave identically.
        inboxes = {}
        for fabric in ("fast", "vector"):
            net = CongestNetwork(4, [(0, 1), (2, 1), (3, 1)],
                                 fabric=fabric)
            inboxes[fabric] = net.exchange({
                3: [(1, ("c",))],
                0: [(1, ("a",)), (1, ("b",))],
                2: [(1, ("d",))],
            })
        assert inboxes["vector"] == inboxes["fast"]

    def test_strict_overload_raises_identically(self):
        from repro.congest import BandwidthExceededError

        details = {}
        for fabric in ("fast", "vector"):
            instance = random_instance(10, seed=8)
            net = instance.build_network(bandwidth_words=2,
                                         fabric=fabric)
            net.strict = True
            with pytest.raises(BandwidthExceededError) as err:
                multi_source_hop_bfs(net, [instance.s], 4)
            details[fabric] = (err.value.sender, err.value.receiver,
                               err.value.words,
                               ledger_snapshot(net.ledger))
        assert details["vector"] == details["fast"]


# -- registry-parametrized forced fallbacks -----------------------------------

#: the first integer past the int64-safe value range.
BIG = 1 << 63


def _sweep_values(results):
    return {k: (r.final, r.trace) for k, r in sorted(results.items())}


def _tree_tuple(tree):
    return (list(tree.parent), list(tree.depth),
            [list(c) for c in tree.children])


def _hop_bfs_big_aux(inst, net):
    return pruned_max_hop_bfs(net, {inst.path[0]: (0, BIG)}, 4)


def _hop_bfs_clashing_aux(inst, net):
    # Two seeds share an index with different aux words.
    seeds = {inst.path[0]: (0, 5), inst.path[1]: (0, 9)}
    return pruned_max_hop_bfs(net, seeds, 5)


def _hop_bfs_delay_overflow(inst, net):
    return pruned_max_hop_bfs(net, {inst.path[0]: (0, 3)}, 3,
                              delay=lambda w: BIG)


def _multisource_huge_hop_limit(inst, net):
    # (hop_limit + 2) * k no longer fits the int64 priority key; the
    # message lane terminates at quiescence regardless of the budget.
    return multi_source_hop_bfs(net, [inst.s, inst.t], 2 ** 62)


def _multisource_bad_source(inst, net):
    # The message path owns the error behavior for out-of-range ids.
    return multi_source_hop_bfs(net, [net.n + 3], 3)


def _multisource_delay_overflow(inst, net):
    return multi_source_hop_bfs(net, [inst.s], 4, delay=lambda w: BIG)


def _broadcast_negative_origin(inst, net):
    # A negative origin would index from the end of the per-vertex
    # counts; the message path owns the error behavior.
    tree = build_spanning_tree(net)
    return broadcast_messages(net, tree, {-1: [("m", 1)]})


def _broadcast_strict_overload(inst, net):
    # One oversized item queued behind small ones at several origins:
    # the abort must name the first overloaded link.
    net.strict = True
    tree = build_spanning_tree(net)
    wide = "x" * 8 * net.bandwidth_words
    return broadcast_messages(net, tree, {
        inst.s: [("m", 1), ("m", 2), (wide, 3)],
        inst.t: [("m", 4)],
    })


def _chain_flood_big_prefix(inst, net):
    path, h = inst.path, len(inst.path) - 1
    prefix = [i * BIG for i in range(h + 1)]
    with net.ledger.phase("chain-flood"):
        return run_primitive("chain_flood", net, path=path,
                             sampled=[0, h], prefix=prefix)


def _dp_sweep_negative_zeta(inst, net):
    path, h = inst.path, len(inst.path) - 1
    return run_primitive("dp_sweep", net, path=path,
                         tables=[[None] for _ in range(h + 1)],
                         hop_count=h, zeta=-1, name="dp-pipeline(L4.4)")


def _sweeps_closure_task(inst, net):
    path, h = inst.path, len(inst.path) - 1
    values = list(range(h + 1))
    tasks = [SweepTask(key="c", start=0, end=h, init=h,
                       combine=lambda p, v: min(v, values[p]))]
    return _sweep_values(run_path_sweeps(net, path, tasks))


def _sweeps_grid(inst, net, table):
    path = inst.path
    grid = SegmentSweeps([0, 2, len(path) - 1],
                         list(range(len(path))), table, rightward=True)
    return run_segment_sweeps(net, path, grid, "sweeps")


def _sweeps_float_table(inst, net):
    return _sweeps_grid(inst, net, [[0.5 * v for v in range(net.n)]])


def _n_shift_call(inst, net, suffix):
    path, h = inst.path, len(inst.path) - 1
    checkpoints = [0, 2, h]
    with net.ledger.phase("N-shift"):
        return run_primitive(
            "n_shift", net, path=path, hop_count=h,
            checkpoints=checkpoints,
            prefix=[[3 * i for i in range(h)], [h] * h], suffix=suffix,
            m_seg=[[4, 1], [0, 9]], n_seg=[[2, 2], [5, 0]])


def _n_shift_float_rows(inst, net):
    h = len(inst.path) - 1
    return _n_shift_call(inst, net, [[0.5 * i for i in range(h)],
                                     [float(h)] * h])


def _landmark_completion_fractions(inst, net):
    # Theorem 3's exact lengths: an int64 array would truncate them.
    return run_primitive(
        "landmark_completion", net,
        pair_hops=[[Fraction(0), Fraction(7, 2)], [INF, Fraction(0)]],
        from_len=[[Fraction(v, 3) for v in range(net.n)], [INF] * net.n],
        to_len=[[INF] * net.n, [Fraction(v % 3, 2) for v in range(net.n)]])


def _pairwise_min_sum_fractions(inst, net):
    return run_primitive("pairwise_min_sum", net,
                         m_rows=[[Fraction(7, 2)]],
                         n_rows=[[Fraction(1, 3)]])


#: (primitive, fallback reason) -> a call violating exactly that
#: declared constraint (or escape hatch).  The coverage test below
#: asserts this table matches the registry's declarations one-to-one.
FALLBACK_CASES = {
    ("hop_bfs", "value-out-of-int64"): _hop_bfs_big_aux,
    ("hop_bfs", "non-functional-aux"): _hop_bfs_clashing_aux,
    ("hop_bfs", "delay-overflow"): _hop_bfs_delay_overflow,
    ("multisource", "key-encoding-overflow"): _multisource_huge_hop_limit,
    ("multisource", "source-out-of-range"): _multisource_bad_source,
    ("multisource", "delay-overflow"): _multisource_delay_overflow,
    ("broadcast", "source-out-of-range"): _broadcast_negative_origin,
    ("broadcast", "strict-overload"): _broadcast_strict_overload,
    ("chain_flood", "value-out-of-int64"): _chain_flood_big_prefix,
    ("dp_sweep", "value-out-of-int64"): _dp_sweep_negative_zeta,
    ("path_sweeps", "non-declarative-task"): _sweeps_closure_task,
    ("path_sweeps", "value-out-of-int64"): _sweeps_float_table,
    ("n_shift", "value-out-of-int64"): _n_shift_float_rows,
    ("landmark_completion", "value-out-of-int64"):
        _landmark_completion_fractions,
    ("pairwise_min_sum", "value-out-of-int64"): _pairwise_min_sum_fractions,
}


def _broadcast_valid(inst, net):
    tree = build_spanning_tree(net)
    return broadcast_messages(net, tree, {inst.s: [("m", 1)]})


def _chain_flood_valid(inst, net):
    path, h = inst.path, len(inst.path) - 1
    prefix = list(range(0, 3 * (h + 1), 3))
    with net.ledger.phase("chain-flood"):
        return run_primitive("chain_flood", net, path=path,
                             sampled=[0, h], prefix=prefix)


def _dp_sweep_valid(inst, net):
    path, h = inst.path, len(inst.path) - 1
    # Row i first hits i+1 at hop 1 and h at hop 2, then repeats.
    tables = [[(i, 0), (i + 1, 0), (h, 0), (h, 0)] for i in range(h + 1)]
    return run_primitive("dp_sweep", net, path=path, tables=tables,
                         hop_count=h, zeta=3, name="dp-pipeline(L4.4)")


def _sweeps_valid(inst, net):
    return _sweeps_grid(inst, net, [[(7 * v) % 5 for v in range(net.n)],
                                    [INF] * net.n])


def _n_shift_valid(inst, net):
    h = len(inst.path) - 1
    return _n_shift_call(inst, net, [[7 - i for i in range(h)],
                                     [h] * h])


def _landmark_completion_valid(inst, net):
    # The pair hops carry a non-zero diagonal: the closure must reset
    # it, or the completion loses the direct hop-bounded distances.
    return run_primitive(
        "landmark_completion", net, pair_hops=[[3, 2], [INF, 5]],
        from_len=[[v % 4 for v in range(net.n)], [3] * net.n],
        to_len=[[2] * net.n, [v % 3 for v in range(net.n)]])


def _pairwise_min_sum_valid(inst, net):
    return run_primitive("pairwise_min_sum", net,
                         m_rows=[[1, 5, 2]], n_rows=[[4, 0, 3]])


@st.composite
def dp_sweep_calls(draw):
    """``(h, zeta, tables)`` for one ``dp_sweep`` call: hits behind the
    row and past h, hits beyond the ζ window, repeated indices, rows
    of any length, ζ in {0, 1} or past h, and h = 0."""
    h = draw(st.integers(0, 8))
    zeta = draw(st.sampled_from([0, 1, 2, 3, h + 2]))
    entry = st.one_of(st.none(), st.tuples(st.integers(-1, h + 1),
                                           st.integers(0, 3)))
    tables = draw(st.lists(st.lists(entry, min_size=1,
                                    max_size=zeta + 3),
                           min_size=h + 1, max_size=h + 1))
    return h, zeta, tables


#: primitive -> a call satisfying every declared constraint (runs on
#: the kernel when nothing gates it).  Drives the global-gate cases.
VALID_CALLS = {
    "hop_bfs": lambda inst, net: pruned_max_hop_bfs(
        net, {v: (i, 7 * i + 3) for i, v in enumerate(inst.path)}, 5),
    "multisource": lambda inst, net: multi_source_hop_bfs(
        net, [inst.s, inst.t], 5),
    "broadcast": _broadcast_valid,
    "chain_flood": _chain_flood_valid,
    "dp_sweep": _dp_sweep_valid,
    "path_sweeps": _sweeps_valid,
    "spanning_tree": lambda inst, net: _tree_tuple(
        build_spanning_tree(net)),
    "n_shift": _n_shift_valid,
    "landmark_completion": _landmark_completion_valid,
    "pairwise_min_sum": _pairwise_min_sum_valid,
}


def _outcome(scenario, inst, net):
    """Run a scenario, folding raises into a comparable value."""
    try:
        return ("ok", plain(scenario(inst, net)))
    except Exception as exc:  # noqa: BLE001 - equivalence of errors
        return ("raise", type(exc).__name__, str(exc))


def _dispatch_row_set():
    counters = counters_mod.registry.snapshot()["counters"]
    return {(kernel, outcome, reason)
            for kernel, outcome, reason, _ in
            tooling.dispatch_rows(counters)}


class TestRegistryForcedFallbacks:
    """Every declared constraint gets an automatic equivalence case.

    Parametrized over the registry itself: registering a new
    constraint (or a new primitive with constraints) without adding a
    violating call to :data:`FALLBACK_CASES` fails the coverage test,
    so the table cannot silently lag the dispatcher.
    """

    INSTANCE_ARGS = dict(n=16, seed=5)

    @pytest.fixture(autouse=True)
    def _fresh_counters(self):
        counters_mod.registry.reset()
        yield
        counters_mod.registry.reset()

    def _instance(self):
        instance = random_instance(
            self.INSTANCE_ARGS["n"], seed=self.INSTANCE_ARGS["seed"])
        # The sweep-group and clashing-aux cases need a few path hops.
        assert instance.hop_count >= 3
        return instance

    def test_every_declared_constraint_has_a_case(self):
        declared = set()
        for name, prim in primitive_registry().items():
            declared |= {(name, c.reason) for c in prim.constraints}
            if prim.escape_reason is not None:
                declared.add((name, prim.escape_reason))
        assert declared == set(FALLBACK_CASES)

    def test_valid_calls_cover_every_primitive(self):
        assert set(VALID_CALLS) == set(primitive_registry())

    @pytest.mark.parametrize("primitive,reason", sorted(FALLBACK_CASES))
    def test_forced_fallback_is_bit_identical(self, primitive, reason):
        scenario = FALLBACK_CASES[(primitive, reason)]
        instance = self._instance()
        out = {}
        for fabric in ("fast", "vector"):
            counters_mod.registry.reset()
            net = instance.build_network(fabric=fabric)
            out[fabric] = (_outcome(scenario, instance, net),
                           ledger_snapshot(net.ledger))
            if fabric == "vector":
                rows = _dispatch_row_set()
                assert (primitive, "fallback", reason) in rows
                assert not any(k == primitive and o == "vector"
                               for k, o, _ in rows)
        assert out["vector"] == out["fast"]

    @pytest.mark.parametrize("primitive", sorted(VALID_CALLS))
    def test_valid_call_takes_the_kernel(self, primitive):
        # Guards the gate test below: the valid call must pass every
        # per-call constraint, so the only thing standing between it
        # and the kernel is a global gate.
        instance = self._instance()
        net = instance.build_network(fabric="vector")
        VALID_CALLS[primitive](instance, net)
        rows = _dispatch_row_set()
        assert (primitive, "vector", "") in rows
        assert not any(k == primitive and o == "fallback"
                       for k, o, _ in rows)

    @pytest.mark.parametrize("primitive", sorted(VALID_CALLS))
    def test_valid_call_matches_the_message_lane(self, primitive):
        scenario = VALID_CALLS[primitive]
        instance = self._instance()
        out = {}
        for fabric in ("fast", "vector"):
            net = instance.build_network(fabric=fabric)
            out[fabric] = (_outcome(scenario, instance, net),
                           ledger_snapshot(net.ledger))
        assert out["vector"] == out["fast"]
        assert out["vector"][0][0] == "ok"

    @given(call=dp_sweep_calls())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example(call=(4, 2, [
        [(0, 0), (0, 1), (4, 0)],         # behind the row, then past i+ζ
        [(1, 0), (2, 0), (2, 0)],         # j = 2 again: not a first hit
        [(2, 0), None, (3, 1), None, (4, 0)],
        [None],
        [(4, 0), (4, 0)],
    ]))
    def test_dp_sweep_lanes_agree(self, call):
        # Lemma 4.3 inside dp_sweep: both lanes give the same values
        # and ledger on any hop-BFS-shaped tables.
        h, zeta, tables = call
        out = {}
        for fabric in ("fast", "vector"):
            counters_mod.registry.reset()
            net = CongestNetwork(h + 1, [(i, i + 1) for i in range(h)],
                                 fabric=fabric)
            best = run_primitive("dp_sweep", net, path=list(range(h + 1)),
                                 tables=tables, hop_count=h, zeta=zeta,
                                 name="dp-pipeline(L4.4)")
            assert all(type(x) is int for x in best)
            out[fabric] = (best, ledger_snapshot(net.ledger))
        assert ("dp_sweep", "vector", "") in _dispatch_row_set()
        assert out["vector"] == out["fast"]

    @pytest.mark.parametrize("primitive", sorted(VALID_CALLS))
    def test_link_totals_gate_forces_fallback(self, primitive):
        scenario = VALID_CALLS[primitive]
        instance = self._instance()
        out = {}
        for fabric in ("fast", "vector"):
            counters_mod.registry.reset()
            net = instance.build_network(fabric=fabric)
            net.record_link_totals = True
            out[fabric] = (_outcome(scenario, instance, net),
                           ledger_snapshot(net.ledger))
            if fabric == "vector":
                rows = _dispatch_row_set()
                assert (primitive, "fallback",
                        "record-link-totals") in rows
                assert not any(k == primitive and o == "vector"
                               for k, o, _ in rows)
        assert out["vector"] == out["fast"]
