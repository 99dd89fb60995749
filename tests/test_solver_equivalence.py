"""Whole-solver cross-fabric equivalence (the PR-5 invariant).

PR 3 proved the *primitive* kernels bit-identical; this suite pins the
end-to-end contract: ``solve_rpaths(fabric="vector")`` — whose round
loops now all run as array kernels (Lemma 2.5 chain flood, Prop 4.1
Stage 3, Lemmas 5.7–5.9 sweeps and shift, spanning-tree flood,
broadcasts) — must produce bit-identical ``lengths``,
``extras["short"]/["long"]``, and **per-phase ledger accounting**
against the message engines on every fuzzed instance, and every kernel
must decline cleanly (NumPy absent, non-applicable task shapes, strict
overloads) with the message path serving the call identically.
"""

from __future__ import annotations

import random

import pytest

from repro.congest import (
    BandwidthExceededError,
    CongestError,
    CongestNetwork,
    broadcast_messages,
    build_spanning_tree,
)
from repro.congest import kernels
from repro.congest.dispatch import REASON_STRICT_OVERLOAD, REGISTRY
from repro.congest.dispatch import check as dispatch_check
from repro.congest.metrics import RoundLedger
from repro.congest.words import INF
from repro.congest.pipeline import (
    SegmentSweeps,
    SweepTask,
    run_path_sweeps,
    run_segment_sweeps,
)
from repro.core.knowledge import acquire_path_knowledge, oracle_knowledge
from repro.core.rpaths import solve_rpaths
from repro.core.short_detour import short_detour_lengths
from repro.core.two_sisp import solve_two_sisp
from repro.graphs import (
    expander_instance,
    grid_instance,
    layered_instance,
    path_with_chords_instance,
    power_law_instance,
    random_instance,
)
from repro.graphs.instance import RPathsInstance
from repro.lowerbound import build_hard_instance
from repro.telemetry import counters as counters_mod
from repro.telemetry import tooling

FABRICS = ("fast", "vector")


def ledger_snapshot(ledger: RoundLedger):
    return [stats.as_dict() for stats in ledger.phases()]


def plain(value):
    """Nested lists of a vector-lane array; anything else as it is."""
    return value.tolist() if hasattr(value, "tolist") else value


def solver_fingerprint(report):
    return (
        list(report.lengths),
        list(report.extras["short"]),
        list(report.extras["long"]),
        ledger_snapshot(report.ledger),
    )


def tree_fingerprint(instance, fabric):
    """The BFS tree of a fresh network and its flood's ledger."""
    net = instance.build_network(fabric=fabric)
    tree = build_spanning_tree(net)
    return tree, ledger_snapshot(net.ledger)


def fuzz_instance(rng: random.Random, trial: int):
    kind = trial % 5
    if kind == 0:
        return random_instance(
            rng.randint(8, 30), avg_degree=rng.uniform(2.0, 4.5),
            seed=trial)
    if kind == 1:
        return expander_instance(rng.randint(12, 26), degree=3,
                                 seed=trial)
    if kind == 2:
        return power_law_instance(rng.randint(10, 26), attach=2,
                                  seed=trial)
    if kind == 3:
        return path_with_chords_instance(
            rng.randint(10, 24), seed=trial,
            overlay_hub=bool(trial % 2))
    return layered_instance(rng.randint(3, 5), rng.randint(2, 4),
                            seed=trial)


class TestWholeSolverFuzz:
    def test_randomized_equivalence(self):
        # Families x seeds x zeta overrides; every fabric must agree on
        # results AND on every phase's rounds/messages/words/max-link.
        rng = random.Random(20260728)
        for trial in range(12):
            instance = fuzz_instance(rng, trial)
            zeta = rng.choice((None, 1, 2, 5, 11))
            seed = rng.randrange(100)
            out = {}
            for fabric in FABRICS:
                report = solve_rpaths(instance, zeta=zeta, seed=seed,
                                      fabric=fabric)
                out[fabric] = solver_fingerprint(report)
            assert out["vector"] == out["fast"], (trial, instance.name)
            trees = {fabric: tree_fingerprint(instance, fabric)
                     for fabric in ("reference", "fast", "vector")}
            assert (trees["vector"] == trees["fast"]
                    == trees["reference"]), (trial, instance.name)

    def test_reference_engine_agrees(self):
        # The pre-fabric oracle engine, on a couple of small instances.
        instance = path_with_chords_instance(14, seed=5)
        out = {}
        for fabric in ("reference", "fast", "vector"):
            report = solve_rpaths(instance, seed=3, fabric=fabric)
            out[fabric] = solver_fingerprint(report)
        assert out["vector"] == out["fast"] == out["reference"]

    def test_explicit_landmarks_and_oracle_knowledge(self):
        instance = grid_instance(4, 5)
        out = {}
        for fabric in FABRICS:
            report = solve_rpaths(
                instance, landmarks=list(range(instance.n)),
                use_oracle_knowledge=True, fabric=fabric)
            out[fabric] = solver_fingerprint(report)
        assert out["vector"] == out["fast"]

    @pytest.mark.parametrize("zeta", [None, 5])
    def test_segment_stages_hand_arrays_over(self, zeta):
        # Three segments: the Lemma 5.7-5.9 grid, the combine, the
        # N-shift and the min-sum run on arrays on the vector fabric,
        # and every returned length is still a plain Python int.
        out = {}
        for fabric in FABRICS:
            report = solve_rpaths(path_with_chords_instance(60, seed=5),
                                  seed=2, fabric=fabric, zeta=zeta)
            for key in ("short", "long"):
                assert all(type(x) is int for x in report.extras[key])
            assert all(type(x) is int for x in report.lengths)
            out[fabric] = solver_fingerprint(report)
        assert out["vector"] == out["fast"]

    @pytest.mark.parametrize("family,zeta", [("chords", 5),
                                             ("expander", None)])
    def test_landmark_stage_hands_kbfs_arrays_over(self, family, zeta,
                                                   monkeypatch):
        # On the vector fabric the kBFS kernel's (k, n) arrays reach
        # Lemma 5.6's completion as they are, and every phase's ledger
        # still equals the message lanes'.
        completion = REGISTRY["landmark_completion"]
        lane = completion.resolve("vector")
        handed = []

        def spy(net, from_len, to_len, **call):
            handed.append((type(from_len), type(to_len)))
            return lane(net, from_len=from_len, to_len=to_len, **call)

        monkeypatch.setitem(completion._cache, "vector", spy)
        instance = (path_with_chords_instance(60, seed=5)
                    if family == "chords"
                    else expander_instance(256, degree=4, seed=5))
        out = {}
        for fabric in FABRICS:
            report = solve_rpaths(instance, zeta=zeta, landmark_c=0.5,
                                  fabric=fabric)
            out[fabric] = solver_fingerprint(report)
        assert out["vector"] == out["fast"]
        array = kernels.numpy_or_none().ndarray
        assert handed == [(array, array)]

    def test_zero_hop_path_has_no_segments(self):
        # s = t: no segment to sweep, yet the combine still charges
        # its k shift rounds on both lanes.
        out = {}
        for fabric in FABRICS:
            instance = RPathsInstance(
                n=3, edges=[(0, 1, 1), (1, 2, 1), (2, 0, 1)], path=[0],
                name="zero-hop")
            out[fabric] = solver_fingerprint(
                solve_rpaths(instance, fabric=fabric, landmarks=[1, 2]))
        assert out["vector"] == out["fast"]

    def test_numpy_absence_runs_whole_solver_on_message_path(
            self, monkeypatch):
        instance = random_instance(16, seed=4)
        want = solver_fingerprint(
            solve_rpaths(instance, seed=1, fabric="fast"))
        monkeypatch.setattr(kernels, "numpy_or_none", lambda: None)
        got = solver_fingerprint(
            solve_rpaths(instance, seed=1, fabric="vector"))
        assert got == want


#: Theorem 3's landmark sets on n = 16: Definition 5.2's sample,
#: every vertex, and a list with repeats.
APX_LANDMARKS = {"sampled": None, "all": list(range(16)),
                 "duplicated": [0, 0, 5, 9, 9, 15]}


class TestWeightedApproxSolver:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("max_weight", [6, 2 ** 58], ids=["6", "2^58"])
    @pytest.mark.parametrize("epsilon", [0.5, 0.25, 0.1])
    @pytest.mark.parametrize("landmarks", sorted(APX_LANDMARKS))
    def test_theorem3_cross_fabric(self, landmarks, epsilon, max_weight,
                                   seed):
        # The Theorem 3 pipeline routes Fractions through the shared
        # long-detour and segment machinery: the completion, sweep,
        # N-shift and min-sum kernels must decline (their arrays would
        # truncate Fractions, and non-int payloads size differently on
        # the wire) and the message path must serve those calls with
        # identical ledgers, over the whole scale ladder.
        from repro.approx.apx_rpaths import solve_apx_rpaths

        instance = random_instance(16, seed=seed, weighted=True,
                                   max_weight=max_weight)
        out = {}
        for fabric in ("reference",) + FABRICS:
            report = solve_apx_rpaths(instance, epsilon=epsilon, seed=seed,
                                      landmarks=APX_LANDMARKS[landmarks],
                                      fabric=fabric)
            out[fabric] = (report.lengths, ledger_snapshot(report.ledger),
                           report.landmark_count)
        assert out["vector"] == out["fast"] == out["reference"]

    def test_theorem3_dispatches_completion_and_min_sum(self):
        # Proposition 7.11 runs Proposition 5.1's code, so its closure
        # and its final min-sum go through the registry: on the vector
        # fabric, each falls back on its Fraction lengths and is
        # counted doing so.
        from repro.approx.apx_rpaths import solve_apx_rpaths

        instance = random_instance(16, seed=1, weighted=True,
                                   max_weight=6)
        counters_mod.registry.reset()
        try:
            solve_apx_rpaths(instance, epsilon=0.5, fabric="vector")
            rows = {(kernel, outcome, reason) for kernel, outcome, reason, _
                    in tooling.dispatch_rows(
                        counters_mod.registry.snapshot()["counters"])}
        finally:
            counters_mod.registry.reset()
        for kernel in ("landmark_completion", "pairwise_min_sum"):
            assert (kernel, "fallback", "value-out-of-int64") in rows

    def test_theorem3_with_an_unreachable_landmark(self):
        # The only landmark ends a 200-hop tail beyond every hop budget:
        # every landmark length is the int INF, so the segment stages
        # take the vector lanes and hand Theorem 3's min-sum arrays.
        from repro.approx.apx_rpaths import solve_apx_rpaths

        edges = [(0, 1, 2), (1, 2, 2), (2, 3, 2), (0, 4, 3), (4, 3, 3)]
        tail = [3] + list(range(5, 206))
        edges += [(u, v, 1) for u, v in zip(tail, tail[1:])]
        instance = RPathsInstance(n=206, edges=edges, path=[0, 1, 2, 3],
                                  weighted=True)
        out = {}
        for fabric in FABRICS:
            report = solve_apx_rpaths(instance, epsilon=0.5, zeta=4,
                                      landmarks=[205], fabric=fabric)
            out[fabric] = (report.lengths, ledger_snapshot(report.ledger))
        assert out["vector"] == out["fast"]
        assert out["fast"][0] == [6.0, 6.0, 6.0]


class TestKnowledgeChainFlood:
    def test_weighted_chain_parity(self):
        # Weighted instances exercise the prefix-weight arithmetic of
        # the chain records (Theorem 3 runs Lemma 2.5 on weights).
        for trial in range(4):
            instance = random_instance(18, seed=trial, weighted=True,
                                       max_weight=6)
            out = {}
            for fabric in FABRICS:
                net = instance.build_network(fabric=fabric)
                tree = build_spanning_tree(net)
                knowledge = acquire_path_knowledge(
                    instance, net, tree=tree, seed=trial)
                out[fabric] = (knowledge.path, knowledge.dist_from_s,
                               knowledge.dist_to_t,
                               knowledge.rounds_used,
                               ledger_snapshot(net.ledger))
            assert out["vector"] == out["fast"], trial

    def test_sample_rate_extremes(self):
        instance = path_with_chords_instance(20, seed=7)
        for rate in (0.0, 1.0):
            out = {}
            for fabric in FABRICS:
                net = instance.build_network(fabric=fabric)
                tree = build_spanning_tree(net)
                knowledge = acquire_path_knowledge(
                    instance, net, tree=tree, seed=1, sample_rate=rate)
                out[fabric] = (knowledge.dist_from_s,
                               ledger_snapshot(net.ledger))
            assert out["vector"] == out["fast"], rate

    def test_strict_overload_raises_identically(self):
        # Chain tokens are 4 words; a 3-word budget must abort round 1
        # of the flood with the identical first offender and ledger.
        instance = path_with_chords_instance(12, seed=2)
        details = {}
        for fabric in FABRICS:
            net = instance.build_network(bandwidth_words=3,
                                         fabric=fabric)
            net.strict = True
            tree = build_spanning_tree(net)
            with pytest.raises(BandwidthExceededError) as err:
                acquire_path_knowledge(instance, net, tree=tree, seed=0)
            details[fabric] = (err.value.sender, err.value.receiver,
                               err.value.words,
                               ledger_snapshot(net.ledger))
        assert details["vector"] == details["fast"]


class TestShortDetourPipeline:
    @pytest.mark.parametrize("zeta", [1, 2, 7])
    def test_dp_sweep_parity(self, zeta):
        instance = path_with_chords_instance(16, seed=3,
                                             overlay_hub=True)
        knowledge = oracle_knowledge(instance)
        out = {}
        for fabric in FABRICS:
            net = instance.build_network(fabric=fabric)
            lengths = short_detour_lengths(instance, net, knowledge,
                                           zeta)
            out[fabric] = (lengths, ledger_snapshot(net.ledger))
        assert out["vector"] == out["fast"], zeta


class TestPathSweepKernel:
    @staticmethod
    def _grid(n, rng, rightward):
        # Path vertices are a permutation, so the kernel's path-column
        # gather is exercised; INF entries exercise the clamp.
        path = rng.sample(range(n), n)
        table = [[rng.choice((rng.randrange(50), INF)) for _ in range(n)]
                 for _ in range(3)]
        offset = [rng.randrange(20) for _ in range(n)]
        return path, SegmentSweeps([0, 3, 4, n - 1], offset, table,
                                   rightward)

    @pytest.mark.parametrize("rightward", [True, False])
    def test_segment_grid_matches_engine(self, rightward):
        n = 9
        out = {}
        for fabric in FABRICS:
            path, grid = self._grid(n, random.Random(11), rightward)
            net = CongestNetwork(n, list(zip(path, path[1:])),
                                 fabric=fabric)
            carried, finals = run_segment_sweeps(net, path, grid,
                                                 "sweeps")
            out[fabric] = (plain(carried), finals,
                           ledger_snapshot(net.ledger))
        assert out["vector"] == out["fast"]

    def test_callable_tasks_fall_back_identically(self):
        # A combine closure is not declarative: the vector fabric must
        # decline and run the message engine with identical output.
        n = 7
        path = list(range(n))
        values = [5, 3, 8, 1, 9, 2, 6]
        tasks = [SweepTask(key="c", start=0, end=n - 1, init=values[0],
                           combine=lambda p, v: min(v, values[p]),
                           deposit=True)]
        net = CongestNetwork(n, [(i, i + 1) for i in range(n - 1)],
                             fabric="vector")
        assert (dispatch_check("path_sweeps", net, tasks=tasks)
                == "non-declarative-task")
        out = {}
        for fabric in FABRICS:
            net = CongestNetwork(n, [(i, i + 1) for i in range(n - 1)],
                                 fabric=fabric)
            results = run_path_sweeps(net, path, tasks)
            out[fabric] = ({k: (r.final, r.trace)
                            for k, r in results.items()},
                           ledger_snapshot(net.ledger))
        assert out["vector"] == out["fast"]

    def test_strict_overload_raises_identically(self):
        n = 6
        details = {}
        for fabric in FABRICS:
            path, grid = self._grid(n, random.Random(3), rightward=False)
            net = CongestNetwork(n, list(zip(path, path[1:])),
                                 bandwidth_words=1, strict=True,
                                 fabric=fabric)
            with pytest.raises(BandwidthExceededError) as err:
                run_segment_sweeps(net, path, grid, "sweeps")
            details[fabric] = (err.value.sender, err.value.receiver,
                               err.value.words,
                               ledger_snapshot(net.ledger))
        assert details["vector"] == details["fast"]


def _support(instance):
    """``(n, edges)`` of an instance's communication graph."""
    return instance.n, [(u, v) for u, v, _ in instance.edges]


def _expander_with_tail():
    """An expander whose last vertex starts a 100-hop tail: the frontier
    widens past ``kernels._WIDE_FRONTIER``, then narrows to one vertex
    per level."""
    n, edges = _support(expander_instance(512, degree=4, seed=2))
    return n + 100, edges + [(v, v + 1) for v in range(n - 1, n + 99)]


def _hub():
    """A root with 99 spokes closed into a ring: the first level is
    already wide, and the root is one of its neighbours."""
    return 100, ([(0, v) for v in range(1, 100)]
                 + [(v, v % 99 + 1) for v in range(1, 100)])


def _disconnected():
    """An expander and, apart from it, a path."""
    n, edges = _support(expander_instance(64, degree=4, seed=3))
    return n + 10, edges + [(v, v + 1) for v in range(n, n + 9)]


#: Flood graphs: every level narrow, levels wide from depth 3 on, wide
#: then narrow again, wide from depth 1, and one the flood cannot span.
TREE_GRAPHS = {
    "chords-300": lambda: _support(path_with_chords_instance(300, seed=5)),
    "expander-2048": lambda: _support(
        expander_instance(2048, degree=4, seed=1)),
    "expander-tail": _expander_with_tail,
    "hub": _hub,
    "disconnected": _disconnected,
}


class TestSpanningTreeKernel:
    @pytest.mark.parametrize("graph", sorted(TREE_GRAPHS))
    def test_level_steps_match_the_message_lane(self, graph):
        n, edges = TREE_GRAPHS[graph]()
        out = {}
        for fabric in FABRICS:
            net = CongestNetwork(n, edges, fabric=fabric)
            try:
                tree = build_spanning_tree(net)
                built = (tree.parent, tree.children, tree.depth)
            except CongestError as err:
                built = repr(err)
            out[fabric] = (built, ledger_snapshot(net.ledger))
        assert out["vector"] == out["fast"]
        if graph == "disconnected":
            assert "disconnected" in out["fast"][0]

    def test_graphs_take_both_level_steps(self):
        def widths(graph):
            n, edges = TREE_GRAPHS[graph]()
            depth = build_spanning_tree(CongestNetwork(n, edges)).depth
            return [depth.count(d) for d in range(max(depth) + 1)]

        wide = kernels._WIDE_FRONTIER
        chords = widths("chords-300")
        assert len(chords) > 64 and max(chords) < wide
        assert max(widths("expander-2048")) >= wide
        tail = widths("expander-tail")
        assert max(tail) >= wide and tail[-50:] == [1] * 50
        assert widths("hub") == [1, 99]

    def test_tree_and_ledger_parity(self):
        rng = random.Random(9)
        for trial in range(6):
            instance = fuzz_instance(rng, trial)
            out = {}
            for fabric in FABRICS:
                net = instance.build_network(fabric=fabric)
                tree = build_spanning_tree(net)
                out[fabric] = (tree.root, tree.parent, tree.children,
                               tree.depth,
                               ledger_snapshot(net.ledger))
            assert out["vector"] == out["fast"], trial

    def test_nonzero_root(self):
        instance = expander_instance(18, degree=3, seed=4)
        out = {}
        for fabric in FABRICS:
            net = instance.build_network(fabric=fabric)
            tree = build_spanning_tree(net, root=instance.t)
            out[fabric] = (tree.parent, tree.depth,
                           ledger_snapshot(net.ledger))
        assert out["vector"] == out["fast"]


class TestUniformBroadcastSchedule:
    def test_uniform_batches_match_per_item_engine(self):
        rng = random.Random(13)
        for trial in range(6):
            instance = fuzz_instance(rng, trial)
            origins = rng.sample(range(instance.n),
                                 rng.randint(1, instance.n // 2 + 1))
            messages = {
                v: [("pair", v, i, rng.randrange(1000))
                    for i in range(rng.randint(1, 3))]
                for v in origins
            }
            out = {}
            for fabric in FABRICS:
                net = instance.build_network(fabric=fabric)
                tree = build_spanning_tree(net)
                received = broadcast_messages(net, tree, messages)
                out[fabric] = (received, ledger_snapshot(net.ledger))
            assert out["vector"] == out["fast"], trial

    @staticmethod
    def _strict_abort(instance, messages, bandwidth_words):
        """Per fabric: the strict abort's link, width and ledger."""
        details = {}
        for fabric in FABRICS:
            net = instance.build_network(bandwidth_words=bandwidth_words,
                                         fabric=fabric)
            net.strict = True
            tree = build_spanning_tree(net)
            if fabric == "vector":
                assert dispatch_check(
                    "broadcast", net, tree=tree, messages=messages,
                    name="broadcast") == REASON_STRICT_OVERLOAD
            with pytest.raises(BandwidthExceededError) as err:
                broadcast_messages(net, tree, messages)
            details[fabric] = (err.value.sender, err.value.receiver,
                               err.value.words,
                               ledger_snapshot(net.ledger))
        return details

    def test_strict_oversized_uniform_falls_to_item_path(self):
        # All items oversized and uniform: the makespan charge must
        # step aside so the abort happens mid-schedule like the engine.
        instance = random_instance(10, seed=1)
        details = self._strict_abort(
            instance, {instance.s: [("x" * 40, 1, 2)]}, 2)
        assert details["vector"] == details["fast"]

    def test_strict_oversized_mixed_batch_names_the_same_link(self):
        # Several origins; one oversized item queued behind small ones,
        # so the abort lands rounds into the schedule with other items
        # in flight.
        instance = random_instance(24, seed=3)
        origins = sorted({instance.s, instance.t, 5, 11})
        messages = {v: [("m", i) for i in range(3)] for v in origins}
        messages[origins[1]].append(("x" * 24, 7))
        details = self._strict_abort(instance, messages, 3)
        assert details["vector"] == details["fast"]
        assert details["fast"][3][-1]["rounds"] > 1


def _hard_two_sisp_instance():
    rng = random.Random(6)
    matrix = [[rng.randint(0, 1) for _ in range(2)] for _ in range(2)]
    gates = [rng.randint(0, 1) for _ in range(4)]
    return build_hard_instance(2, 2, 1, matrix, gates).instance


#: 2-SiSP instances, each at n <= 64: name -> builder.
TWO_SISP_INSTANCES = {
    "grid": lambda: grid_instance(3, 5),
    "random": lambda: random_instance(40, seed=3),
    "chords-hub": lambda: path_with_chords_instance(24, seed=4,
                                                    overlay_hub=True),
    "expander": lambda: expander_instance(48, degree=3, seed=2),
    "hard-instance": _hard_two_sisp_instance,
}


class TestTwoSispTree:
    @pytest.mark.parametrize("name", sorted(TWO_SISP_INSTANCES))
    def test_cross_fabric_two_sisp(self, name):
        # Corollary 6.2's aggregation tree is built through the
        # registry on the solve's ledger: its phase is the flood of a
        # fresh network's tree, and the whole solve is identical on
        # every fabric.
        instance = TWO_SISP_INSTANCES[name]()
        assert instance.n <= 64
        out = {}
        for fabric in ("reference", "fast", "vector"):
            report = solve_two_sisp(instance, seed=2, fabric=fabric)
            fresh = instance.build_network(fabric=fabric)
            build_spanning_tree(fresh, phase="2sisp-tree")
            assert (report.rpaths.ledger["2sisp-tree"].as_dict()
                    == fresh.ledger["2sisp-tree"].as_dict()), fabric
            out[fabric] = (report.length, list(report.rpaths.lengths),
                           ledger_snapshot(report.rpaths.ledger))
        assert out["vector"] == out["fast"] == out["reference"]

    def test_numpy_absence_builds_the_tree_on_the_message_lane(
            self, monkeypatch):
        # Without NumPy the vector fabric's tree is the registry's
        # message-lane flood, and the whole 2-SiSP solve equals the
        # fast fabric's.
        from repro.baselines.centralized import two_sisp_length
        from repro.congest.dispatch import REASON_NUMPY_MISSING

        def fingerprint(report):
            return (report.length, list(report.rpaths.lengths),
                    ledger_snapshot(report.rpaths.ledger))

        instance = TWO_SISP_INSTANCES["random"]()
        want = fingerprint(solve_two_sisp(instance, seed=2, fabric="fast"))
        monkeypatch.setattr(kernels, "numpy_or_none", lambda: None)
        counters_mod.registry.reset()
        try:
            got = fingerprint(solve_two_sisp(instance, seed=2,
                                             fabric="vector"))
            rows = {(kernel, outcome, reason) for kernel, outcome, reason, _
                    in tooling.dispatch_rows(
                        counters_mod.registry.snapshot()["counters"])}
        finally:
            counters_mod.registry.reset()
        assert got == want
        assert got[0] == two_sisp_length(instance)
        assert ("spanning_tree", "fallback", REASON_NUMPY_MISSING) in rows
