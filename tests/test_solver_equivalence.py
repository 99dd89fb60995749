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
    CongestNetwork,
    broadcast_messages,
    build_spanning_tree,
)
from repro.congest import kernels
from repro.congest.dispatch import REASON_STRICT_OVERLOAD
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
        report.extras["tree"],
        ledger_snapshot(report.ledger),
    )


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


class TestWeightedApproxSolver:
    def test_theorem3_cross_fabric(self):
        # The Theorem 3 pipeline routes Fractions through the shared
        # segment machinery: the sweep and N-shift kernels must decline
        # (non-int payloads size differently on the wire) and the
        # message path must serve those calls with identical ledgers.
        from repro.approx.apx_rpaths import solve_apx_rpaths

        for trial in range(2):
            instance = random_instance(16, seed=trial, weighted=True,
                                       max_weight=6)
            out = {}
            for fabric in FABRICS:
                report = solve_apx_rpaths(instance, epsilon=0.5,
                                          seed=trial, fabric=fabric)
                out[fabric] = (report.lengths,
                               ledger_snapshot(report.ledger))
            assert out["vector"] == out["fast"], trial


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


class TestSpanningTreeKernel:
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


class TestTwoSispTreeReuse:
    def test_replay_matches_fresh_build(self):
        instance = path_with_chords_instance(14, seed=6)
        report = solve_two_sisp(instance,
                                landmarks=list(range(instance.n)))
        replayed = report.rpaths.ledger["2sisp-tree"].as_dict()
        net = instance.build_network()
        build_spanning_tree(net, phase="2sisp-tree")
        assert replayed == net.ledger["2sisp-tree"].as_dict()

    def test_cross_fabric_two_sisp(self):
        instance = grid_instance(3, 5)
        out = {}
        for fabric in ("reference", "fast", "vector"):
            report = solve_two_sisp(instance, seed=2, fabric=fabric)
            out[fabric] = (report.length,
                           ledger_snapshot(report.rpaths.ledger))
        assert out["vector"] == out["fast"] == out["reference"]

    def test_report_extras_carry_the_tree(self):
        instance = random_instance(12, seed=3)
        report = solve_rpaths(instance, seed=1)
        tree = report.extras["tree"]
        tree.verify()
        assert len(tree.parent) == instance.n
