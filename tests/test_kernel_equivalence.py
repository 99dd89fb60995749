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

import pytest

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
from repro.congest.dispatch import dispatch as run_primitive
from repro.congest.dispatch import registry as primitive_registry
from repro.congest.metrics import RoundLedger
from repro.core.hop_bfs import pruned_max_hop_bfs
from repro.graphs import (
    expander_instance,
    power_law_instance,
    random_instance,
)
from repro.telemetry import counters as counters_mod
from repro.telemetry import tooling

#: (delay-fn or None) choices; weights in the fuzz graphs are 1..5.
DELAYS = (None, lambda w: w, lambda w: 2 * w - 1, lambda w: min(w, 3))


def ledger_snapshot(ledger: RoundLedger):
    """Everything the ledger records, phase by phase."""
    return [stats.as_dict() for stats in ledger.phases()]


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


class TestPrunedHopBfsFuzz:
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
            max_rounds = rng.choice((None, None, 3, 10))
            out = {}
            for fabric in ("fast", "vector"):
                net = instance.build_network(fabric=fabric)
                dist = multi_source_hop_bfs(
                    net, sources, hop, direction=direction,
                    avoid_edges=avoid, delay=delay,
                    max_rounds=max_rounds)
                out[fabric] = (dist, ledger_snapshot(net.ledger))
            assert out["vector"] == out["fast"], trial

    def test_empty_sources(self):
        instance = random_instance(8, seed=0)
        for fabric in ("fast", "vector"):
            net = instance.build_network(fabric=fabric)
            assert multi_source_hop_bfs(net, [], 4) == []
            assert net.ledger.rounds == 0


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
                out[fabric] = (dists.closure, dists.from_landmark,
                               dists.to_landmark,
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


class TestKernelGating:
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


def _chain_flood_big_prefix(inst, net):
    path, h = inst.path, len(inst.path) - 1
    prefix = [i * BIG for i in range(h + 1)]
    with net.ledger.phase("chain-flood"):
        return run_primitive("chain_flood", net, path=path,
                             sampled=[0, h], prefix=prefix)


def _dp_sweep_negative_zeta(inst, net):
    path, h = inst.path, len(inst.path) - 1
    return run_primitive("dp_sweep", net, path=path,
                         x_geq=[{} for _ in range(h + 1)],
                         hop_count=h, zeta=-1, name="dp-pipeline(L4.4)")


def _sweeps_closure_task(inst, net):
    path, h = inst.path, len(inst.path) - 1
    values = list(range(h + 1))
    tasks = [SweepTask(key="c", start=0, end=h, init=h,
                       combine=lambda p, v: min(v, values[p]))]
    return _sweep_values(run_path_sweeps(net, path, tasks))


def _sweeps_float_init(inst, net):
    path, h = inst.path, len(inst.path) - 1
    tasks = [SweepTask(key="f", start=0, end=h, init=0.5,
                       local_min=list(range(h + 1)))]
    return _sweep_values(run_path_sweeps(net, path, tasks))


def _sweeps_duplicate_keys(inst, net):
    path, h = inst.path, len(inst.path) - 1
    table = list(range(h + 1))
    tasks = [SweepTask(key="k", start=0, end=h, init=9,
                       local_min=table),
             SweepTask(key="k", start=0, end=h, init=7,
                       local_min=table)]
    return _sweep_values(run_path_sweeps(net, path, tasks))


def _sweeps_overlapping_groups(inst, net):
    path, h = inst.path, len(inst.path) - 1
    table = list(range(h + 1))
    tasks = [SweepTask(key="a", start=0, end=h, init=9,
                       local_min=table),
             SweepTask(key="b", start=1, end=h, init=7,
                       local_min=table)]
    return _sweep_values(run_path_sweeps(net, path, tasks))


def _n_shift_float_rows(inst, net):
    path, h = inst.path, len(inst.path) - 1
    rows = [[0.5 * i for i in range(h + 1)], [float(h)] * (h + 1)]
    with net.ledger.phase("N-shift"):
        return run_primitive("n_shift", net, path=path, rows=rows,
                             hop_count=h)


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
    ("chain_flood", "value-out-of-int64"): _chain_flood_big_prefix,
    ("dp_sweep", "value-out-of-int64"): _dp_sweep_negative_zeta,
    ("path_sweeps", "non-declarative-task"): _sweeps_closure_task,
    ("path_sweeps", "value-out-of-int64"): _sweeps_float_init,
    ("path_sweeps", "duplicate-keys"): _sweeps_duplicate_keys,
    ("path_sweeps", "overlapping-groups"): _sweeps_overlapping_groups,
    ("n_shift", "value-out-of-int64"): _n_shift_float_rows,
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
    x_geq = [{i + 1: 2 * i} for i in range(h + 1)]
    return run_primitive("dp_sweep", net, path=path, x_geq=x_geq,
                         hop_count=h, zeta=3, name="dp-pipeline(L4.4)")


def _sweeps_valid(inst, net):
    path, h = inst.path, len(inst.path) - 1
    tasks = [SweepTask(key="a", start=0, end=h, init=h,
                       local_min=list(range(h + 1)), deposit=True)]
    return _sweep_values(run_path_sweeps(net, path, tasks))


def _n_shift_valid(inst, net):
    path, h = inst.path, len(inst.path) - 1
    rows = [[3 * i for i in range(h + 1)], [h] * (h + 1)]
    with net.ledger.phase("N-shift"):
        return run_primitive("n_shift", net, path=path, rows=rows,
                             hop_count=h)


def _landmark_completion_valid(inst, net):
    return run_primitive(
        "landmark_completion", net, closure=[[0, 2], [2, 0]],
        from_len=[[1] * net.n, [3] * net.n],
        to_len=[[2] * net.n, [1] * net.n])


def _pairwise_min_sum_valid(inst, net):
    return run_primitive("pairwise_min_sum", net,
                         m_rows=[[1, 5, 2]], n_rows=[[4, 0, 3]])


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
        return ("ok", scenario(inst, net))
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
