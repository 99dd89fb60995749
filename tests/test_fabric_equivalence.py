"""Fast/reference fabric equivalence (the fabric's core invariant).

The batched fabric (``fabric="fast"``) must be
byte-identical to the pre-fabric per-message engine
(``fabric="reference"``) in everything observable: delivered inboxes,
algorithm outputs, word counts, and :class:`RoundLedger` contents.

Two layers of evidence:

* a message-level fuzz: random outboxes over random communication
  graphs pushed through all three engines, asserting identical inboxes
  and ledgers round by round;
* property-style algorithm runs: BFS, broadcast, multisource, and the
  spanning-tree builder executed end-to-end over random instance
  families on each fabric, asserting identical results and ledgers.
"""

from __future__ import annotations

import random

import pytest

from repro.congest import (
    CongestNetwork,
    bfs_distances,
    bfs_tree,
    broadcast_messages,
    build_spanning_tree,
    multi_source_hop_bfs,
    sssp_distances_weighted,
)
from repro.congest.metrics import RoundLedger
from repro.graphs import (
    expander_instance,
    power_law_instance,
    random_instance,
)

FABRICS = ("reference", "fast")


def ledger_snapshot(ledger: RoundLedger):
    """Everything the ledger records, phase by phase."""
    return [stats.as_dict() for stats in ledger.phases()]


def make_nets(instance):
    return {fabric: instance.build_network(fabric=fabric)
            for fabric in FABRICS}


def assert_all_equal(by_fabric, context: str):
    reference = by_fabric["reference"]
    for fabric in FABRICS[1:]:
        assert by_fabric[fabric] == reference, (context, fabric)


# -- message-level fuzz -----------------------------------------------------


class TestExchangeFuzz:
    def test_random_outboxes_identical_across_fabrics(self):
        rng = random.Random(20250728)
        for trial in range(25):
            n = rng.randint(4, 24)
            instance = random_instance(
                n, avg_degree=rng.uniform(2.0, 5.0), seed=trial)
            nets = {
                fabric: instance.build_network(fabric=fabric)
                for fabric in FABRICS
            }
            links = [(u, v)
                     for u in range(instance.n)
                     for v in nets["reference"].topology.nbr_lists[u]]
            for _ in range(rng.randint(3, 8)):
                outbox = {}
                for u, v in rng.sample(links,
                                       rng.randint(0, len(links))):
                    payload = rng.choice([
                        rng.randrange(1000),
                        ("tag", rng.randrange(50)),
                        ("hop", rng.randrange(9), rng.randrange(9)),
                        (rng.randrange(5), "a-longer-string-payload"),
                    ])
                    outbox.setdefault(u, []).append((v, payload))
                inboxes = {
                    fabric: net.exchange(outbox)
                    for fabric, net in nets.items()
                }
                assert_all_equal(inboxes, f"trial {trial}")
            ledgers = {fabric: ledger_snapshot(net.ledger)
                       for fabric, net in nets.items()}
            assert_all_equal(ledgers, f"trial {trial} ledger")

    def test_per_receiver_order_is_sender_ascending(self):
        net = CongestNetwork(4, [(0, 1), (2, 1), (3, 1)])
        inbox = net.exchange({
            3: [(1, ("c",))],
            0: [(1, ("a",)), (1, ("b",))],
            2: [(1, ("d",))],
        })
        assert inbox == {1: [(0, ("a",)), (0, ("b",)),
                             (2, ("d",)), (3, ("c",))]}

    def test_bandwidth_accounting_matches(self):
        for fabric in FABRICS:
            net = CongestNetwork(2, [(0, 1)], bandwidth_words=2,
                                 fabric=fabric)
            net.exchange({0: [(1, (1, 2, 3))], 1: [(0, (9,))]})
            assert net.ledger.violations == 1, fabric
            assert net.ledger.max_link_words == 3, fabric
            assert net.ledger.words == 4, fabric

    @pytest.mark.parametrize("fabric", ["fast", "vector"])
    def test_failed_round_leaves_state_clean(self, fabric):
        # Regression: a validation error raised mid-routing must not
        # leave already-routed payloads in the recycled link buffers —
        # that silently swallowed every later message on those links.
        from repro.congest import NotALinkError
        net = CongestNetwork(4, [(0, 1), (2, 3)], fabric=fabric)
        with pytest.raises(NotALinkError):
            net.exchange({0: [(1, ("routed",)), (3, ("bad",))]})
        inbox = net.exchange({0: [(1, ("fresh",))]})
        assert inbox == {1: [(0, ("fresh",))]}
        assert net.ledger.words == 1  # only the fresh round's word

    @pytest.mark.parametrize("fabric", FABRICS + ("vector",))
    @pytest.mark.parametrize("receiver", [3, -1])
    def test_out_of_range_receiver_raises(self, fabric, receiver):
        # The probe key sender * n + receiver aliases an out-of-range
        # receiver onto a real link: 1 * 3 + 3 is link 2->0 and
        # 1 * 3 - 1 is link 0->2.  Neither may deliver anything.
        from repro.congest import UnknownVertexError
        net = CongestNetwork(3, [(2, 0), (1, 2)], fabric=fabric)
        with pytest.raises(UnknownVertexError):
            net.exchange({1: [(receiver, "x")]})
        assert net.exchange({1: [(2, "y")]}) == {2: [(1, "y")]}

    def test_link_totals_match(self):
        totals = {}
        for fabric in FABRICS:
            net = CongestNetwork(3, [(0, 1), (1, 2)], fabric=fabric)
            net.record_link_totals = True
            net.exchange({0: [(1, (1, 2))], 2: [(1, (3,))]})
            net.exchange({1: [(0, (4, 5, 6))]})
            totals[fabric] = dict(net.link_totals)
        assert_all_equal(totals, "link totals")


# -- algorithm-level equivalence -------------------------------------------


def _instances():
    yield random_instance(18, avg_degree=3.0, seed=7)
    yield random_instance(24, avg_degree=4.0, seed=11, weighted=True)
    yield expander_instance(20, degree=3, seed=3)
    yield power_law_instance(22, attach=2, seed=5)


class TestAlgorithmEquivalence:
    @pytest.mark.parametrize("direction", ["out", "in"])
    def test_bfs_identical(self, direction):
        for instance in _instances():
            nets = make_nets(instance)
            results = {
                fabric: bfs_distances(net, instance.s,
                                      direction=direction)
                for fabric, net in nets.items()
            }
            assert_all_equal(results, f"bfs {instance.name}")
            ledgers = {fabric: ledger_snapshot(net.ledger)
                       for fabric, net in nets.items()}
            assert_all_equal(ledgers, f"bfs ledger {instance.name}")

    def test_bfs_tree_identical(self):
        for instance in _instances():
            nets = make_nets(instance)
            results = {fabric: bfs_tree(net, instance.s)
                       for fabric, net in nets.items()}
            assert_all_equal(results, f"bfs-tree {instance.name}")

    def test_weighted_sssp_identical(self):
        instance = random_instance(16, avg_degree=3.0, seed=13,
                                   weighted=True, max_weight=4)
        nets = make_nets(instance)
        results = {fabric: sssp_distances_weighted(net, instance.s)
                   for fabric, net in nets.items()}
        assert_all_equal(results, "sssp")
        ledgers = {fabric: ledger_snapshot(net.ledger)
                   for fabric, net in nets.items()}
        assert_all_equal(ledgers, "sssp ledger")

    def test_broadcast_identical(self):
        for instance in _instances():
            nets = make_nets(instance)
            outcome = {}
            for fabric, net in nets.items():
                tree = build_spanning_tree(net)
                messages = {
                    v: [("m", v, i) for i in range(1 + v % 3)]
                    for v in range(0, net.n, 2)
                }
                received = broadcast_messages(net, tree, messages)
                outcome[fabric] = (tree, received,
                                   ledger_snapshot(net.ledger))
            assert_all_equal(outcome, f"broadcast {instance.name}")

    def test_multisource_identical(self):
        for instance in _instances():
            nets = make_nets(instance)
            sources = sorted({instance.s, instance.t,
                              instance.n // 2})
            results = {
                fabric: multi_source_hop_bfs(net, sources, hop_limit=6)
                for fabric, net in nets.items()
            }
            assert_all_equal(results, f"ksrc {instance.name}")
            ledgers = {fabric: ledger_snapshot(net.ledger)
                       for fabric, net in nets.items()}
            assert_all_equal(ledgers, f"ksrc ledger {instance.name}")

    def test_full_solver_identical_rounds_and_lengths(self):
        from repro.core.rpaths import solve_rpaths
        from repro.graphs import path_with_chords_instance

        instance = path_with_chords_instance(24, seed=2)
        baseline = None
        for fabric in FABRICS:
            fresh = path_with_chords_instance(24, seed=2)
            report = solve_rpaths(fresh, seed=5, fabric=fabric)
            summary = (list(report.lengths), report.rounds,
                       report.ledger.words,
                       report.ledger.max_link_words)
            if baseline is None:
                baseline = summary
            else:
                assert summary == baseline, fabric
        assert instance.n == fresh.n  # families are deterministic
