"""Unit tests for the CONGEST network engine (congest.network)."""

import pytest

from repro.congest.errors import (
    BandwidthExceededError,
    NotALinkError,
    UnknownVertexError,
)
from repro.congest.network import CongestNetwork


def triangle():
    return CongestNetwork(3, [(0, 1), (1, 2), (2, 0)])


class TestTopology:
    def test_out_in_neighbors_follow_directions(self):
        topo = CongestNetwork(3, [(0, 1), (2, 1)]).topology
        assert topo.out_lists[0] == [1]
        assert topo.in_lists[1] == [0, 2]
        assert topo.out_lists[1] == []

    def test_links_are_bidirectional(self):
        topo = CongestNetwork(2, [(0, 1)]).topology
        assert topo.has_link(0, 1)
        assert topo.has_link(1, 0)
        assert topo.has_edge(0, 1)
        assert not topo.has_edge(1, 0)

    def test_weights_stored(self):
        net = CongestNetwork(2, [(0, 1, 7)])
        assert net.topology.weight(0, 1) == 7

    def test_duplicate_edges_deduplicated(self):
        net = CongestNetwork(2, [(0, 1), (0, 1)])
        assert net.topology.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            CongestNetwork(2, [(0, 0)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(UnknownVertexError):
            CongestNetwork(2, [(0, 5)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            CongestNetwork(2, [(0, 1, 0)])

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            CongestNetwork(0, [])


class TestExchange:
    def test_message_delivered_next_round(self):
        net = triangle()
        inbox = net.exchange({0: [(1, ("hi", 1))]})
        assert inbox == {1: [(0, ("hi", 1))]}
        assert net.rounds == 1

    def test_round_counter_advances_per_exchange(self):
        net = triangle()
        net.exchange({})
        net.exchange({})
        assert net.rounds == 2

    def test_multiple_receivers(self):
        net = triangle()
        inbox = net.exchange({0: [(1, ("a",)), (2, ("b",))]})
        assert set(inbox) == {1, 2}

    def test_send_over_non_link_raises(self):
        net = CongestNetwork(3, [(0, 1)])
        with pytest.raises(NotALinkError):
            net.exchange({0: [(2, ("x",))]})

    def test_send_from_unknown_vertex_raises(self):
        net = triangle()
        with pytest.raises(UnknownVertexError):
            net.exchange({7: [(0, ("x",))]})

    def test_reverse_direction_allowed_on_directed_edge(self):
        # CONGEST links are bidirectional even for one-way edges.
        net = CongestNetwork(2, [(0, 1)])
        inbox = net.exchange({1: [(0, ("back",))]})
        assert inbox == {0: [(1, ("back",))]}

    def test_word_accounting(self):
        net = triangle()
        net.exchange({0: [(1, (1, 2, 3))]})
        assert net.ledger.words == 3
        assert net.ledger.messages == 1
        assert net.ledger.max_link_words == 3

    def test_idle_round_charges_round_only(self):
        net = triangle()
        net.idle_round(4)
        assert net.rounds == 4
        assert net.ledger.messages == 0


class TestBandwidth:
    def test_violation_recorded_in_lenient_mode(self):
        net = CongestNetwork(2, [(0, 1)], bandwidth_words=2)
        net.exchange({0: [(1, (1, 2, 3))]})
        assert net.ledger.violations == 1

    def test_violation_raises_in_strict_mode(self):
        net = CongestNetwork(2, [(0, 1)], bandwidth_words=2, strict=True)
        with pytest.raises(BandwidthExceededError):
            net.exchange({0: [(1, (1, 2, 3))]})

    def test_within_budget_no_violation(self):
        net = CongestNetwork(2, [(0, 1)], bandwidth_words=4, strict=True)
        net.exchange({0: [(1, (1, 2))]})
        assert net.ledger.violations == 0

    def test_per_direction_budgets_independent(self):
        net = CongestNetwork(2, [(0, 1)], bandwidth_words=2, strict=True)
        # Two words each way in one round is fine.
        net.exchange({0: [(1, (1, 2))], 1: [(0, (3, 4))]})
        assert net.ledger.violations == 0


class TestHelpers:
    def test_diameter_of_triangle(self):
        assert triangle().undirected_diameter() == 1

    def test_diameter_of_path(self):
        net = CongestNetwork(4, [(0, 1), (1, 2), (2, 3)])
        assert net.undirected_diameter() == 3

    def test_disconnected_diameter_raises(self):
        net = CongestNetwork(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            net.undirected_diameter()

    def test_is_connected(self):
        assert triangle().is_connected()
        assert not CongestNetwork(4, [(0, 1), (2, 3)]).is_connected()

    def test_link_totals_recorded_when_enabled(self):
        net = triangle()
        net.record_link_totals = True
        net.exchange({0: [(1, (1, 2))]})
        net.exchange({0: [(1, (3,))]})
        assert net.link_totals[(0, 1)] == 3
