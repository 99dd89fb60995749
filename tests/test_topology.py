"""Unit tests for the frozen CSR topology (congest.topology)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest.errors import UnknownVertexError
from repro.congest.network import CongestNetwork
from repro.congest.topology import CSRTopology, TopologyArrays


def diamond():
    return CSRTopology(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])


class TestConstruction:
    def test_adjacency_matches_edges(self):
        topo = diamond()
        assert topo.out_neighbors(0) == [1, 2]
        assert topo.in_neighbors(3) == [1, 2]
        assert topo.neighbors(0) == [1, 2, 3]
        assert topo.num_edges == 5

    def test_csr_arrays_consistent_with_lists(self):
        topo = diamond()
        for u in range(topo.n):
            lo, hi = topo.nbr_indptr[u], topo.nbr_indptr[u + 1]
            assert topo.nbr_indices[lo:hi] == topo.neighbors(u)
            lo, hi = topo.out_indptr[u], topo.out_indptr[u + 1]
            assert topo.out_indices[lo:hi] == topo.out_neighbors(u)
            lo, hi = topo.in_indptr[u], topo.in_indptr[u + 1]
            assert topo.in_indices[lo:hi] == topo.in_neighbors(u)

    def test_neighbors_sorted(self):
        topo = CSRTopology(5, [(3, 1), (1, 0), (4, 1), (1, 2)])
        assert topo.neighbors(1) == [0, 2, 3, 4]

    def test_duplicate_edges_first_weight_wins(self):
        topo = CSRTopology(2, [(0, 1, 7), (0, 1, 9)])
        assert topo.num_edges == 1
        assert topo.weight(0, 1) == 7

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            CSRTopology(0, [])
        with pytest.raises(UnknownVertexError):
            CSRTopology(2, [(0, 5)])
        with pytest.raises(ValueError):
            CSRTopology(2, [(0, 0)])
        with pytest.raises(ValueError):
            CSRTopology(2, [(0, 1, -3)])


class TestLinkIds:
    def test_link_id_bijection(self):
        topo = diamond()
        seen = set()
        for v in range(topo.n):
            for u in topo.neighbors(v):
                lid = topo.link_id(u, v)
                assert 0 <= lid < topo.num_dirlinks
                assert topo.link_endpoints(lid) == (u, v)
                seen.add(lid)
        assert len(seen) == topo.num_dirlinks

    def test_receiver_major_layout(self):
        # Sorting link ids must sort by (receiver, sender): the batched
        # fabric's deterministic delivery order depends on this layout.
        topo = diamond()
        pairs = []
        for v in range(topo.n):
            for u in topo.neighbors(v):
                pairs.append((topo.link_id(u, v), (v, u)))
        pairs.sort()
        assert [p for _, p in pairs] == sorted(p for _, p in pairs)

    def test_both_directions_have_ids(self):
        topo = CSRTopology(2, [(0, 1)])
        assert topo.num_dirlinks == 2
        assert topo.link_id(0, 1) != topo.link_id(1, 0)
        assert topo.has_link(1, 0) and not topo.has_edge(1, 0)

    def test_missing_link_raises_keyerror_with_pair(self):
        topo = diamond()
        with pytest.raises(KeyError, match=r"\(1, 2\)"):
            topo.link_id(1, 2)
        with pytest.raises(KeyError):
            topo.weight(3, 1)

    def test_directed_edges_input_order(self):
        edges = [(3, 1), (0, 2), (1, 0)]
        topo = CSRTopology(4, edges)
        assert list(topo.directed_edges()) == edges


class TestSharing:
    def test_networks_share_one_topology_but_not_ledgers(self):
        topo = diamond()
        a = CongestNetwork(4, [], topology=topo)
        b = CongestNetwork(4, [], topology=topo)
        assert a.topology is b.topology
        a.exchange({0: [(1, ("x",))]})
        assert a.rounds == 1 and b.rounds == 0

    def test_instance_caches_topology(self):
        from repro.graphs import random_instance
        instance = random_instance(12, seed=3)
        a = instance.build_network()
        b = instance.build_network(fabric="reference")
        assert a.topology is b.topology

    def test_mismatched_topology_rejected(self):
        with pytest.raises(ValueError, match="n=4"):
            CongestNetwork(5, [], topology=diamond())

    def test_unknown_fabric_rejected(self):
        with pytest.raises(ValueError, match="fabric"):
            CongestNetwork(2, [(0, 1)], fabric="warp")


# -- lazily built views against the eager reference construction -----------

#: Python views, each built on its first read.
VIEWS = ("out_lists", "in_lists", "nbr_lists", "out_indptr", "out_indices",
         "in_indptr", "in_indices", "nbr_indptr", "nbr_indices",
         "link_receiver", "_link_index")


def built(topology, name):
    """Whether view ``name`` exists yet (the slot itself is read, which
    builds nothing)."""
    try:
        getattr(CSRTopology, name).__get__(topology, CSRTopology)
    except AttributeError:
        return False
    return True


def reference_topology(n, edges):
    """Every view and exported array value, built edge by edge the way
    the topology once built them all eagerly (raises what it raised)."""
    if n <= 0:
        raise ValueError("network needs at least one vertex")
    out_lists = [[] for _ in range(n)]
    in_lists = [[] for _ in range(n)]
    neighbors = [set() for _ in range(n)]
    weights = {}
    for edge in edges:
        u, v, w = edge if len(edge) == 3 else (*edge, 1)
        if not (0 <= u < n) or not (0 <= v < n):
            raise UnknownVertexError(u if not (0 <= u < n) else v)
        if u == v:
            raise ValueError(f"self-loop at {u} is not allowed")
        if w <= 0:
            raise ValueError(f"edge ({u},{v}) has non-positive weight")
        if (u, v) in weights:
            continue
        weights[(u, v)] = w
        out_lists[u].append(v)
        in_lists[v].append(u)
        neighbors[u].add(v)
        neighbors[v].add(u)
    nbr_lists = [sorted(row) for row in neighbors]

    def flat(lists):
        indptr, indices = [0], []
        for row in lists:
            indices += row
            indptr.append(len(indices))
        return indptr, indices

    link_index, link_receiver = {}, []
    for v, row in enumerate(nbr_lists):
        for u in row:
            link_index[u * n + v] = len(link_receiver)
            link_receiver.append(v)
    out_pairs = [(u, v) for u, row in enumerate(out_lists) for v in row]
    in_pairs = [(x, u) for u, row in enumerate(in_lists) for x in row]
    views = {"out_lists": out_lists, "in_lists": in_lists,
             "nbr_lists": nbr_lists, "link_receiver": link_receiver,
             "_link_index": link_index}
    for name, lists in (("out", out_lists), ("in", in_lists),
                        ("nbr", nbr_lists)):
        views[name + "_indptr"], views[name + "_indices"] = flat(lists)
    arrays = {name: views[name] for name in TopologyArrays.FIELDS
              if name in views}
    arrays["out_keys"] = [u * n + v for u, v in out_pairs]
    arrays["in_keys"] = [u * n + v for u, v in in_pairs]
    arrays["out_weights"] = [weights[e] for e in out_pairs]
    arrays["in_weights"] = [weights[e] for e in in_pairs]
    return views, arrays, list(weights.items())


@st.composite
def edge_lists(draw):
    """``(n, edges)``: 2- and 3-tuples with repeats (other weights),
    and at most one invalid edge anywhere in the list."""
    n = draw(st.integers(1, 9))
    weight = st.sampled_from((1, 2, 5, 9, (1 << 31) + 5))
    edges = []
    if n > 1:
        for _ in range(draw(st.integers(0, 3 * n))):
            u = draw(st.integers(0, n - 1))
            v = (u + draw(st.integers(1, n - 1))) % n
            edges.append((u, v, draw(weight)) if draw(st.booleans())
                         else (u, v))
        edges += draw(st.lists(st.sampled_from(edges), max_size=3)
                      if edges else st.just([]))
        edges = [(*e[:2], draw(weight)) if draw(st.booleans()) else e
                 for e in edges]
    if draw(st.booleans()):
        invalid = draw(st.sampled_from(
            ((n, 0), (0, n + 3), (-1, 0), (0, 0), (0, n - 1, 0),
             (0, n - 1, -2))))
        edges.insert(draw(st.integers(0, len(edges))), invalid)
    return n, edges


class TestLazyViews:
    @given(edge_lists())
    @settings(max_examples=120, deadline=None)
    def test_views_and_exports_match_the_eager_reference(self, drawn):
        np = pytest.importorskip("numpy")
        n, edges = drawn
        try:
            views, arrays, weighted = reference_topology(n, edges)
        except (ValueError, UnknownVertexError) as exc:
            with pytest.raises(type(exc)) as raised:
                CSRTopology(n, edges)
            assert str(raised.value) == str(exc)
            return
        topo = CSRTopology(n, edges)
        assert not any(built(topo, name) for name in VIEWS)
        arr = topo.arrays()
        assert not any(built(topo, name) for name in VIEWS)
        big = any(w > (1 << 31) - 1 for _, w in weighted)
        assert arr.index_dtype is np.int32 and arr.key_dtype is np.int32
        assert arr.weight_dtype is (np.int64 if big else np.int32)
        for name, expect in arrays.items():
            view = getattr(arr, name)
            assert view.tolist() == expect, name
            assert view.dtype == (arr.weight_dtype if "weights" in name
                                  else arr.key_dtype if "keys" in name
                                  else arr.index_dtype), name
        for name, expect in views.items():
            assert getattr(topo, name) == expect, name
        assert list(topo.directed_edges()) == [e for e, _ in weighted]
        assert [topo.weight(u, v) for (u, v), _ in weighted] == [
            w for _, w in weighted]
        assert topo.num_edges == len(weighted)
        assert topo.num_dirlinks == len(views["link_receiver"])

    def test_vector_solve_builds_no_python_view(self, monkeypatch):
        from repro.core.rpaths import solve_rpaths
        from repro.graphs import expander_instance
        from repro.graphs.instance import RPathsInstance

        networks = []
        build = RPathsInstance.build_network

        def record(self, *args, **kwargs):
            networks.append(build(self, *args, **kwargs))
            return networks[-1]

        drawn = expander_instance(64, degree=4, seed=1)
        # A fresh instance: the generator's validation read the views.
        instance = RPathsInstance(n=drawn.n, edges=drawn.edges,
                                  path=drawn.path)
        monkeypatch.setattr(RPathsInstance, "build_network", record)
        solve_rpaths(instance, fabric="vector")
        topo = networks[0].topology
        assert all(net.topology is topo for net in networks)
        assert topo._arrays is not None
        assert not [name for name in VIEWS if built(topo, name)]
        assert all(net._state is None for net in networks)
        networks[0].exchange({0: [(topo.nbr_lists[0][0], ("x",))]})
        assert networks[0]._state is not None
        assert built(topo, "_link_index")
