"""Frozen CSR topology shared by every round of a CONGEST execution.

The pre-fabric simulator re-derived per-round bookkeeping (tuple-keyed
link dicts, frozenset membership probes) inside ``exchange`` — pure
overhead, since the communication graph never changes after
construction.  :class:`CSRTopology` hoists all of it into one immutable
object per instance, which holds:

* eagerly, only what its NumPy-free validate-and-deduplicate pass
  leaves: the edge weights keyed by the dense edge key ``u·n + v``, in
  input order, duplicates dropped;
* built on first read, by whichever caller reads it first, each
  Python view: the per-vertex ``out_lists``/``in_lists``/``nbr_lists``,
  their flat CSR lists (``*_indptr``/``*_indices``), and the link-id
  index below — the message engines read them, a vector solve reads
  none;
* built on the first :meth:`~CSRTopology.arrays` call, by NumPy sorts
  straight from the deduplicated keys, the read-only arrays the vector
  kernels gather over (:class:`TopologyArrays`).

The link-id index is a dense *directed-link id* space: every direction
of every communication link gets an integer id laid out
**receiver-major** (all links into vertex 0 first, then vertex 1, ...;
within a receiver, senders ascending).  Sorting touched link ids
therefore yields inboxes grouped by receiver with senders ascending —
exactly the deterministic delivery order the validated engine
guarantees — without ever sorting messages.  ``link_id(u, v)`` is an
O(1) lookup in an int-keyed dict (``u·n + v``), avoiding tuple
allocation and tuple hashing on the per-message hot path.

Instances of this class are *frozen by contract*: nothing in the
repository mutates a topology after construction (a lazily built view
is a pure function of the edges), so one topology can back any number
of :class:`~repro.congest.network.CongestNetwork` objects (fresh
ledgers, shared adjacency).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..telemetry.schema import SENDPLAN_CACHE, TOPOLOGY_EXPORT
from .errors import UnknownVertexError

#: Largest value an int32 export may hold; any array group whose value
#: range exceeds this promotes back to int64 (the "memory diet" rule).
_INT32_MAX = (1 << 31) - 1

#: Cached send plans per topology: ``avoid_edges`` sets per run are few
#: (the empty set, the instance's path edges, per-query failed edges),
#: so a small FIFO bound keeps the cache from growing with query load.
_SEND_CACHE_LIMIT = 8


def _numpy():
    """NumPy, imported on first array-view use (kept lazy on purpose).

    The message engines never touch arrays, so the package stays fully
    importable — and the reference/fast fabrics fully functional — on
    interpreters without NumPy; only the vector fabric requires it.
    """
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - numpy is baked in CI
        raise RuntimeError(
            "the vector fabric needs NumPy; install it or use "
            "fabric='fast'") from exc
    return numpy


def _flatten(lists: Sequence[List[int]]) -> Tuple[List[int], List[int]]:
    """CSR-flatten per-vertex lists into (indptr, indices)."""
    indptr = [0] * (len(lists) + 1)
    indices: List[int] = []
    for v, row in enumerate(lists):
        indices.extend(row)
        indptr[v + 1] = len(indices)
    return indptr, indices


class TopologyArrays:
    """Frozen, read-only int-array views of a :class:`CSRTopology`.

    Built lazily, exactly once per topology, by
    :meth:`CSRTopology.arrays`, with NumPy sorts straight from the
    deduplicated edge keys and weights (no Python view is read or
    built); the vector kernels gather over these instead of
    materializing per-message Python tuples.  The slots hold the
    Python CSR views' values, in their order.  ``*_keys`` hold the
    dense edge key ``tail·n + head`` per CSR slot (input order), which
    is what avoid-edge masks are matched against; ``*_weights`` hold
    the slot-aligned edge weight so per-run delay step tables
    vectorize.

    **Memory diet.**  Each array group picks the narrowest dtype its
    value range permits — int32 when every value fits, int64 otherwise:

    * *indices* (indptr/indices/link_receiver) hold vertex ids < n and
      slot offsets ≤ nnz, so they fit int32 whenever both do;
    * *keys* hold ``tail·n + head`` < n², so they promote to int64
      already at n > 46340;
    * *weights* promote when any edge weight exceeds int32.

    Since one export is shared across every solve of a run, all
    arrays are frozen with ``writeable=False``.  Kernels must treat
    int32 operands as *addressing* data only: arithmetic that can
    exceed int32 (hop sums, key encodings) upcasts to int64 at the
    gather site.
    """

    #: The exported arrays, by attribute name.
    FIELDS = (
        "out_indptr", "out_indices", "out_weights", "out_keys",
        "in_indptr", "in_indices", "in_weights", "in_keys",
        "nbr_indptr", "nbr_indices", "link_receiver",
    )
    __slots__ = FIELDS + ("index_dtype", "key_dtype", "weight_dtype")

    def __init__(self, topology: "CSRTopology") -> None:
        np = _numpy()
        n = topology.n
        wbk = topology._weight_by_key
        m = len(wbk)
        keys = np.fromiter(wbk, dtype=np.int64, count=m)
        weights = np.fromiter(wbk.values(), dtype=np.int64, count=m)
        tails, heads = np.divmod(keys, n)
        # Every edge gives both directions of its link; a link into v
        # from u is keyed v·n + u, so the sorted unique keys are the
        # receiver-major link ids, senders ascending within a receiver.
        links = np.sort(np.concatenate((keys, heads * n + tails)))
        links = links[np.diff(links, prepend=-1) != 0]
        receivers, senders = np.divmod(links, n)
        # Every slot count is at most the link count.
        idx = np.int32 if max(n, links.size) <= _INT32_MAX else np.int64
        key = np.int32 if n * n - 1 <= _INT32_MAX else np.int64
        max_w = int(weights.max()) if m else 1
        wgt = np.int32 if max_w <= _INT32_MAX else np.int64
        self.index_dtype = idx
        self.key_dtype = key
        self.weight_dtype = wgt
        TOPOLOGY_EXPORT.inc(array="indices", dtype=np.dtype(idx).name)
        TOPOLOGY_EXPORT.inc(array="keys", dtype=np.dtype(key).name)
        TOPOLOGY_EXPORT.inc(array="weights", dtype=np.dtype(wgt).name)

        def indptr(owners):
            counts = np.bincount(owners, minlength=n)
            return np.concatenate(([0], np.cumsum(counts))).astype(idx)

        # A vertex's out (in) slots keep the input order of its edges:
        # a stable sort by tail (head).
        order = np.argsort(tails, kind="stable")
        self.out_indptr = indptr(tails)
        self.out_indices = heads[order].astype(idx)
        self.out_keys = keys[order].astype(key)
        self.out_weights = weights[order].astype(wgt)
        order = np.argsort(heads, kind="stable")
        self.in_indptr = indptr(heads)
        self.in_indices = tails[order].astype(idx)
        self.in_keys = keys[order].astype(key)
        self.in_weights = weights[order].astype(wgt)
        self.nbr_indptr = indptr(receivers)
        self.nbr_indices = senders.astype(idx)
        self.link_receiver = receivers.astype(idx)
        self._freeze()

    def _freeze(self) -> None:
        for name in self.FIELDS:
            getattr(self, name).flags.writeable = False

    def nbytes(self) -> int:
        """Total bytes of all exported arrays (the diet's scoreboard)."""
        return sum(getattr(self, name).nbytes for name in self.FIELDS)


class CSRTopology:
    """Immutable adjacency + link-id index for one communication graph.

    Parameters
    ----------
    n:
        Number of vertices; vertices are ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` or ``(u, v, w)`` directed edges with
        positive integer weights.  Parallel duplicates are ignored
        (first weight wins), matching the historical network semantics.

    Construction validates and deduplicates the edges and keeps nothing
    else; every other attribute named in ``__slots__`` is a view that
    :meth:`__getattr__` builds on its first read (see the module
    docstring).
    """

    __slots__ = (
        "n", "num_edges",
        "out_indptr", "out_indices", "in_indptr", "in_indices",
        "nbr_indptr", "nbr_indices",
        "out_lists", "in_lists", "nbr_lists",
        "link_receiver", "_link_index", "_weight_by_key",
        "_link_pairs", "_arrays", "_send_cache",
    )

    def __init__(self, n: int, edges: Iterable[Sequence[int]]) -> None:
        if n <= 0:
            raise ValueError("network needs at least one vertex")
        self.n = n
        weight_by_key: Dict[int, int] = {}
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                w = 1
            else:
                u, v, w = edge
            if not (0 <= u < n) or not (0 <= v < n):
                raise UnknownVertexError(u if not (0 <= u < n) else v)
            if u == v:
                raise ValueError(f"self-loop at {u} is not allowed")
            if w <= 0:
                raise ValueError(f"edge ({u},{v}) has non-positive weight")
            key = u * n + v
            if key not in weight_by_key:  # ignore parallel duplicates
                weight_by_key[key] = int(w)
        self._weight_by_key = weight_by_key
        self.num_edges = len(weight_by_key)
        self._link_pairs: Optional[frozenset] = None
        self._arrays: Optional[TopologyArrays] = None
        self._send_cache: Dict[Tuple[str, frozenset], tuple] = {}

    # -- views built on first read -----------------------------------------

    def __getattr__(self, name: str):
        # Reached only while ``name``'s slot is unset: build its group.
        build = _VIEW_BUILDERS.get(name)
        if build is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute "
                f"{name!r}")
        build(self)
        return object.__getattribute__(self, name)

    def _build_adjacency(self) -> None:
        """``out_lists``/``in_lists``, each row in input edge order."""
        n = self.n
        out_lists: List[List[int]] = [[] for _ in range(n)]
        in_lists: List[List[int]] = [[] for _ in range(n)]
        for key in self._weight_by_key:
            u, v = divmod(key, n)
            out_lists[u].append(v)
            in_lists[v].append(u)
        self.out_lists = out_lists
        self.in_lists = in_lists

    def _build_neighbors(self) -> None:
        """``nbr_lists``: the sorted neighbours of the undirected
        support."""
        n = self.n
        neighbor_sets: List[set] = [set() for _ in range(n)]
        for key in self._weight_by_key:
            u, v = divmod(key, n)
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
        self.nbr_lists = [sorted(s) for s in neighbor_sets]

    def _build_out_csr(self) -> None:
        self.out_indptr, self.out_indices = _flatten(self.out_lists)

    def _build_in_csr(self) -> None:
        self.in_indptr, self.in_indices = _flatten(self.in_lists)

    def _build_nbr_csr(self) -> None:
        self.nbr_indptr, self.nbr_indices = _flatten(self.nbr_lists)

    def _build_links(self) -> None:
        """Receiver-major directed-link ids: link (u -> v) sits in v's
        block of the undirected-support CSR, so ``nbr_indices`` doubles
        as the lid -> sender map."""
        n = self.n
        nbr_indptr = self.nbr_indptr
        link_index: Dict[int, int] = {}
        link_receiver: List[int] = [0] * len(self.nbr_indices)
        for v, row in enumerate(self.nbr_lists):
            base = nbr_indptr[v]
            for offset, u in enumerate(row):
                lid = base + offset
                link_index[u * n + v] = lid
                link_receiver[lid] = v
        self._link_index = link_index
        self.link_receiver = link_receiver

    # -- accessors ---------------------------------------------------------

    @property
    def num_dirlinks(self) -> int:
        """Number of directed links (both directions of every link)."""
        return len(self.nbr_indices)

    def has_edge(self, u: int, v: int) -> bool:
        return (u * self.n + v) in self._weight_by_key

    def has_link(self, u: int, v: int) -> bool:
        return (u * self.n + v) in self._link_index

    def link_id(self, u: int, v: int) -> int:
        """Dense id of directed link ``u -> v`` (O(1); raises if absent)."""
        try:
            return self._link_index[u * self.n + v]
        except KeyError:
            raise KeyError((u, v)) from None

    def weight(self, u: int, v: int) -> int:
        try:
            return self._weight_by_key[u * self.n + v]
        except KeyError:
            raise KeyError((u, v)) from None

    def directed_edges(self) -> Iterator[Tuple[int, int]]:
        """Directed edges in input order (duplicates removed)."""
        n = self.n
        return ((key // n, key % n) for key in self._weight_by_key)

    def link_pairs(self) -> frozenset:
        """Frozenset of directed link tuples.

        Lazily built; only the pre-fabric reference engine (kept as the
        equivalence/benchmark baseline) still probes tuple sets.
        """
        if self._link_pairs is None:
            n = self.n
            self._link_pairs = frozenset(
                (key // n, key % n) for key in self._link_index)
        return self._link_pairs

    # -- array views (vector fabric) ---------------------------------------

    def arrays(self) -> TopologyArrays:
        """Read-only NumPy views of the frozen CSR (built once, cached).

        One export backs *every* solve on this topology in a process —
        the k-source and landmark runs of a ``solve_rpaths`` execution
        and every batch the serve planner answers all gather over the
        same frozen arrays instead of re-materializing per call.
        Dtypes follow the int32 memory diet (see
        :class:`TopologyArrays`).

        Requires NumPy; the message fabrics never call this, so the
        dependency stays confined to ``fabric="vector"`` executions.
        """
        if self._arrays is None:
            self._arrays = TopologyArrays(self)
        return self._arrays

    def send_arrays(self, direction: str,
                    avoid_edges: frozenset = frozenset(),
                    delay=None):
        """Array analog of :func:`downstream_step_tables`.

        Returns ``(indptr, indices, steps)`` arrays: the avoid-filtered
        send adjacency for ``direction`` (``"out"`` follows edges,
        ``"in"`` walks them backward) together with the per-slot
        exact-hop advance (1 without ``delay``, else ``delay(weight)``
        — the G_d subdivision of Section 7).  Index arrays inherit the
        topology export's diet dtype; steps are int32 when every step
        fits, int64 otherwise (and the vector kernels upcast at their
        arithmetic sites either way).

        Delay-free plans are memoized per ``(direction, avoid_edges)``
        — a run fixes its avoid set, so every k-source/landmark solve
        of the run shares one read-only plan instead of rebuilding the
        filter per call (``delay`` callables have no stable identity
        and bypass the cache).  All returned arrays are frozen;
        callers must not write into them.
        """
        np = _numpy()
        cache_key = None
        if delay is None:
            cache_key = (direction, avoid_edges)
            cached = self._send_cache.get(cache_key)
            if cached is not None:
                SENDPLAN_CACHE.inc(outcome="hit")
                return cached
        arr = self.arrays()
        if direction == "out":
            indptr, indices = arr.out_indptr, arr.out_indices
            keys, weights = arr.out_keys, arr.out_weights
        elif direction == "in":
            indptr, indices = arr.in_indptr, arr.in_indices
            keys, weights = arr.in_keys, arr.in_weights
        else:
            raise ValueError(f"unknown direction {direction!r}")
        if avoid_edges:
            n = self.n
            # Out-of-range pairs cannot name an edge — the message
            # path's tuple-membership test ignores them — but their
            # dense keys would collide with real edges' keys, so they
            # must be dropped before encoding.
            avoid_keys = [u * n + v for u, v in avoid_edges
                          if 0 <= u < n and 0 <= v < n]
            avoid = np.asarray(avoid_keys, dtype=np.int64)
            keep = ~np.isin(keys, avoid)
            tails = np.repeat(np.arange(n, dtype=np.int64),
                              np.diff(indptr))[keep]
            indices = indices[keep]
            weights = weights[keep]
            counts = np.bincount(tails, minlength=n)
            indptr = np.concatenate(
                (np.zeros(1, dtype=np.int64),
                 np.cumsum(counts, dtype=np.int64))).astype(
                     arr.index_dtype, copy=False)
        if delay is None:
            steps = np.ones(len(indices), dtype=np.int32)
            TOPOLOGY_EXPORT.inc(array="steps", dtype="int32")
        else:
            SENDPLAN_CACHE.inc(outcome="bypass")
            # Delay is an arbitrary Python callable; evaluate it once
            # per distinct weight so the per-slot table stays exact.
            uniq, inverse = np.unique(weights, return_inverse=True)
            per_weight = [int(delay(int(w))) for w in uniq]
            if any(not (1 <= s < (1 << 62)) for s in per_weight):
                # Steps this large (or non-positive) would wrap when
                # added to hop counts in int64; raise the same error a
                # too-big asarray would, which the kernel dispatchers
                # catch to fall back to the message path (the oracle
                # for pathological delay functions).
                raise OverflowError(
                    "delay steps outside the vector kernels' range")
            sdtype = (np.int32 if all(s <= _INT32_MAX
                                      for s in per_weight)
                      else np.int64)
            TOPOLOGY_EXPORT.inc(array="steps",
                                dtype=np.dtype(sdtype).name)
            steps = (np.asarray(per_weight, dtype=sdtype)[inverse]
                     if uniq.size else np.zeros(0, dtype=sdtype))
        for out in (indptr, indices, steps):
            out.flags.writeable = False
        if cache_key is not None:
            SENDPLAN_CACHE.inc(outcome="build")
            if len(self._send_cache) >= _SEND_CACHE_LIMIT:
                self._send_cache.pop(next(iter(self._send_cache)))
            self._send_cache[cache_key] = (indptr, indices, steps)
        return indptr, indices, steps


#: Lazily built views: slot name -> the builder that sets it (and the
#: rest of its group).
_VIEW_BUILDERS = {
    "out_lists": CSRTopology._build_adjacency,
    "in_lists": CSRTopology._build_adjacency,
    "nbr_lists": CSRTopology._build_neighbors,
    "out_indptr": CSRTopology._build_out_csr,
    "out_indices": CSRTopology._build_out_csr,
    "in_indptr": CSRTopology._build_in_csr,
    "in_indices": CSRTopology._build_in_csr,
    "nbr_indptr": CSRTopology._build_nbr_csr,
    "nbr_indices": CSRTopology._build_nbr_csr,
    "link_receiver": CSRTopology._build_links,
    "_link_index": CSRTopology._build_links,
}


def downstream_step_tables(
    topology: CSRTopology,
    direction: str,
    avoid_edges: frozenset = frozenset(),
    delay=None,
) -> Tuple[List[List[Tuple[int, int]]], List[Dict[int, int]]]:
    """Precomputed per-run send/settle tables for hop-advancing BFS.

    ``avoid_edges`` and ``delay`` are fixed for a whole run, so every
    hop-BFS variant (plain, k-source, pruned Lemma 4.2) hoists the
    membership filtering and the per-edge hop advance out of its round
    loop through this one helper.  Returns

    * ``pairs[u]`` — list of ``(v, step)``: the vertices one hop
      downstream of ``u`` for the given direction (``"out"`` follows
      edges, ``"in"`` walks them backward), with the exact-hop advance
      of the connecting edge (1 when ``delay`` is None, else
      ``delay(weight)`` — the G_d subdivision of Section 7);
    * ``step_in[v]`` — ``{sender: step}``: the same steps keyed for the
      receiving side.  Both endpoints know each edge's weight, so
      sender-side pruning and receiver-side settling legitimately read
      one shared table.
    """
    if direction == "out":
        raw = [[(v, u, v) for v in targets if (u, v) not in avoid_edges]
               for u, targets in enumerate(topology.out_lists)]
    elif direction == "in":
        raw = [[(x, x, u) for x in sources if (x, u) not in avoid_edges]
               for u, sources in enumerate(topology.in_lists)]
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if delay is None:
        pairs = [[(v, 1) for v, _, _ in row] for row in raw]
    else:
        weight = topology.weight
        pairs = [[(v, delay(weight(tail, head)))
                  for v, tail, head in row] for row in raw]
    step_in: List[Dict[int, int]] = [{} for _ in range(topology.n)]
    for u, row in enumerate(pairs):
        for v, step in row:
            step_in[v][u] = step
    return pairs, step_in
