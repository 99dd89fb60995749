"""The synchronous CONGEST network simulator.

A :class:`CongestNetwork` wraps a directed graph (the *problem* graph) and
exposes the communication substrate the CONGEST model defines on it:

* vertices are integers ``0..n-1``;
* the communication links are the *undirected support* of the edge set —
  in CONGEST on directed graphs, messages travel both ways along a link
  even when the graph edge is one-way (the standard assumption, used
  throughout the paper, e.g. for the backward BFS of Lemma 4.2);
* in each synchronous round every vertex may send one B-word message per
  incident link (B words ≈ O(log n) bits); the simulator counts words and
  records the worst per-link load;
* rounds are advanced exclusively by :meth:`exchange`, so the ledger's
  round counter is exactly the CONGEST round complexity of the execution.

Algorithms are written as ordinary Python functions that loop over rounds,
calling ``net.exchange(outbox)`` once per round.  Local computation is free
(the model allows unbounded local computation), but any *knowledge* a
vertex uses must have arrived through exchanges — the test-suite's
correctness checks compare against centralized oracles computed directly
on the graph, which keeps the algorithms honest.

Since PR 2 the network is a thin facade over the swappable fabric:

* :class:`~repro.congest.topology.CSRTopology` — frozen adjacency, link
  ids, and O(1) link lookup, built once and shared by all rounds (and,
  via the ``topology=`` parameter, by any number of networks);
* :mod:`~repro.congest.fastpath` — batched delivery through flat
  per-link buffers, validated by the link-index probe.

``fabric`` selects the engine: ``"vector"`` (:data:`DEFAULT_FABRIC`;
batched exchanges plus the NumPy kernels of
:mod:`~repro.congest.kernels` for every registered primitive, each
call falling back to its message lane when the dispatch registry
declines it), ``"fast"`` (the same batched exchanges, message lanes
only; the kernels' comparison target), or ``"reference"`` (the
pre-fabric per-message loop, the semantic oracle and benchmark
baseline).  All three are byte-identical in delivered inboxes,
algorithm outputs, and ledger contents.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import RoundLimitExceededError
from .fastpath import FabricState, exchange_batch, exchange_reference
from .metrics import RoundLedger
from .topology import CSRTopology

Outbox = Mapping[int, Iterable[Tuple[int, object]]]
Inbox = Dict[int, List[Tuple[int, object]]]

#: Default per-link bandwidth, in words per round.  The paper's messages
#: are O(log n) bits, i.e. a constant number of words; 8 accommodates the
#: small tuples our primitives send while still flagging genuinely
#: congested schedules.
DEFAULT_BANDWIDTH_WORDS = 8

#: Recognized fabric engines, and the one every entry point defaults to.
FABRICS = ("fast", "reference", "vector")
DEFAULT_FABRIC = "vector"


def resolve_fabric(fabric: str) -> str:
    """Validate a fabric name and return it.

    The one place fabric names are checked: every solver entry point,
    the suite runner, the CLI, and the network constructor funnel
    through here, so an unknown name always produces the same
    ``ValueError`` listing the valid choices.
    """
    if fabric not in FABRICS:
        raise ValueError(
            f"unknown fabric {fabric!r}; expected one of {FABRICS}")
    return fabric


class CongestNetwork:
    """A directed graph together with its CONGEST communication fabric.

    Parameters
    ----------
    n:
        Number of vertices; vertices are ``0..n-1``.
    edges:
        Iterable of directed edges ``(u, v)`` or weighted edges
        ``(u, v, w)`` with positive integer weight ``w``.  Ignored when
        a prebuilt ``topology`` is supplied.
    bandwidth_words:
        Per-link per-round word budget.  Exceeding it either raises
        (``strict=True``) or is recorded as a violation.
    strict:
        Whether bandwidth violations raise :class:`BandwidthExceededError`.
    ledger:
        Optional shared :class:`RoundLedger`; a fresh one is created
        otherwise.
    fabric:
        Exchange engine: ``"vector"`` (default; batched exchanges +
        array kernels, each primitive degrading to its message lane
        when NumPy is missing or a kernel declines the call),
        ``"fast"`` (batched exchanges, message lanes only), or
        ``"reference"`` (pre-fabric loop; equivalence baseline).
    topology:
        Optional prebuilt :class:`CSRTopology` to share across networks
        of the same graph (skips re-parsing ``edges``).
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[Sequence[int]],
        bandwidth_words: int = DEFAULT_BANDWIDTH_WORDS,
        strict: bool = False,
        ledger: Optional[RoundLedger] = None,
        fabric: str = DEFAULT_FABRIC,
        topology: Optional[CSRTopology] = None,
    ) -> None:
        fabric = resolve_fabric(fabric)
        if topology is None:
            topology = CSRTopology(n, edges)
        elif topology.n != n:
            raise ValueError(
                f"shared topology has n={topology.n}, network asked "
                f"for n={n}")
        self.n = n
        self.bandwidth_words = bandwidth_words
        self.strict = strict
        self.ledger = ledger if ledger is not None else RoundLedger()
        self.fabric = fabric
        self.topology = topology
        #: When True, cumulative words per directed link are recorded in
        #: :attr:`link_totals` (used by the lower-bound cut analysis).
        self.record_link_totals = False
        self.link_totals: Dict[Tuple[int, int], int] = {}
        # Exchange buffers, allocated on the first batched exchange (a
        # vector solve makes none) and recycled every round after it.
        self._state: Optional[FabricState] = None

    # -- topology accessors --------------------------------------------------

    def vertices(self) -> range:
        return range(self.n)

    def out_neighbors(self, u: int) -> List[int]:
        """Heads of directed edges leaving ``u``."""
        return self.topology.out_lists[u]

    def in_neighbors(self, u: int) -> List[int]:
        """Tails of directed edges entering ``u``."""
        return self.topology.in_lists[u]

    def neighbors(self, u: int) -> List[int]:
        """Communication neighbors (undirected support)."""
        return self.topology.nbr_lists[u]

    def has_edge(self, u: int, v: int) -> bool:
        return self.topology.has_edge(u, v)

    def has_link(self, u: int, v: int) -> bool:
        return self.topology.has_link(u, v)

    def weight(self, u: int, v: int) -> int:
        return self.topology.weight(u, v)

    def directed_edges(self) -> Iterable[Tuple[int, int]]:
        return self.topology.directed_edges()

    @property
    def num_edges(self) -> int:
        return self.topology.num_edges

    # -- the synchronous round primitive --------------------------------------

    @property
    def rounds(self) -> int:
        return self.ledger.rounds

    def exchange(self, outbox: Outbox) -> Inbox:
        """Execute one synchronous round.

        ``outbox`` maps each sending vertex to an iterable of
        ``(receiver, payload)`` pairs.  All messages are delivered at the
        end of the round; the returned inbox maps receivers to lists of
        ``(sender, payload)`` pairs in a deterministic order (senders
        ascending per receiver, message order preserved per sender).
        """
        link_totals = self.link_totals if self.record_link_totals else None
        if self.fabric == "reference":
            return exchange_reference(
                self.topology, self.ledger, outbox,
                self.bandwidth_words, self.strict, link_totals)
        if self._state is None:
            self._state = FabricState(self.topology)
        return exchange_batch(
            self.topology, self._state, outbox, self.ledger,
            self.bandwidth_words, self.strict, link_totals=link_totals)

    def idle_round(self, count: int = 1) -> None:
        """Advance ``count`` rounds without any communication."""
        for _ in range(count):
            self.ledger.charge_round(0, 0, 0)

    def check_round_budget(self, limit: int, context: str = "") -> None:
        if self.rounds > limit:
            raise RoundLimitExceededError(limit, context)

    # -- centralized helpers (free local knowledge for setup/oracles) ---------

    def undirected_bfs_layers(self, root: int) -> List[int]:
        """Hop distance from ``root`` in the communication graph.

        Used for spanning-tree construction and diameter estimation; this
        is setup machinery, not part of any algorithm's round count.
        """
        nbr_lists = self.topology.nbr_lists
        dist = [-1] * self.n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for v in nbr_lists[u]:
                if dist[v] < 0:
                    dist[v] = du
                    queue.append(v)
        return dist

    def undirected_diameter(self) -> int:
        """Exact diameter of the communication graph.

        O(n · m); intended for the modest instance sizes the simulator
        targets.  Raises if the communication graph is disconnected.
        """
        best = 0
        for root in range(self.n):
            dist = self.undirected_bfs_layers(root)
            ecc = max(dist)
            if min(dist) < 0:
                raise ValueError("communication graph is disconnected")
            best = max(best, ecc)
        return best

    def is_connected(self) -> bool:
        return min(self.undirected_bfs_layers(0)) >= 0
