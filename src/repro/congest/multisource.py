"""k-source h-hop BFS (Lemma 5.5, after Lenzen–Patt-Shamir–Peleg [LPP19]).

Every vertex learns its hop distance (up to ``hop_limit``) from each of k
sources, in O(k + h) rounds, using the classical priority schedule: each
vertex announces at most one (distance, source) pair per round, smallest
pair first.  The standard argument shows the pair ranked r-th in
lexicographic order is never delayed more than r rounds behind its BFS
schedule, giving the O(k + h) makespan; the primitive benchmark measures
the constant.

Also provides the weighted-delay variant used to simulate BFS on the
rounding graphs G_d of Section 7: an edge of weight w behaves like a path
of ``delay(w)`` unit edges, so a wave crossing it advances ``delay(w)``
hops at once.  Distances are carried explicitly in messages, so the
schedule only affects *when* values settle, never their correctness; the
run continues to quiescence.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .dispatch import dispatch
from .network import CongestNetwork
from .topology import downstream_step_tables
from .words import INF

EdgeSet = FrozenSet[Tuple[int, int]]
_EMPTY: EdgeSet = frozenset()


def multi_source_hop_bfs(
    net: CongestNetwork,
    sources: Sequence[int],
    hop_limit: int,
    direction: str = "out",
    avoid_edges: EdgeSet = _EMPTY,
    delay: Optional[Callable[[int], int]] = None,
    phase: Optional[str] = None,
) -> List[List[int]]:
    """Hop-bounded BFS from ``k`` sources under the CONGEST bandwidth.

    Parameters
    ----------
    sources:
        The k source vertices; ranks follow this order.
    hop_limit:
        Distances strictly beyond this are not propagated.
    direction:
        ``"out"``: distance source→v along edges.  ``"in"``: distance
        v→source (BFS in the reverse graph, as Lemma 5.6 requires).
    delay:
        Optional ``delay(weight) -> hops`` function; when given, crossing
        an edge advances that many hops (BFS on the subdivided graph G_d).
        ``None`` means unit hops regardless of weights.
    phase:
        Ledger phase name (default ``"k-source-bfs"``).  The schedule
        always runs to quiescence.

    Returns
    -------
    ``dist`` with ``dist[rank][v]`` = hop distance from ``sources[rank]``
    to v (or from v to the source for ``direction="in"``), INF beyond
    ``hop_limit``, as lists of Python ints on every fabric.  The vector
    kernel's ``(k, n)`` int64 table is listed here, once, for callers
    that compute with Python values: Theorem 3's merge over the scale
    ladder (its exact Fraction lengths), MR24, the serve planner and
    the catalog.  Theorem 1's landmark distances dispatch the primitive
    themselves and hand the arrays to Lemma 5.6's completion as they
    are.
    """
    name = phase if phase is not None else "k-source-bfs"
    dist = dispatch(
        "multisource", net, sources=sources, hop_limit=hop_limit,
        direction=direction, avoid_edges=avoid_edges, delay=delay,
        name=name)
    return dist if isinstance(dist, list) else dist.tolist()


def _multisource_message(
    net: CongestNetwork,
    sources: Sequence[int],
    hop_limit: int,
    direction: str,
    avoid_edges: EdgeSet,
    delay: Optional[Callable[[int], int]],
    name: str,
) -> List[List[int]]:
    """The priority-schedule round loop (the registry's fallback lane)."""
    k = len(sources)
    n = net.n
    downstream, step_in = downstream_step_tables(
        net.topology, direction, avoid_edges, delay)
    exchange = net.exchange
    heappush = heapq.heappush
    heappop = heapq.heappop
    with net.ledger.phase(name):
        dist: List[List[int]] = [[INF] * n for _ in range(k)]
        # Per-vertex priority queue of announcements not yet sent.
        pending: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for rank, s in enumerate(sources):
            if dist[rank][s] > 0:
                dist[rank][s] = 0
                heappush(pending[s], (0, rank))

        while True:
            outbox: Dict[int, List[Tuple[int, object]]] = {}
            senders: List[Tuple[int, int, int]] = []
            for u in range(n):
                queue = pending[u]
                # Pop until a still-current announcement is found.
                while queue:
                    d, rank = heappop(queue)
                    if dist[rank][u] == d:
                        senders.append((u, rank, d))
                        break
            if not senders:
                break
            for u, rank, d in senders:
                # The sender locally prunes announcements that would
                # exceed the hop budget; it cannot (and does not)
                # consult the receiver's state.
                sends = [(v, ("hop", rank, d)) for v, step in downstream[u]
                         if d + step <= hop_limit]
                if sends:
                    outbox[u] = sends
            if outbox:
                inbox = exchange(outbox)
            else:
                net.idle_round()
                inbox = {}
            for v, arrivals in inbox.items():
                steps = step_in[v]
                row_pending = pending[v]
                for sender, (_, rank, d) in arrivals:
                    candidate = d + steps[sender]
                    if candidate <= hop_limit and candidate < dist[rank][v]:
                        dist[rank][v] = candidate
                        heappush(row_pending, (candidate, rank))
        return dist
