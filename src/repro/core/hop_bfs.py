"""Lemma 4.2 — hop-constrained BFS with pruned propagation.

The paper's key congestion-avoidance idea: run a BFS *backward* (along
reversed edges, excluding the edges of P) from every vertex of P
simultaneously, but let each vertex forward, in each round, only the BFS
originating from the *furthest* vertex of P (the largest path index).
This keeps the load at one O(log n)-bit message per edge per round while
still computing, for every vertex u and every d ∈ [ζ],

    f*_u(d) = max { j : a walk of length exactly d from u to v_j exists
                        in G \\ P },

(-∞ when no such j exists; Lemma 4.2's inductive claim
``f*_u(d) = max S_d(u)`` is exactly the recurrence this module runs).

Two generalisations serve Section 7:

* ``delay``: an integer per-edge hop count, which runs the same BFS on
  the rounding graphs G_d of Section 7.1 — an edge of weight w is a path
  of ``delay(w)`` unit edges in G_d, so a value crossing it advances
  ``delay(w)`` exact-hops at once (no padding is possible: subdivision
  vertices have degree 2 and the graph is directed);
* ``sense="forward"`` with ``select="min"``: the mirror image used for
  detours *ending* at a vertex — values travel along edge directions and
  each vertex forwards the *smallest* path index, computing
  g*_u(d) = min { j : a walk of exactly d hops from v_j to u exists }.
  (Minimal j is simultaneously the most permissive start constraint and
  the cheapest prefix |s v_j|, mirroring why max-j is right forward.)
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..congest.dispatch import dispatch
from ..congest.network import CongestNetwork
from ..congest.topology import downstream_step_tables

EdgeSet = FrozenSet[Tuple[int, int]]
_EMPTY: EdgeSet = frozenset()

#: A BFS value: (path index j, auxiliary word).  The auxiliary word is
#: dist_G(v_j, t) (backward sense) or dist_G(s, v_j) (forward sense),
#: attached to the seed as the proof of Lemma 7.5 prescribes; comparing
#: by index alone is sound because the auxiliary word is a function of
#: the index.
Value = Tuple[int, int]


def pruned_max_hop_bfs(
    net: CongestNetwork,
    seeds: Dict[int, Value],
    hop_limit: int,
    avoid_edges: EdgeSet = _EMPTY,
    delay: Optional[Callable[[int], int]] = None,
    record_for: Optional[Iterable[int]] = None,
    phase: Optional[str] = None,
    sense: str = "backward",
    select: str = "max",
) -> Dict[int, List[Optional[Value]]]:
    """Run the pruned hop-BFS for exactly ``hop_limit`` exact-hop rounds.

    Parameters
    ----------
    seeds:
        vertex -> (index, aux); these are the S_0 values (each v_i seeds
        its own index i).
    hop_limit:
        ζ (or ζ* for the rounding graphs): the exact-hop horizon; the
        deterministic algorithm runs, and the ledger is charged,
        exactly this many rounds, the idle tail included.  On the
        vector fabric, once a unit-step round settles the same
        frontier and indices as the round before, the remaining
        rounds repeat it and are charged in one call: tables and
        ledger are the ones the message lane steps through round by
        round.
    avoid_edges:
        Directed edges the walks must avoid — the edges of P.
    delay:
        ``delay(weight) -> hops`` for the G_d simulation; ``None`` means
        one hop per edge (the unweighted Lemma 4.2).
    record_for:
        Vertices whose full f* table should be returned (the P vertices);
        ``None`` records every vertex.
    sense:
        ``"backward"``: walks run from u *to* the seeds, messages travel
        against edge directions (Lemma 4.2).  ``"forward"``: walks run
        from the seeds *to* u, messages travel along edge directions.
    select:
        ``"max"`` keeps the largest index per round (Lemma 4.2);
        ``"min"`` the smallest (the Section 7 mirror).

    Returns
    -------
    ``tables[u][d]`` = the surviving (index, aux) pair at exact hop d,
    or None for "no walk", for d ∈ 0..hop_limit.
    """
    if sense not in ("backward", "forward"):
        raise ValueError(f"unknown sense {sense!r}")
    if select not in ("max", "min"):
        raise ValueError(f"unknown select {select!r}")

    name = phase if phase is not None else f"hop-bfs(L4.2,{sense})"
    return dispatch(
        "hop_bfs", net, seeds=seeds, hop_limit=hop_limit,
        avoid_edges=avoid_edges, delay=delay, record_for=record_for,
        name=name, sense=sense, select=select)


def _hop_bfs_message(
    net: CongestNetwork,
    seeds: Dict[int, Value],
    hop_limit: int,
    avoid_edges: EdgeSet,
    delay: Optional[Callable[[int], int]],
    record_for: Optional[Iterable[int]],
    name: str,
    sense: str,
    select: str,
) -> Dict[int, List[Optional[Value]]]:
    """The message-engine round loop (the registry's fallback lane)."""
    prefer_larger = select == "max"

    def better(a: Value, b: Optional[Value]) -> bool:
        if b is None:
            return True
        return a[0] > b[0] if prefer_larger else a[0] < b[0]

    record = set(record_for) if record_for is not None else set(
        range(net.n))

    # ``avoid_edges`` and ``delay`` are fixed for the whole run: hoist
    # the filtered send targets and per-link hop advances out of the
    # round loop (batch-friendly outbox construction — the inner loop
    # below only formats messages over prebuilt lists).  Backward walks
    # send against edge directions, i.e. the "in" downstream tables.
    targets, step_in = downstream_step_tables(
        net.topology, "in" if sense == "backward" else "out",
        avoid_edges, delay)
    exchange = net.exchange

    with net.ledger.phase(name):
        tables: Dict[int, List[Optional[Value]]] = {
            u: [None] * (hop_limit + 1) for u in record
        }
        # current[u] = the surviving value at the exact hop being
        # processed (f*_u(d) / g*_u(d)).
        current: Dict[int, Value] = dict(seeds)
        for u, value in seeds.items():
            if u in record:
                tables[u][0] = value
        # scheduled[d][u] = best candidate arriving at exact-hop d.
        scheduled: Dict[int, Dict[int, Value]] = {}
        # One message object per distinct value, shared across senders
        # and rounds: equal values travel as one tuple, so the batched
        # fabric's per-round id-keyed size memo collapses the whole
        # frontier to a single sizing.
        message_of: Dict[Value, tuple] = {}

        for d in range(1, hop_limit + 1):
            # Every round is charged: as an exchange when messages
            # move, as an idle round otherwise.
            outbox: Dict[int, list] = {}
            for u, value in current.items():
                row = targets[u]
                if row:
                    message = message_of.get(value)
                    if message is None:
                        message = message_of[value] = (
                            "hopv", value[0], value[1])
                    outbox[u] = [(x, message) for x, _ in row]
            if outbox:
                inbox = exchange(outbox)
            else:
                net.idle_round()
                inbox = {}
            # Receivers schedule arrivals for the exact hop at which the
            # walk completes the (possibly subdivided) edge.
            for x, arrivals in inbox.items():
                steps = step_in[x]
                for sender, (_, idx, aux) in arrivals:
                    arrive = (d - 1) + steps[sender]
                    if arrive > hop_limit:
                        continue
                    bucket = scheduled.setdefault(arrive, {})
                    if better((idx, aux), bucket.get(x)):
                        bucket[x] = (idx, aux)
            current = scheduled.pop(d, {})
            for u, value in current.items():
                if u in record:
                    tables[u][d] = value
        return tables
