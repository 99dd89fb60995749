"""Proposition 4.1 — short-detour replacement paths in O(ζ) rounds.

Stage 1 (Lemma 4.2): the pruned backward hop-BFS gives every v_i the
table f*_{v_i}(d) for d ∈ [ζ].

Stage 2 (Lemma 4.3, local): from the table, v_i derives

    X[i, ≥ j] = min over short detours leaving exactly at v_i and
                rejoining at or after v_j of the replacement length,

using  h*(i,j) = min{d : f*_{v_i}(d) = j}  and the descending recurrence
X[i, ≥ j] = min(X[i, ≥ j+1], h_st − (j−i) + h*(i,j)).  Stage 3 reads
only j ≤ i+ζ, so v_i builds that window and folds every detour
rejoining beyond it into X[i, ≥ i+ζ].  Stages 2 and 3 run as one
``dp_sweep`` primitive.

Stage 3 (Lemma 4.4, ζ−1 rounds of pipelining along P): the prefix-closed
quantity X[≤ i, ≥ i+d] is swept down from d = ζ to d = 1 with one word
per P-edge per round, leaving every v_i with

    X[≤ i, ≥ i+1] = best short-detour replacement length for (v_i, v_{i+1}).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..congest.dispatch import dispatch
from ..congest.network import CongestNetwork
from ..congest.words import INF
from ..graphs.instance import RPathsInstance
from .hop_bfs import pruned_max_hop_bfs
from .knowledge import PathKnowledge


def x_geq_from_table(
    table: List[Optional[tuple]],
    i: int,
    hop_count: int,
    zeta: int,
) -> Dict[int, int]:
    """Lemma 4.3: compute X[i, ≥ j] from f*_{v_i} over the ζ window.

    ``table[d]`` is (f*_{v_i}(d), aux) or None.  Pure local computation
    of vertex v_i; returns a dict over j ∈ (i, min(h_st, i+ζ)], the
    only keys the Lemma 4.4 DP reads.  Every candidate rejoining beyond
    the window folds into j = i+ζ, so the window's values are exactly
    the unbounded recurrence's, in O(ζ) space instead of O(h_st).
    """
    # h*(i, j): first exact hop count at which the BFS furthest-index
    # equals j.
    h_star: Dict[int, int] = {}
    for d in range(1, min(zeta, len(table) - 1) + 1):
        entry = table[d]
        if entry is None:
            continue
        j = entry[0]
        if i < j <= hop_count and j not in h_star:
            h_star[j] = d

    top = min(hop_count, i + zeta)
    best_at: Dict[int, int] = {}
    for j, d in h_star.items():
        key = min(j, top)
        candidate = hop_count - (j - i) + d
        if candidate < best_at.get(key, INF):
            best_at[key] = candidate

    x_geq: Dict[int, int] = {}
    running = INF
    for j in range(top, i, -1):
        candidate = best_at.get(j, INF)
        if candidate < running:
            running = candidate
        x_geq[j] = running
    return x_geq


def short_detour_lengths(
    instance: RPathsInstance,
    net: CongestNetwork,
    knowledge: PathKnowledge,
    zeta: int,
    phase: str = "short-detour(P4.1)",
) -> List[int]:
    """Proposition 4.1 — the O(ζ)-round deterministic algorithm.

    Returns ``lengths[i]`` = shortest replacement length for edge
    (v_i, v_{i+1}) over *short* detours (≤ ζ hops), INF when none exists.
    """
    path = knowledge.path
    h = knowledge.hop_count
    with net.ledger.phase(phase):
        # Stage 1: pruned hop-BFS seeded by every P vertex's index.
        seeds = {
            path[i]: (i, knowledge.dist_to_t[i]) for i in range(h + 1)
        }
        tables = pruned_max_hop_bfs(
            net,
            seeds=seeds,
            hop_limit=zeta,
            avoid_edges=instance.path_edge_set(),
            record_for=path,
            phase="hop-bfs(L4.2)",
        )

        # Stages 2 and 3: each v_i's local Lemma 4.3 from its table,
        # then Lemma 4.4's ζ−1 pipelined rounds along P.  best[i]
        # holds X[≤ i, ≥ i+d] as d descends from ζ to 1.
        best = dispatch("dp_sweep", net, path=path,
                        tables=[tables[v] for v in path],
                        hop_count=h, zeta=zeta,
                        name="dp-pipeline(L4.4)")
        return [min(best[i], INF) for i in range(h)]


def _dp_sweep_message(
    net: CongestNetwork,
    path: Sequence[int],
    tables: Sequence[List[Optional[tuple]]],
    hop_count: int,
    zeta: int,
    name: str,
) -> List[int]:
    """Lemma 4.3 per vertex, then the per-round DP exchange loop (the
    registry's fallback lane)."""
    h = hop_count
    x_geq = [x_geq_from_table(tables[i], i, h, zeta) for i in range(h + 1)]

    def x_i_geq(i: int, j: int) -> int:
        if j > h:
            return INF
        return x_geq[i].get(j, INF)

    with net.ledger.phase(name):
        best = [x_i_geq(i, i + zeta) for i in range(h + 1)]
        for d in range(zeta, 1, -1):
            outbox: Dict[int, list] = {}
            for i in range(h):
                outbox.setdefault(path[i], []).append(
                    (path[i + 1], ("dp", best[i])))
            net.exchange(outbox)
            new_best = list(best)
            for i in range(h + 1):
                incoming = best[i - 1] if i > 0 else INF
                new_best[i] = min(incoming, x_i_geq(i, i + (d - 1)))
            best = new_best
        return best
