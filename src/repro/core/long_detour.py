"""Proposition 5.1 — long-detour replacement paths in Õ(n^{2/3} + D) rounds.

Pipeline (all stages charged to the shared ledger):

1. landmarks L (Definition 5.2), sampled by the caller;
2. hop-bounded k-source BFS from L in G \\ P, forward and backward, then
   the |L|² pair broadcast and local closure (Lemmas 5.4–5.6);
3. segment prefix/suffix sweeps along P plus the segment-summary
   broadcast (Lemmas 5.7–5.9);
4. each v_i finishes locally:
       x_i = min_{l ∈ L} ( |s l ⋄ P[v_i, t]| + |l t ⋄ P[s, v_{i+1}]| ),
   which is exactly the best replacement length over s-t paths that avoid
   (v_i, v_{i+1}) and visit a landmark — an upper bound on |st ⋄ e|
   always, and equal to the best *long-detour* replacement w.h.p.
   (every long detour contains a landmark, Lemma 5.3).

Proposition 7.11 (Theorem 3) is this pipeline with Theorem 3's scale
ladder: its structure "is identical to Proposition 5.1", except that
step 2's BFS becomes (1+ε)-approximate h-hop k-source distances, which
:func:`~repro.core.landmark_distances.compute_landmark_distances` builds
from Section 7.1's per-scale BFS on G_d.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..congest.dispatch import dispatch
from ..congest.network import CongestNetwork
from ..congest.spanning_tree import SpanningTree
from ..congest.words import INF, clamp_inf
from ..graphs.instance import RPathsInstance
from .knowledge import PathKnowledge
from .landmark_distances import compute_landmark_distances
from .segments import (
    checkpoint_positions,
    finish_distance_tables,
    prefix_min_to_landmarks,
    suffix_min_from_landmarks,
)

if TYPE_CHECKING:
    from ..approx.rounding import Scale


def long_detour_lengths(
    instance: RPathsInstance,
    net: CongestNetwork,
    tree: SpanningTree,
    knowledge: PathKnowledge,
    zeta: int,
    landmarks: Sequence[int],
    phase: str = "long-detour(P5.1)",
    scales: Optional[Sequence[Scale]] = None,
) -> List[object]:
    """Proposition 5.1, or with Theorem 3's ``scales`` Proposition 7.11.
    Returns ``x[i]`` for every path edge i.  ``landmarks`` is the set
    the stage runs on, drawn or deduplicated by the caller
    (:func:`~repro.core.landmarks.landmark_set`).

    ``x[i]`` ≥ |st ⋄ e_i| always (validity), and ``x[i]`` ≤ the best
    long-detour replacement length w.h.p. (approximation), times
    (1+ε) with ``scales``; the caller takes the min with the
    short-detour output (Theorems 1 and 3).
    """
    h = knowledge.hop_count
    with net.ledger.phase(phase):
        if not landmarks:
            return [INF] * h

        distances = compute_landmark_distances(
            net, tree, landmarks,
            hop_limit=zeta if scales is None else None,
            avoid_edges=instance.path_edge_set(),
            scales=scales,
        )

        segment_len = max(1, math.ceil(instance.n ** (2.0 / 3.0)))
        checkpoints = checkpoint_positions(h, segment_len)
        prefix_table = prefix_min_to_landmarks(
            net, knowledge, distances, checkpoints)
        suffix_table = suffix_min_from_landmarks(
            net, knowledge, distances, checkpoints)
        tables = finish_distance_tables(
            net, tree, knowledge, distances, checkpoints,
            prefix_table, suffix_table)
        m_final, n_final = tables["M"], tables["N"]

        # The final Proposition 5.1 combine is ledger-free local work;
        # the vector fabric runs it as one (k, h) min-plus reduction.
        if not h:
            return []
        return dispatch("pairwise_min_sum", net,
                        m_rows=m_final, n_rows=n_final)


def _pairwise_min_sum_message(
    net: CongestNetwork,
    m_rows: List[List[int]],
    n_rows: List[List[int]],
) -> List[int]:
    """The scalar min-plus reduction (the registry's fallback lane)."""
    k = len(m_rows)
    h = len(m_rows[0]) if k else 0
    out = []
    for i in range(h):
        best = INF
        for j in range(k):
            candidate = m_rows[j][i] + n_rows[j][i]
            if candidate < best:
                best = candidate
        out.append(clamp_inf(best))
    return out
