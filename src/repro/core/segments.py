"""Checkpoints and segment pipelining — Lemmas 5.7, 5.8, 5.9.

P is cut into segments of ⌈n^{2/3}⌉ edges by *checkpoints*
C = {v_0, v_⌈n^{2/3}⌉, v_2⌈n^{2/3}⌉, ..., t}.  Within each segment, a
pipelined prefix-minimum sweep per landmark computes the localized

    M^g[l_j, v] = min_{u : c_g ≤_P u ≤_P v} ( |su| + |u l_j|_{G\\P} )

in O(segment length + |L|) rounds (Lemma 5.7); every segment's full
value M^g[l_j, c_{g+1}] is then broadcast — Õ(n^{1/3}·n^{1/3}) = Õ(n^{2/3})
messages (Lemma 5.8) — and each v_i finishes locally:

    |s l_j ⋄ P[v_i, t]| = min( M^g[l_j, v_i],  min_{x < g} M^x[l_j, c_{x+1}] ).

Lemma 5.9 is the mirror image on the reverse graph for
|l_j t ⋄ P[s, v_{i+1}]|, with the result shifted one hop from v_{i+1} to
v_i at the end (O(|L|) pipelined rounds).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..congest.broadcast import broadcast_messages
from ..congest.dispatch import dispatch
from ..congest.network import CongestNetwork
from ..congest.pipeline import SegmentSweeps, run_segment_sweeps
from ..congest.spanning_tree import SpanningTree
from ..congest.words import INF
from .knowledge import PathKnowledge
from .landmark_distances import LandmarkDistances


def checkpoint_positions(hop_count: int, segment_len: int) -> List[int]:
    """Checkpoint indices 0, seg, 2·seg, ..., h_st (t always last)."""
    if segment_len < 1:
        raise ValueError("segment length must be positive")
    positions = list(range(0, hop_count, segment_len)) + [hop_count]
    return positions


def prefix_min_to_landmarks(
    net: CongestNetwork,
    knowledge: PathKnowledge,
    distances: LandmarkDistances,
    checkpoints: Sequence[int],
    phase: str = "segment-prefix(L5.7)",
) -> Tuple[object, List[List[int]]]:
    """Lemma 5.7 — M^g[l_j, v] for every segment g, landmark j, and v.

    Returns ``(carried, finals)`` (see :class:`SegmentSweeps`):
    ``carried[j][i]`` = M^g[l_j, v_i] for the segment g holding edge
    (v_i, v_{i+1}), and ``finals[j][g]`` = M^g[l_j, c_{g+1}].  One
    pipelined sweep per (segment, landmark), all concurrent; at
    position p the owning vertex locally knows |s v_p| + |v_p l_j|,
    and the sweep semantics are exactly "min with the local value".
    """
    return run_segment_sweeps(net, knowledge.path, SegmentSweeps(
        checkpoints, knowledge.dist_from_s, distances.to_landmark,
        rightward=True), phase)


def suffix_min_from_landmarks(
    net: CongestNetwork,
    knowledge: PathKnowledge,
    distances: LandmarkDistances,
    checkpoints: Sequence[int],
    phase: str = "segment-suffix(L5.9)",
) -> Tuple[object, List[List[int]]]:
    """Lemma 5.9's segment stage — the suffix-minimum mirror of Lemma 5.7.

    Returns ``(carried, finals)`` with ``carried[j][i]`` =
    min_{u : v_{i+1} ≤_P u ≤_P c_{g+1}} ( |l_j u|_{G\\P} + |ut| ) for
    the segment g holding edge i, held at v_{i+1}, and ``finals[j][g]``
    the same minimum over the whole segment, held at c_g.
    """
    return run_segment_sweeps(net, knowledge.path, SegmentSweeps(
        checkpoints, knowledge.dist_to_t, distances.from_landmark,
        rightward=False), phase)


def finish_distance_tables(
    net: CongestNetwork,
    tree: SpanningTree,
    knowledge: PathKnowledge,
    distances: LandmarkDistances,
    checkpoints: Sequence[int],
    prefix_table: Tuple[object, List[List[int]]],
    suffix_table: Tuple[object, List[List[int]]],
    phase: str = "segment-combine(L5.8/5.9)",
) -> Dict[str, object]:
    """Broadcast segment summaries and finish Lemmas 5.8 / 5.9 locally.

    Returns ``{"M": M, "N": N}`` with
    ``M[j][i]`` = |s l_j ⋄ P[v_i, t]|  (detour leaves at or before v_i),
    ``N[j][i]`` = |l_j t ⋄ P[s, v_{i+1}]|  (detour rejoins at or after
    v_{i+1}), both stored at v_i for i ∈ [0, h_st − 1]; the one-hop shift
    of N from v_{i+1} to v_i costs |L| pipelined rounds.  The tables are
    ``(k, h_st)`` int64 arrays on the vector fabric.
    """
    path = knowledge.path
    h = knowledge.hop_count
    k = distances.count
    num_segments = len(checkpoints) - 1
    prefix, m_finals = prefix_table
    suffix, n_finals = suffix_table
    with net.ledger.phase(phase):
        # Broadcast the full-segment values (Lemma 5.8's O(ℓ·|L|) words).
        messages: Dict[int, list] = {}
        for g in range(num_segments):
            messages.setdefault(path[checkpoints[g + 1]], []).extend(
                ("Mseg", g, j, m_finals[j][g]) for j in range(k))
            messages.setdefault(path[checkpoints[g]], []).extend(
                ("Nseg", g, j, n_finals[j][g]) for j in range(k))
        records = broadcast_messages(net, tree, messages,
                                     phase="segment-broadcast(L2.4)")
        m_seg = [[INF] * k for _ in range(num_segments)]
        n_seg = [[INF] * k for _ in range(num_segments)]
        for _, payload in records:
            tag, g, j, value = payload
            if tag == "Mseg":
                m_seg[g][j] = value
            else:
                n_seg[g][j] = value

        with net.ledger.phase("N-shift"):
            # Every vertex combines its segment's running minimum with
            # the broadcast summaries of the segments before (M) or
            # after (N) it; N is naturally available at v_{i+1}, so it
            # then shifts one hop left, pipelining the |L| values per
            # edge.  The bulk charge assumes every token is the 3-word
            # ("Nshift", j, int); the weighted Theorem 3 pipeline
            # shifts exact Fraction lengths (2 words each), so any
            # non-int value sends the whole stage down the message
            # path.  Both lanes charge within this open phase.
            m_final, n_final = dispatch(
                "n_shift", net, path=path, hop_count=h,
                checkpoints=checkpoints, prefix=prefix, suffix=suffix,
                m_seg=m_seg, n_seg=n_seg)
        return {"M": m_final, "N": n_final}


def _n_shift_message(
    net: CongestNetwork,
    path: Sequence[int],
    hop_count: int,
    checkpoints: Sequence[int],
    prefix: List[List[object]],
    suffix: List[List[object]],
    m_seg: List[List[object]],
    n_seg: List[List[object]],
) -> Tuple[List[List[object]], List[List[object]]]:
    """The scalar combine and per-row shift rounds (the registry's
    fallback lane).

    Path vertices are pairwise distinct (P is a shortest path), so each
    round's outbox is one message per path vertex — built directly, no
    setdefault probes.  Every round moves exactly ``hop_count``
    three-word tokens one hop leftward.
    """
    h = hop_count
    num_segments = len(checkpoints) - 1
    # Prefix/suffix minima over whole segments (local, via broadcast
    # data known at every vertex).
    k = len(prefix)
    m_before = [[INF] * k for _ in range(num_segments)]
    for g in range(1, num_segments):
        for j in range(k):
            m_before[g][j] = min(m_before[g - 1][j], m_seg[g - 1][j])
    n_after = [[INF] * k for _ in range(num_segments)]
    for g in range(num_segments - 2, -1, -1):
        for j in range(k):
            n_after[g][j] = min(n_after[g + 1][j], n_seg[g + 1][j])
    segment_of = _segment_of_positions(checkpoints, h)

    m_final = [
        [min(prefix[j][i], m_before[segment_of[i]][j]) for i in range(h)]
        for j in range(k)
    ]
    n_final = [
        [min(suffix[j][i], n_after[segment_of[i]][j]) for i in range(h)]
        for j in range(k)
    ]
    for j, row in enumerate(n_final):
        net.exchange({
            path[i + 1]: [(path[i], ("Nshift", j, row[i]))]
            for i in range(h)
        })
    return m_final, n_final


def _segment_of_positions(checkpoints: Sequence[int],
                          hop_count: int) -> List[int]:
    """segment_of[i] = index g of the segment containing edge
    (v_i, v_{i+1}), i.e. c_g ≤ i < i+1 ≤ c_{g+1}."""
    segment_of = [0] * hop_count
    g = 0
    for i in range(hop_count):
        while i >= checkpoints[g + 1]:
            g += 1
        segment_of[i] = g
    return segment_of
