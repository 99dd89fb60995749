"""Batched query planner — one k-source solve per failed-edge group.

A query stream rarely arrives one lookup at a time; the planner takes a
batch and spends as few solves as possible on it:

1. Queries the oracle can answer from precomputed state ((s, t) is the
   instance's own pair) are answered immediately — O(1) each, no
   grouping needed.
2. The remaining *fallback* queries are grouped by failed edge e: all
   of them want distances in the same graph G \\ {e}, so the group's
   distinct sources are batched (``MAX_GROUP`` at a time, the Lemma 5.5
   congestion knob) into **one** k-source hop-BFS on the vector fabric.
   One fabric execution answers every (s, t) pair in the group; the
   resulting distance rows are seeded into the oracle's fallback memo
   so later singleton queries for the same (s, e) are cache hits.

The batching rule in one line: *solves per batch = Σ over distinct
failed edges of ⌈distinct sources / MAX_GROUP⌉*, versus one solve per
query for the unbatched path.

The k-source kernel computes hop distances, so batching applies to
unweighted instances (Theorem 1's regime); on weighted instances the
planner degrades gracefully to the oracle's per-(s, e) memoized
Dijkstra fallback — still one solve per distinct (source, edge), never
per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..congest.multisource import multi_source_hop_bfs
from ..congest.network import DEFAULT_FABRIC
from ..congest.words import INF
from .oracle import ReplacementPathOracle
from .queries import (
    BATCHED_SOLVE,
    Edge,
    Query,
    QueryAnswer,
    kind_counts,
)

#: Cap on sources per k-source solve (O(k + h) rounds each).
MAX_GROUP = 32


@dataclass
class PlanReport:
    """What one batch cost: groups formed, solves spent, rounds paid."""

    queries: int = 0
    oracle_answered: int = 0
    groups: int = 0
    batch_solves: int = 0
    batched_queries: int = 0
    memo_answered: int = 0
    rounds: int = 0
    kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def solves_saved(self) -> int:
        """Per-query solves the batching avoided."""
        return self.batched_queries - self.batch_solves

    def as_metrics(self) -> Dict[str, object]:
        return {
            "queries": self.queries,
            "oracle_answered": self.oracle_answered,
            "groups": self.groups,
            "batch_solves": self.batch_solves,
            "batched_queries": self.batched_queries,
            "memo_answered": self.memo_answered,
            "solves_saved": self.solves_saved,
            "rounds": self.rounds,
        }


class BatchPlanner:
    """Answer query batches against one oracle with grouped solves."""

    def __init__(self, oracle: ReplacementPathOracle,
                 fabric: str = DEFAULT_FABRIC) -> None:
        self.oracle = oracle
        self.fabric = fabric
        self._net = None  # built lazily; reused across batches

    def _network(self):
        if self._net is None:
            self._net = self.oracle.instance.build_network(
                fabric=self.fabric)
        return self._net

    def answer_batch(
        self, queries: Sequence[Query],
    ) -> Tuple[List[QueryAnswer], PlanReport]:
        """Answer ``queries`` (order preserved) with grouped solves."""
        inst = self.oracle.instance
        report = PlanReport(queries=len(queries))
        answers: List[Optional[QueryAnswer]] = [None] * len(queries)
        rounds_before = (self._net.ledger.rounds
                         if self._net is not None else 0)

        with telemetry.span("serve/plan-batch",
                            instance=inst.name,
                            queries=len(queries)) as sp:
            # Pass 1: O(1) oracle answers and already-memoized
            # fallbacks.  ``groups`` collects what genuinely needs new
            # solves.
            groups: Dict[Edge, Dict[int, List[int]]] = {}
            for idx, q in enumerate(queries):
                edge = (int(q.edge[0]), int(q.edge[1]))
                if ((q.s == inst.s and q.t == inst.t)
                        or self.oracle.fallback_cached_for(q.s, edge)
                        or inst.weighted):
                    answers[idx] = self.oracle.query(
                        q.s, q.t, edge, instance_key=q.instance)
                else:
                    groups.setdefault(edge, {}).setdefault(
                        q.s, []).append(idx)

            # Pass 2: one k-source solve per (failed edge, source
            # chunk).
            net = self._network() if groups else None
            if net is not None:
                sp.set_ledger(net.ledger)
            for edge, by_source in sorted(groups.items()):
                report.groups += 1
                sources = sorted(by_source)
                for lo in range(0, len(sources), MAX_GROUP):
                    chunk = sources[lo:lo + MAX_GROUP]
                    dist = multi_source_hop_bfs(
                        net, chunk, hop_limit=inst.n,
                        avoid_edges=frozenset([edge]),
                        phase=f"serve-batch({edge[0]},{edge[1]})")
                    report.batch_solves += 1
                    for rank, s in enumerate(chunk):
                        self.oracle.seed_fallback(s, edge, dist[rank])
                        for idx in by_source[s]:
                            q = queries[idx]
                            length = dist[rank][q.t]
                            answers[idx] = QueryAnswer(
                                q, INF if length >= INF else length,
                                BATCHED_SOLVE)
                            report.batched_queries += 1

        final = [a for a in answers if a is not None]
        assert len(final) == len(queries)
        report.oracle_answered = report.queries - report.batched_queries
        report.memo_answered = kind_counts(final).get(
            "fallback-cached", 0)
        report.rounds = ((self._net.ledger.rounds - rounds_before)
                         if self._net is not None else 0)
        report.kinds = kind_counts(final)
        return final, report
