"""Precomputed replacement-path oracle — one solve, many queries.

``solve_rpaths`` already computes |st ⋄ e| for *every* edge e of the
given path P in one Õ(n^{2/3} + D)-round execution; today that table is
printed and discarded, so each query re-pays the full solve.  The
:class:`ReplacementPathOracle` keeps it, turning the common query
classes into O(1) lookups.

Per-query cost model (the kinds of :mod:`repro.serve.queries`):

=================  ==========================================  ========
query shape        answer                                      cost
=================  ==========================================  ========
(s, t) = (S, T),   precomputed |st ⋄ e| table                  O(1)
e on P
(s, t) = (S, T),   |P| — deleting a non-path edge cannot       O(1)
e off P            break or shorten the shortest path P
anything else      one centralized SSSP from s in G \\ {e},    O(m +
                   memoized per (s, e) so every target          n log n)
                   sharing the pair is served from the memo    then O(1)
=================  ==========================================  ========

Construction cost is one ``solve_rpaths`` run (``solver="theorem1"``,
the measured CONGEST execution whose round count the oracle records) or
one centralized sweep (``solver="centralized"``: h_st SSSPs, no fabric
— the cheap choice when only the table matters).  Snapshots make the
built state storable: :meth:`snapshot` / :meth:`from_snapshot`
round-trip through JSON-safe dicts, which is how shards spill cold
oracles into the content-addressed :class:`~repro.runtime.store.
ResultStore` instead of re-solving after eviction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..congest.network import DEFAULT_FABRIC
from ..congest.words import INF, clamp_inf
from ..graphs.instance import RPathsInstance
from ..dynamic.stream import MUT_FAIL, MUT_HEAL, MUT_WEIGHT
from ..telemetry.schema import DYNAMIC_INVALIDATIONS, SERVE_ORACLE_ANSWERS
from .queries import (
    FALLBACK_CACHED,
    FALLBACK_SOLVE,
    HIT_OFF_PATH,
    HIT_PATH_EDGE,
    Edge,
    Query,
    QueryAnswer,
)

#: Oracle construction back-ends.
SOLVERS = ("theorem1", "centralized")

#: Per-answer counters, pre-bound per kind: ``query()`` hits answer in
#: a few µs, so the label formatting and lock of ``registry.inc`` are
#: measurable there (a bound counter ticks without either).
_ANSWER_COUNTERS = {
    kind: SERVE_ORACLE_ANSWERS.bind(kind=kind)
    for kind in (HIT_PATH_EDGE, HIT_OFF_PATH,
                 FALLBACK_SOLVE, FALLBACK_CACHED)
}


@dataclass
class ReplacementPathOracle:
    """Answer (s, t, failed-edge) queries from precomputed state.

    Build with :meth:`build` (runs the solver once) or
    :meth:`from_snapshot` (restores spilled state without solving).
    """

    instance: RPathsInstance
    lengths: List[int]
    solver: str = "theorem1"
    #: Rounds charged by the construction solve (0 for centralized /
    #: restored oracles — they never touched the fabric).
    build_rounds: int = 0

    def __post_init__(self) -> None:
        if len(self.lengths) != self.instance.hop_count:
            raise ValueError(
                f"lengths table has {len(self.lengths)} entries for a "
                f"path with {self.instance.hop_count} edges")
        self._edge_index: Dict[Edge, int] = {
            edge: i for i, edge in enumerate(self.instance.path_edges())}
        self._path_length = self.instance.path_length
        #: (source, failed edge) -> full distance vector; one fallback
        #: SSSP serves every target that shares the pair.
        self._fallback: Dict[Tuple[int, Edge], List[int]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, instance: RPathsInstance, solver: str = "theorem1",
              seed: int = 0, fabric: str = DEFAULT_FABRIC,
              **solver_kwargs) -> "ReplacementPathOracle":
        """Run the chosen solver once and capture its |st ⋄ e| table."""
        if solver not in SOLVERS:
            raise ValueError(f"unknown oracle solver {solver!r}; "
                             f"expected one of {SOLVERS}")
        with telemetry.span("serve/oracle-build",
                            instance=instance.name, solver=solver,
                            fabric=fabric):
            if solver == "theorem1":
                from ..core.rpaths import solve_rpaths
                report = solve_rpaths(instance, seed=seed,
                                      fabric=fabric, **solver_kwargs)
                return cls(
                    instance=instance,
                    lengths=[clamp_inf(x) for x in report.lengths],
                    solver=solver, build_rounds=report.rounds)
            from ..baselines.centralized import replacement_lengths
            return cls(instance=instance,
                       lengths=replacement_lengths(instance),
                       solver=solver, build_rounds=0)

    # -- queries -------------------------------------------------------------

    def query(self, s: int, t: int, edge: Edge,
              instance_key: str = "") -> QueryAnswer:
        """Answer one query; see the module docstring's cost model."""
        n = self.instance.n
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(
                f"query endpoints ({s},{t}) out of range for n={n}")
        edge = (int(edge[0]), int(edge[1]))
        q = Query(s=s, t=t, edge=edge,
                  instance=instance_key or self.instance.name)
        if s == self.instance.s and t == self.instance.t:
            idx = self._edge_index.get(edge)
            if idx is not None:
                _ANSWER_COUNTERS[HIT_PATH_EDGE].inc()
                return QueryAnswer(q, self.lengths[idx], HIT_PATH_EDGE)
            # e not on P: P survives the deletion, and deleting an edge
            # never shortens distances, so d(s, t, e) = |P| exactly.
            _ANSWER_COUNTERS[HIT_OFF_PATH].inc()
            return QueryAnswer(q, self._path_length, HIT_OFF_PATH)
        key = (s, edge)
        dist = self._fallback.get(key)
        if dist is None:
            dist = self.instance.dijkstra(
                s, avoid_edges=frozenset([edge]))
            self._fallback[key] = dist
            kind = FALLBACK_SOLVE
        else:
            kind = FALLBACK_CACHED
        _ANSWER_COUNTERS[kind].inc()
        return QueryAnswer(q, clamp_inf(dist[t]), kind)

    def answer(self, query: Query) -> QueryAnswer:
        return self.query(query.s, query.t, query.edge,
                          instance_key=query.instance)

    def seed_fallback(self, s: int, edge: Edge,
                      dist: List[int]) -> None:
        """Install an externally computed G \\ {e} distance vector.

        The planner's batched k-source solves land their rows here, so
        later stragglers for the same (s, e) are memo hits.
        """
        self._fallback[(s, (int(edge[0]), int(edge[1])))] = list(dist)

    def fallback_cached_for(self, s: int, edge: Edge) -> bool:
        return (s, (int(edge[0]), int(edge[1]))) in self._fallback

    # -- persistence ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe built state (the fallback memo is *not* spilled:
        it is derived, unboundedly large, and cheap to regrow)."""
        return {
            "path": list(self.instance.path),
            "lengths": list(self.lengths),
            "path_length": self._path_length,
            "n": self.instance.n,
            "m": self.instance.m,
            "solver": self.solver,
            "build_rounds": self.build_rounds,
            "topology_version": self.instance.topology_version,
        }

    @classmethod
    def from_snapshot(cls, instance: RPathsInstance,
                      data: Dict[str, object],
                      ) -> Optional["ReplacementPathOracle"]:
        """Restore a spilled oracle; None if the snapshot does not
        match the instance (wrong path or size — never trust it).

        The topology version is checked first: spill keys carry it, so
        a superseded-epoch snapshot should never even be looked up —
        but if one arrives anyway (hand-copied store, renamed
        instance), it is refused with a ``spill-stale`` invalidation
        rather than silently serving pre-mutation lengths.
        """
        try:
            if (int(data.get("topology_version", 0))
                    != instance.topology_version):
                DYNAMIC_INVALIDATIONS.inc(scope="spill-stale")
                return None
            if (list(data["path"]) != list(instance.path)
                    or int(data["n"]) != instance.n
                    or int(data["m"]) != instance.m):
                return None
            lengths = [int(x) for x in data["lengths"]]
        except (KeyError, TypeError, ValueError):
            return None
        if len(lengths) != instance.hop_count:
            return None
        return cls(instance=instance, lengths=lengths,
                   solver=str(data.get("solver", "theorem1")),
                   build_rounds=int(data.get("build_rounds", 0)))


def _row_survives(dist: List[int], mutations) -> bool:
    """True when no mutation can have changed this (s, e) vector.

    ``dist`` is d(s, ·) in G_old \\ {e}.  It stays exact in
    G_new \\ {e} iff every applied mutation is provably non-affecting
    on that graph:

    * a mutation of the avoided edge e itself — always safe (e is
      excluded either way);
    * removing / raising edge (u, v) — safe iff the edge was not
      *tight* (``dist[u] + w_old != dist[v]``): a non-tight edge lies
      on no shortest path, so losing it changes nothing;
    * adding / lowering (u, v) to w — safe iff non-improving
      (``dist[u] + w >= dist[v]``);
    * either way, an unreachable tail (``dist[u] >= INF``) makes the
      edge unusable from s, hence harmless.

    Removals compose (deleting non-tight edges never creates new
    tight ones under unchanged distances) and individually
    non-improving additions cannot combine to improve, so checking
    each mutation against the *old* vector is sound for the batch.
    """
    for m in mutations:
        u, v = m.edge
        if dist[u] >= INF:
            continue
        if m.kind == MUT_FAIL:
            if dist[u] + m.old_weight == dist[v]:
                return False
        elif m.kind == MUT_HEAL:
            if dist[u] + m.weight < dist[v]:
                return False
        elif m.kind == MUT_WEIGHT:
            if (dist[u] + m.old_weight == dist[v]
                    or dist[u] + m.weight < dist[v]):
                return False
        else:  # unknown kind: never carry across it
            return False
    return True


def carry_fallback_memo(old: ReplacementPathOracle,
                        new: ReplacementPathOracle,
                        mutations) -> Tuple[int, int]:
    """Carry provably-unaffected fallback rows across an epoch.

    ``mutations`` is the full :class:`~repro.dynamic.stream.
    AppliedMutation` sequence separating ``old``'s epoch from
    ``new``'s (possibly several batches, concatenated in order).
    Each surviving row is seeded into ``new`` verbatim — distances
    are unique, so a carried row is bit-identical to what a fresh
    fallback SSSP would produce.  Returns ``(kept, dropped)``.
    """
    kept = dropped = 0
    for (s, edge), dist in old._fallback.items():
        relevant = [m for m in mutations if m.edge != edge]
        if _row_survives(dist, relevant):
            new.seed_fallback(s, edge, dist)
            kept += 1
        else:
            dropped += 1
    if dropped:
        DYNAMIC_INVALIDATIONS.inc(dropped, scope="memo-dropped")
    return kept, dropped


def centralized_truth(instance: RPathsInstance, s: int, t: int,
                      edge: Edge) -> int:
    """Ground-truth d(s, t) in G \\ {edge} — one uncached SSSP.

    The property tests and the bench's correctness gate compare every
    oracle/planner answer against this.
    """
    dist = instance.dijkstra(
        s, avoid_edges=frozenset([(int(edge[0]), int(edge[1]))]))
    return INF if dist[t] >= INF else dist[t]
