"""Seedable mutation streams and epoch-bumping application.

A *mutation* is one topology change: an edge-weight update, a failure
arrival (the edge leaves the graph), or a healing (it comes back,
possibly with a new weight).  :func:`apply_mutations` applies a batch
to an :class:`~repro.graphs.instance.RPathsInstance` and returns a
**new** instance with the same name, ``topology_version + 1``, and a
freshly re-derived shortest path P — mutations never modify the input
in place, so every epoch's instance stays usable as ground truth for
answers served against it.

Safety: a mutation that would break the problem's preconditions is
*skipped with a structured reason* (the closed ``reason`` enum of
:data:`repro.telemetry.schema.DYNAMIC_SKIPPED`) rather than applied —
removing the edge that disconnects s from t or splits the
communication graph, healing an edge that already exists, weight
updates on unweighted instances, and so on.  Skips are deterministic,
so a seeded stream replays bit-identically.

:class:`MutationStream` generates the batches: independent bursts,
correlated *regional* fault storms (all failures inside one BFS ball),
and rolling *maintenance windows* (fail a window of vertices' incident
edges, heal the previous window).  It remembers what it failed so
heals re-install the original weight.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..graphs.instance import RPathsInstance
from ..telemetry.schema import DYNAMIC_MUTATIONS, DYNAMIC_SKIPPED

Edge = Tuple[int, int]

#: Mutation kinds: an edge-weight change on a weighted instance, a
#: failure arrival (the edge leaves the graph), and a healing (a failed
#: or new edge joins it).
MUT_WEIGHT = "weight"
MUT_FAIL = "fail"
MUT_HEAL = "heal"


@dataclass(frozen=True)
class Mutation:
    """One requested topology change."""

    kind: str  # MUT_WEIGHT | MUT_FAIL | MUT_HEAL
    edge: Edge
    weight: int = 1  # new weight (MUT_WEIGHT / MUT_HEAL)

    @property
    def label(self) -> str:
        u, v = self.edge
        if self.kind == MUT_FAIL:
            return f"fail({u},{v})"
        return f"{self.kind}({u},{v})={self.weight}"


@dataclass(frozen=True)
class AppliedMutation:
    """One applied change, annotated with the weight it displaced.

    ``old_weight`` is what the invalidation tightness checks need: a
    removed/raised edge can only have changed distances if it was
    *tight* under the pre-mutation metric (see
    :func:`repro.serve.oracle.carry_fallback_memo`).
    """

    kind: str
    edge: Edge
    weight: int  # weight after the mutation (0 for MUT_FAIL)
    old_weight: int  # weight before (0 for MUT_HEAL of a new edge)


@dataclass
class MutationResult:
    """Outcome of one :func:`apply_mutations` batch."""

    instance: RPathsInstance  # the new epoch (input untouched)
    applied: List[AppliedMutation] = field(default_factory=list)
    skipped: List[Tuple[Mutation, str]] = field(default_factory=list)
    path_changed: bool = False

    @property
    def epoch(self) -> int:
        return self.instance.topology_version

    def as_metrics(self) -> Dict[str, object]:
        kinds: Dict[str, int] = {}
        for a in self.applied:
            kinds[a.kind] = kinds.get(a.kind, 0) + 1
        reasons: Dict[str, int] = {}
        for _m, reason in self.skipped:
            reasons[reason] = reasons.get(reason, 0) + 1
        return {
            "epoch": self.epoch,
            "applied": len(self.applied),
            "skipped": len(self.skipped),
            "path_changed": self.path_changed,
            "kinds": kinds,
            "skip_reasons": reasons,
        }


def _reachable(n: int, adj: Dict[int, List[int]], source: int,
               target: int) -> bool:
    seen = [False] * n
    seen[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u == target:
            return True
        for v in adj.get(u, ()):
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return seen[target]


def _connected_undirected(n: int, edges: Sequence[Edge]) -> bool:
    """The communication graph (edges as undirected links)."""
    adj: Dict[int, List[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adj.get(u, ()):
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == n


def apply_mutations(instance: RPathsInstance,
                    mutations: Sequence[Mutation],
                    record_telemetry: bool = True) -> MutationResult:
    """Apply a batch, returning the next-epoch instance.

    Unsafe mutations are skipped with a reason; the surviving set is
    applied in order to a working weight map, the edge list is rebuilt
    with stable ordering (existing edges keep their position, heals
    append), and P is re-derived with the deterministic
    parent-tracking SSSP — so the result is a pure function of
    (instance, mutations).
    """
    weights: Dict[Edge, int] = instance.edge_weight_map()
    order: List[Edge] = [(u, v) for u, v, _ in instance.edges]
    s, t, n = instance.s, instance.t, instance.n
    applied: List[AppliedMutation] = []
    skipped: List[Tuple[Mutation, str]] = []

    def skip(m: Mutation, reason: str) -> None:
        skipped.append((m, reason))
        if record_telemetry:
            DYNAMIC_SKIPPED.inc(reason=reason)

    def survives_removal(edge: Edge) -> bool:
        """s→t stays reachable and the comm graph stays connected."""
        remaining = [e for e in weights if e != edge]
        adj: Dict[int, List[int]] = {}
        for u, v in remaining:
            adj.setdefault(u, []).append(v)
        return (_reachable(n, adj, s, t)
                and _connected_undirected(n, remaining))

    for m in mutations:
        edge = (int(m.edge[0]), int(m.edge[1]))
        u, v = edge
        if not (0 <= u < n and 0 <= v < n) or u == v:
            skip(m, "invalid")
            continue
        if m.kind == MUT_FAIL:
            old = weights.get(edge)
            if old is None:
                skip(m, "unknown-edge")
                continue
            if not survives_removal(edge):
                skip(m, "disconnects")
                continue
            del weights[edge]
            order.remove(edge)
            applied.append(AppliedMutation(MUT_FAIL, edge, 0, old))
        elif m.kind == MUT_HEAL:
            if edge in weights:
                skip(m, "duplicate-edge")
                continue
            w = int(m.weight)
            if w <= 0 or (not instance.weighted and w != 1):
                skip(m, "invalid")
                continue
            weights[edge] = w
            order.append(edge)
            applied.append(AppliedMutation(MUT_HEAL, edge, w, 0))
        elif m.kind == MUT_WEIGHT:
            if not instance.weighted:
                skip(m, "unweighted")
                continue
            old = weights.get(edge)
            if old is None:
                skip(m, "unknown-edge")
                continue
            w = int(m.weight)
            if w <= 0:
                skip(m, "invalid")
                continue
            if w == old:
                skip(m, "noop")
                continue
            weights[edge] = w
            applied.append(AppliedMutation(MUT_WEIGHT, edge, w, old))
        else:
            skip(m, "invalid")

    if not applied:
        # Nothing changed: same epoch, same instance object semantics.
        return MutationResult(instance=instance, applied=[],
                              skipped=skipped, path_changed=False)

    new_edges = [(u, v, weights[(u, v)]) for u, v in order]
    successor = RPathsInstance(
        n=n, edges=new_edges, path=list(instance.path),
        weighted=instance.weighted, name=instance.name,
        topology_version=instance.topology_version + 1)
    new_path = successor.shortest_path_to(t, source=s)
    successor.path = new_path
    # Re-deriving P invalidated the prefix cache keyed on the old path.
    successor._path_prefix = None
    if record_telemetry:
        for a in applied:
            DYNAMIC_MUTATIONS.inc(kind=a.kind)
    return MutationResult(
        instance=successor, applied=applied, skipped=skipped,
        path_changed=new_path != list(instance.path))


class MutationStream:
    """Seeded generator of mutation batches against live instances.

    Stateful on purpose: failures it generated are remembered per
    instance name (with their pre-failure weight), so later heals
    re-install exactly what a storm removed.  All randomness flows
    from the constructor seed, so a stream replays bit-identically.
    """

    def __init__(self, seed: int = 0, weight_low: int = 1,
                 weight_high: int = 8) -> None:
        self._rng = random.Random(seed)
        self.weight_low = weight_low
        self.weight_high = weight_high
        #: instance name -> {edge: original weight} failed by us.
        self._failed: Dict[str, Dict[Edge, int]] = {}

    # -- bookkeeping ---------------------------------------------------------

    def note_applied(self, instance_name: str,
                     applied: Sequence[AppliedMutation]) -> None:
        """Record what actually landed (skipped mutations must not
        enter the heal pool)."""
        pool = self._failed.setdefault(instance_name, {})
        for a in applied:
            if a.kind == MUT_FAIL:
                pool[a.edge] = a.old_weight
            elif a.kind == MUT_HEAL:
                pool.pop(a.edge, None)

    def failed_edges(self, instance_name: str) -> List[Edge]:
        return sorted(self._failed.get(instance_name, {}))

    # -- batch shapes --------------------------------------------------------

    def burst(self, instance: RPathsInstance, count: int,
              heal_fraction: float = 0.3) -> List[Mutation]:
        """An uncorrelated mixed batch: failures, heals of our own
        earlier failures, and (weighted instances) weight changes."""
        rng = self._rng
        pool = [(u, v) for u, v, _ in instance.edges]
        healable = self.failed_edges(instance.name)
        out: List[Mutation] = []
        for _ in range(count):
            roll = rng.random()
            if healable and roll < heal_fraction:
                edge = healable.pop(rng.randrange(len(healable)))
                w = self._failed[instance.name].get(edge, 1)
                out.append(Mutation(MUT_HEAL, edge, w))
            elif instance.weighted and roll > 0.7 and pool:
                edge = rng.choice(pool)
                out.append(Mutation(
                    MUT_WEIGHT, edge,
                    rng.randint(self.weight_low, self.weight_high)))
            elif pool:
                out.append(Mutation(MUT_FAIL, rng.choice(pool)))
        return out

    def storm(self, instance: RPathsInstance,
              fraction: float = 0.1) -> List[Mutation]:
        """Fail ``fraction`` of the edges, sampled uniformly."""
        pool = [(u, v) for u, v, _ in instance.edges]
        count = max(1, int(len(pool) * fraction))
        picks = self._rng.sample(pool, min(count, len(pool)))
        return [Mutation(MUT_FAIL, e) for e in picks]

    def regional_storm(self, instance: RPathsInstance,
                       center: Optional[int] = None, radius: int = 2,
                       fraction: float = 0.5) -> List[Mutation]:
        """Correlated failures: ``fraction`` of the edges whose both
        endpoints lie in the BFS ball around ``center``."""
        rng = self._rng
        if center is None:
            center = rng.randrange(instance.n)
        ball: Set[int] = {center}
        frontier = [center]
        adj: Dict[int, Set[int]] = {}
        for u, v, _ in instance.edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        for _ in range(radius):
            frontier = [w for u in frontier
                        for w in adj.get(u, ()) if w not in ball]
            ball.update(frontier)
        regional = [(u, v) for u, v, _ in instance.edges
                    if u in ball and v in ball]
        count = max(1, int(len(regional) * fraction)) if regional else 0
        picks = rng.sample(regional, min(count, len(regional)))
        return [Mutation(MUT_FAIL, e) for e in picks]

    def maintenance_window(self, instance: RPathsInstance, step: int,
                           window: int = 4) -> List[Mutation]:
        """Rolling maintenance: fail the edges incident to window
        ``step``'s vertices, heal the previous window's failures."""
        lo = (step * window) % max(1, instance.n)
        down = set(range(lo, min(lo + window, instance.n)))
        out: List[Mutation] = []
        pool = self._failed.get(instance.name, {})
        for edge in self.failed_edges(instance.name):
            if edge[0] not in down and edge[1] not in down:
                out.append(Mutation(MUT_HEAL, edge,
                                    pool.get(edge, 1)))
        for u, v, _ in instance.edges:
            if u in down or v in down:
                out.append(Mutation(MUT_FAIL, (u, v)))
        return out

    # -- one-call convenience ------------------------------------------------

    def step(self, instance: RPathsInstance, profile: str = "burst",
             **kwargs) -> MutationResult:
        """Generate one batch per ``profile``, apply it, and record
        the applied failures/heals for future heals."""
        if profile == "burst":
            batch = self.burst(instance,
                               kwargs.pop("count", 4), **kwargs)
        elif profile == "storm":
            batch = self.storm(instance, **kwargs)
        elif profile == "regional":
            batch = self.regional_storm(instance, **kwargs)
        elif profile == "maintenance":
            batch = self.maintenance_window(instance, **kwargs)
        else:
            raise ValueError(
                f"unknown mutation profile {profile!r}; expected "
                "burst, storm, regional, or maintenance")
        result = apply_mutations(instance, batch)
        self.note_applied(instance.name, result.applied)
        return result


#: Mutation-stream profiles the CLI / scenarios accept.
PROFILES = ("burst", "storm", "regional", "maintenance")
