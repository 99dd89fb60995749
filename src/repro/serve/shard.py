"""Sharded serving engine: instances → shards, shards → processes.

:func:`route_instances` partitions a catalog of instances across
shards by a *stable* key hash (SHA-256 of the instance name —
``hash()`` is per-process salted and would scatter assignments across
workers); the library service and the daemon both route with it.  Each
shard owns:

* an **LRU of hot oracles** (``capacity`` planners, each wrapping a
  built :class:`~repro.serve.oracle.ReplacementPathOracle` and its
  fabric network), and
* a **persistent spill tier**: every freshly built oracle's snapshot is
  written into the content-addressed
  :class:`~repro.runtime.store.ResultStore` under
  ``sha256(serve-oracle, instance key, solver, code version)`` — so an
  eviction costs nothing (the snapshot is immutable and already on
  disk), a later miss restores the table without re-solving, and the
  spill survives the process.  Restores are validated against the
  instance (wrong path/size ⇒ rebuild) and invalidated automatically
  when the code version changes, exactly like suite cells.

Serving is batch-first: :meth:`ShardedQueryService.serve` routes a
query stream to shards and answers each shard's slice through its
:class:`~repro.serve.planner.BatchPlanner`.  Process-parallel serving
is the daemon's job (:mod:`repro.serve.daemon`): long-lived workers
that each own one :class:`OracleShard`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from .. import telemetry
from ..congest.network import DEFAULT_FABRIC
from ..dynamic.stream import (
    AppliedMutation,
    Mutation,
    MutationResult,
    apply_mutations,
)
from ..graphs.instance import RPathsInstance
from ..runtime.executor import default_jobs
from ..runtime.results import CellResult, CellSpec
from ..runtime.store import ResultStore, cell_key
from ..telemetry import counters as _counters
from ..telemetry.schema import (
    SERVE_HOT_ORACLES,
    SERVE_INFLIGHT,
    SERVE_SHARD_TOTAL,
    exposition,
)
from .oracle import ReplacementPathOracle, carry_fallback_memo
from .planner import BatchPlanner
from .queries import Query, QueryAnswer, hit_ratio

#: Pseudo-scenario name spilled oracle snapshots are keyed under.
SPILL_SCENARIO = "serve-oracle"


def shard_of(key: str, shards: int) -> int:
    """Stable shard assignment (identical in every process)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class _Routes(dict):
    """Instance name -> shard id; looking up a name the catalog does
    not hold raises the serve tier's one ``unknown instance`` error."""

    def __missing__(self, key: str) -> int:
        raise KeyError(f"unknown instance {key!r}; "
                       f"served: {', '.join(sorted(self))}")


def route_instances(instances: Sequence[RPathsInstance],
                    shards: Optional[int] = None,
                    ) -> Tuple[Dict[str, int], List[List[RPathsInstance]]]:
    """Place a catalog on ``shards`` shards by :func:`shard_of`.

    ``shards`` defaults to ``min(default_jobs(), len(instances))``.
    Returns the name -> shard map, whose lookup of a name it does not
    hold raises ``KeyError("unknown instance ...; served: ...")``, and
    each shard's instances in catalog order.  An empty catalog, a shard
    count below 1, an unnamed instance or a repeated name raise
    ValueError.
    """
    instances = list(instances)
    if not instances:
        raise ValueError("serving needs at least one instance")
    if shards is None:
        shards = min(default_jobs(), len(instances))
    if shards < 1:
        raise ValueError("shard count must be positive")
    routes = _Routes()
    placed: List[List[RPathsInstance]] = [[] for _ in range(shards)]
    for inst in instances:
        if not inst.name:
            raise ValueError("every served instance needs a name")
        if inst.name in routes:
            raise ValueError(f"duplicate instance name {inst.name!r}")
        sid = routes[inst.name] = shard_of(inst.name, shards)
        placed[sid].append(inst)
    return routes, placed


def spill_key(instance_key: str, solver: str,
              topology_version: int = 0) -> str:
    """Content address of one oracle snapshot.

    Keyed by (instance, solver, topology version, code version): a
    mutation bumps the epoch, so a pre-mutation snapshot sits under a
    different key and can never resurrect into the new epoch.  Old
    epochs' spills stay on disk until ``repro store gc`` prunes them.
    """
    params: Dict[str, object] = {"instance": instance_key,
                                 "solver": solver}
    if topology_version:
        # Epoch 0 omits the param so pre-dynamic spills stay valid.
        params["topology_version"] = topology_version
    return cell_key(CellSpec.make(SPILL_SCENARIO, params, 0))


@dataclass
class ShardStats:
    """One shard's serving counters: the only store of each count.

    The process registry cannot hold them, because it lives as long as
    its process, and one suite pool worker runs many cells; a scrape
    reads each shard's row (:func:`shard_exposition`).
    """

    shard_id: int = 0
    queries: int = 0
    oracle_builds: int = 0
    lru_hits: int = 0
    evictions: int = 0
    spill_saves: int = 0
    spill_loads: int = 0
    batch_solves: int = 0
    solves_saved: int = 0
    rounds: int = 0
    invalidations: int = 0
    stale_answers: int = 0
    memo_carried: int = 0
    #: Background re-warms after an invalidation that raised (the
    #: next fresh-demanding batch retries the build inline).
    rebuild_failures: int = 0

    def as_metrics(self) -> Dict[str, int]:
        """Every counter field (all but ``shard_id``)."""
        return {name: getattr(self, name) for name in stat_names()}

    @classmethod
    def total(cls, rows: Iterable[Mapping[str, object]]) -> "ShardStats":
        """Each counter summed over ``rows``: :meth:`as_metrics` dicts
        or per-shard stats rows, whose other keys are ignored."""
        rows = list(rows)
        return cls(shard_id=-1, **{
            name: sum(int(row.get(name, 0)) for row in rows)
            for name in stat_names()})


def stat_names() -> Tuple[str, ...]:
    """The ``stat`` label values of :data:`~repro.telemetry.schema.
    SERVE_SHARD_TOTAL`: every :class:`ShardStats` counter."""
    return tuple(f.name for f in fields(ShardStats)[1:])


def shard_exposition(rows: Sequence[Mapping[str, object]]) -> str:
    """Prometheus text of the registry plus one row per shard.

    Each row (``shard_id`` plus any of :func:`stat_names`,
    ``hot_oracles`` and ``inflight``) renders its counts as
    ``SERVE_SHARD_TOTAL`` counters and its levels as gauges, on a copy
    of the registry: the rows stay the only store of their facts.
    """
    scrape = _counters.registry.copy()
    for row in rows:
        shard = str(row["shard_id"])
        for stat in stat_names():
            if stat in row:
                scrape.inc(SERVE_SHARD_TOTAL.name, row[stat],
                           shard=shard, stat=stat)
        for metric, level in ((SERVE_HOT_ORACLES, "hot_oracles"),
                              (SERVE_INFLIGHT, "inflight")):
            if level in row:
                scrape.set_gauge(metric.name, row[level], shard=shard)
    return exposition(scrape)


def _scatter(answers: List[Optional[QueryAnswer]],
             indices: Sequence[int], batch: Sequence[QueryAnswer],
             source: str) -> None:
    """Place ``batch`` at ``indices``; a short or long batch raises
    instead of shifting answers onto the wrong queries."""
    if len(batch) != len(indices):
        raise RuntimeError(f"{source} returned {len(batch)} answers "
                           f"for {len(indices)} queries")
    for i, answer in zip(indices, batch):
        answers[i] = answer


class OracleShard:
    """One shard: its instances, hot-oracle LRU, and spill store;
    ``fabric`` builds its oracles and runs its planners' solves."""

    def __init__(self, shard_id: int = 0, capacity: int = 4,
                 store: Optional[ResultStore] = None,
                 solver: str = "theorem1", fabric: str = DEFAULT_FABRIC,
                 build_seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("shard LRU capacity must be positive")
        self.shard_id = shard_id
        self.capacity = capacity
        self.store = store
        self.solver = solver
        self.fabric = fabric
        self.build_seed = build_seed
        self.instances: Dict[str, RPathsInstance] = {}
        self._planners: "OrderedDict[str, BatchPlanner]" = OrderedDict()
        #: key -> (epoch, planner) rotated out by :meth:`invalidate`;
        #: serves degraded-mode answers until the fresh oracle exists.
        self._previous: Dict[str, Tuple[int, BatchPlanner]] = {}
        #: key -> mutations applied since the previous-epoch oracle was
        #: built (possibly several batches) — the memo-carry input.
        self._pending_carry: Dict[str, List[AppliedMutation]] = {}
        #: Guards the dicts above and :attr:`stats`: the daemon
        #: worker's background rebuild thread races its serving loop.
        #: Oracle builds run *outside* the lock so stale serving is
        #: never blocked.
        self._lock = threading.Lock()
        self.stats = ShardStats(shard_id=shard_id)

    def _count(self, **deltas: int) -> None:
        """Add ``deltas`` to :attr:`stats` under the lock."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    # -- catalog -------------------------------------------------------------

    def add_instance(self, instance: RPathsInstance,
                     key: Optional[str] = None) -> str:
        key = key or instance.name
        if not key:
            raise ValueError("instance needs a non-empty key/name")
        if key in self.instances:
            raise ValueError(f"duplicate instance key {key!r}")
        self.instances[key] = instance
        return key

    # -- oracle lifecycle ----------------------------------------------------

    def _load_spilled(self, key: str,
                      instance: RPathsInstance,
                      ) -> Optional[ReplacementPathOracle]:
        if self.store is None:
            return None
        cached = self.store.get(spill_key(
            key, self.solver, instance.topology_version))
        if cached is None:
            return None
        oracle = ReplacementPathOracle.from_snapshot(
            instance, cached.metrics)
        if oracle is not None:
            self._count(spill_loads=1)
        return oracle

    def _spill(self, key: str, oracle: ReplacementPathOracle) -> None:
        if self.store is None:
            return
        version = oracle.instance.topology_version
        params: Dict[str, object] = {"instance": key,
                                     "solver": self.solver}
        if version:
            params["topology_version"] = version
        result = CellResult(
            scenario=SPILL_SCENARIO,
            params=params,
            seed=0,
            key=spill_key(key, self.solver, version),
            metrics=oracle.snapshot(),
        )
        self.store.put(result)
        self._count(spill_saves=1)

    def planner_for(self, key: str) -> BatchPlanner:
        """The hot planner for ``key`` (LRU → spill → build).

        A build after :meth:`invalidate` additionally carries the
        previous epoch's fallback memo: rows the applied mutations
        provably did not affect are seeded into the fresh oracle, and
        the previous-epoch planner is then retired.
        """
        while True:
            with self._lock:
                planner = self._planners.get(key)
                if planner is not None:
                    self._planners.move_to_end(key)
                    self.stats.lru_hits += 1
                    return planner
                try:
                    instance = self.instances[key]
                except KeyError:
                    known = (", ".join(sorted(self.instances))
                             or "<none>")
                    raise KeyError(
                        f"shard {self.shard_id} does not hold "
                        f"{key!r}; instances: {known}") from None
            # Build (or restore) outside the lock: degraded-mode reads
            # of the previous-epoch planner must not wait on a solve.
            oracle = self._load_spilled(key, instance)
            if oracle is None:
                oracle = ReplacementPathOracle.build(
                    instance, solver=self.solver,
                    seed=self.build_seed, fabric=self.fabric)
                self._count(oracle_builds=1, rounds=oracle.build_rounds)
                # Spill at build time: the snapshot is immutable, so
                # the later eviction is free and crash-safe.
                self._spill(key, oracle)
            planner = BatchPlanner(oracle, fabric=self.fabric)
            with self._lock:
                if self.instances.get(key) is not instance:
                    continue  # superseded mid-build: solve the newer
                raced = self._planners.get(key)
                if raced is not None:
                    # Another thread built it first; keep theirs.
                    return raced
                previous = self._previous.pop(key, None)
                carry = self._pending_carry.pop(key, None)
                if previous is not None and carry is not None:
                    kept, _dropped = carry_fallback_memo(
                        previous[1].oracle, oracle, carry)
                    self.stats.memo_carried += kept
                self._planners[key] = planner
                while len(self._planners) > self.capacity:
                    self._planners.popitem(last=False)
                    self.stats.evictions += 1
            return planner

    # -- dynamic topology ----------------------------------------------------

    def invalidate(self, key: str, new_instance: RPathsInstance,
                   applied: Sequence[AppliedMutation]) -> None:
        """Install a new-epoch instance, rotating the hot oracle out.

        Only this instance is touched: the hot planner (if any) moves
        to the previous-epoch slot for degraded-mode serving, the
        applied mutations accumulate for the memo carry, and the next
        :meth:`planner_for` miss rebuilds against the new topology.
        Other instances' oracles are untouched — that asymmetry is the
        whole point of incremental invalidation.
        """
        if key not in self.instances:
            raise KeyError(f"shard {self.shard_id} does not hold "
                           f"{key!r}")
        if not applied:
            return
        with self._lock:
            old_instance = self.instances[key]
            self.instances[key] = new_instance
            hot = self._planners.pop(key, None)
            if hot is not None:
                self._previous[key] = (
                    old_instance.topology_version, hot)
                self._pending_carry[key] = list(applied)
            elif key in self._previous:
                # Already degraded: keep the older previous planner,
                # extend the carry chain so its memo check spans every
                # mutation since that epoch.
                self._pending_carry.setdefault(key, []).extend(applied)
            self.stats.invalidations += 1

    def current_epoch(self, key: str) -> int:
        return self.instances[key].topology_version

    def has_hot(self, key: str) -> bool:
        with self._lock:
            return key in self._planners

    def previous_for(self, key: str,
                     ) -> Optional[Tuple[int, BatchPlanner]]:
        """The rotated-out (epoch, planner) pair, if still serving."""
        with self._lock:
            return self._previous.get(key)

    def answer_stale(self, queries: Sequence[Query],
                     ) -> Optional[Tuple[List[QueryAnswer], List[int]]]:
        """Answer from previous-epoch planners (degraded mode).

        Returns ``(answers, lags)`` with one epoch-lag entry per
        answer, or None when any queried instance has no
        previous-epoch planner to fall back to.  Never builds.
        """
        groups: "OrderedDict[str, List[int]]" = OrderedDict()
        for idx, q in enumerate(queries):
            groups.setdefault(q.instance, []).append(idx)
        plan: Dict[str, Tuple[int, BatchPlanner]] = {}
        for key in groups:
            prev = self.previous_for(key)
            if prev is None:
                return None
            plan[key] = prev
        answers: List[Optional[QueryAnswer]] = [None] * len(queries)
        lags: List[int] = [0] * len(queries)
        for key, indices in groups.items():
            epoch, planner = plan[key]
            lag = self.current_epoch(key) - epoch
            batch, _report = planner.answer_batch(
                [queries[i] for i in indices])
            _scatter(answers, indices, batch,
                     f"previous-epoch planner for {key!r}")
            for i in indices:
                lags[i] = lag
        self._count(stale_answers=len(queries), queries=len(queries))
        return answers, lags

    def oracle_for(self, key: str) -> ReplacementPathOracle:
        return self.planner_for(key).oracle

    def warm(self) -> None:
        """Build (or spill-load) the shard's oracles up front.

        With a spill store, every instance is warmed: builds beyond
        the LRU capacity still land their snapshot on disk, so later
        misses restore instead of re-solving.  Without one, only the
        first ``capacity`` keys are built — warming more would run
        full solves whose results the LRU immediately discards.
        """
        keys = sorted(self.instances)
        if self.store is None:
            keys = keys[:self.capacity]
        for key in keys:
            self.planner_for(key)

    # -- serving -------------------------------------------------------------

    def answer_batch(self, queries: Sequence[Query]) -> List[QueryAnswer]:
        """Answer this shard's slice, batch-planned per instance."""
        by_key: "OrderedDict[str, List[int]]" = OrderedDict()
        for idx, q in enumerate(queries):
            by_key.setdefault(q.instance, []).append(idx)
        answers: List[Optional[QueryAnswer]] = [None] * len(queries)
        solves = saved = rounds = 0
        with telemetry.span("serve/answer-batch", shard=self.shard_id,
                            queries=len(queries),
                            instances=len(by_key)):
            for key, indices in by_key.items():
                planner = self.planner_for(key)
                batch, report = planner.answer_batch(
                    [queries[i] for i in indices])
                _scatter(answers, indices, batch, f"planner for {key!r}")
                solves += report.batch_solves
                saved += report.solves_saved
                rounds += report.rounds
        self._count(batch_solves=solves, solves_saved=saved,
                    rounds=rounds, queries=len(queries))
        return answers


@dataclass
class ServiceReport:
    """Aggregate outcome of one serve invocation; the shard stats are
    the shards' *lifetime* counters (shards are long-lived, like real
    serving processes)."""

    answers: List[QueryAnswer]
    shard_stats: List[ShardStats] = field(default_factory=list)

    @property
    def queries(self) -> int:
        return len(self.answers)

    @property
    def hit_ratio(self) -> float:
        return hit_ratio(self.answers)

    def totals(self) -> ShardStats:
        return ShardStats.total(s.as_metrics() for s in self.shard_stats)

    def as_metrics(self) -> Dict[str, object]:
        out: Dict[str, object] = dict(self.totals().as_metrics())
        out["hit_ratio"] = round(self.hit_ratio, 4)
        out["shards"] = len(self.shard_stats)
        return out


class ShardedQueryService:
    """Route replacement-path queries across oracle shards."""

    def __init__(self, instances: Sequence[RPathsInstance],
                 shards: Optional[int] = None, capacity: int = 4,
                 store: Optional[ResultStore] = None,
                 solver: str = "theorem1", fabric: str = DEFAULT_FABRIC,
                 build_seed: int = 0) -> None:
        self._route, placed = route_instances(instances, shards)
        self.store = store
        self._shards: List[OracleShard] = []
        for sid, insts in enumerate(placed):
            shard = OracleShard(shard_id=sid, capacity=capacity,
                                store=store, solver=solver,
                                fabric=fabric, build_seed=build_seed)
            for inst in insts:
                shard.add_instance(inst)
            self._shards.append(shard)

    @property
    def shards(self) -> int:
        return len(self._shards)

    def warm(self) -> None:
        """Pre-build every shard's oracles (steady-state serving)."""
        for shard in self._shards:
            shard.warm()

    @property
    def instance_keys(self) -> List[str]:
        return sorted(self._route)

    def shard_for(self, instance_key: str) -> OracleShard:
        return self._shards[self._route[instance_key]]

    def query(self, instance_key: str, s: int, t: int,
              edge: Tuple[int, int]) -> QueryAnswer:
        """One-off query (still batch-planned, batch of one)."""
        with telemetry.span("serve/query", instance=instance_key):
            [answer] = self.shard_for(instance_key).answer_batch(
                [Query(s=s, t=t, edge=edge, instance=instance_key)])
        return answer

    # -- dynamic topology ----------------------------------------------------

    def apply_mutations(self, instance_key: str,
                        mutations: Sequence[Mutation]) -> MutationResult:
        """Mutate one live instance and invalidate incrementally.

        Applies the batch (epoch bump, P re-derived), then rotates
        only the owning shard's oracle for this instance — every
        other oracle in the service keeps serving untouched.
        """
        shard = self.shard_for(instance_key)
        result = apply_mutations(shard.instances[instance_key],
                                 mutations)
        if result.applied:
            shard.invalidate(instance_key, result.instance,
                             result.applied)
        return result

    # -- observability -------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """JSON-safe service snapshot: shards, totals, and counters.

        The ``counters`` section is the process metrics registry
        (oracle answers, kernel dispatch, store lookups …), so one
        snapshot answers both "what did the service do" and "how did
        the layers below behave while doing it".
        """
        rows = [{"shard_id": shard.shard_id,
                 "instances": len(shard.instances),
                 "hot_oracles": len(shard._planners),
                 **shard.stats.as_metrics()}
                for shard in self._shards]
        return {
            "shards": rows,
            "totals": ShardStats.total(rows).as_metrics(),
            "counters": _counters.snapshot_counters(),
        }

    def exposition(self) -> str:
        """Prometheus text exposition: registry + per-shard stats."""
        return shard_exposition(self.stats()["shards"])

    def _partition(self, queries: Sequence[Query],
                   ) -> Dict[int, List[int]]:
        parts: Dict[int, List[int]] = {}
        for idx, q in enumerate(queries):
            parts.setdefault(self._route[q.instance], []).append(idx)
        return parts

    def serve(self, queries: Sequence[Query]) -> ServiceReport:
        """Answer a query stream in-process, shard by shard."""
        answers: List[Optional[QueryAnswer]] = [None] * len(queries)
        for sid, indices in sorted(self._partition(queries).items()):
            batch = self._shards[sid].answer_batch(
                [queries[i] for i in indices])
            _scatter(answers, indices, batch, f"shard {sid}")
        return ServiceReport(answers=answers,
                             shard_stats=[s.stats for s in self._shards])
