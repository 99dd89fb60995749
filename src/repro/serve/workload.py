"""Seedable query-workload generators + their suite scenarios.

Four traffic shapes, each a pure function of ``(instance, count,
seed)`` so workloads replay bit-identically across runs, engines, and
worker processes:

``uniform``
    Read-heavy: the instance's own (s, t) pair with the failed edge
    uniform over *all* graph edges — every query is an O(1) oracle hit
    (path-edge table or the off-path |P| identity).  The regime behind
    the bench's ≥ 20x queries/sec claim.
``zipf``
    Skewed solve traffic: sources drawn Zipf(alpha) over a seeded
    vertex permutation (a few hot sources dominate), targets uniform,
    failed edges uniform over P.  Rewards the planner's per-edge
    grouping and the oracle's (source, edge) memo.
``adversarial``
    Cache-adversarial failed-edge schedule: consecutive queries cycle
    through P's edges and never repeat a (source, edge) pair until the
    whole product is exhausted — the memo never helps inside a wave,
    only the k-source batching does.
``mixed``
    ``read_fraction`` of uniform reads interleaved (seeded shuffle)
    with zipf solves — the "millions of users" shape: most traffic
    hits precomputed state, a tail forces fresh solves.

Each shape is also registered as a runtime scenario (``serve-*``), so
``repro suite run --scenario serve-zipf`` executes a full
generate → shard → batch-plan → verify-against-centralized cycle with
the usual caching/diffing; the scenarios double as end-to-end
integration tests of the serving tier.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple

from ..congest.network import DEFAULT_FABRIC
from ..congest.words import INF
from ..graphs.instance import RPathsInstance
from ..runtime.registry import scenario
from .queries import Query

Params = Dict[str, object]


def _rng(seed: int) -> random.Random:
    return random.Random(seed)


def _edge_pool(instance: RPathsInstance) -> List[Tuple[int, int]]:
    return [(u, v) for u, v, _ in instance.edges]


def uniform_workload(instance: RPathsInstance, count: int,
                     seed: int = 0) -> List[Query]:
    """Oracle-hit reads: own (s, t), failed edge uniform over E."""
    rng = _rng(seed)
    pool = _edge_pool(instance)
    key = instance.name
    return [
        Query(s=instance.s, t=instance.t, edge=rng.choice(pool),
              instance=key)
        for _ in range(count)
    ]


def zipf_sources(instance: RPathsInstance, count: int,
                 rng: random.Random, alpha: float = 1.2) -> List[int]:
    """``count`` sources, Zipf(alpha)-skewed over a seeded permutation.

    Pure-stdlib sampling: rank r (0-based) gets weight 1/(r+1)^alpha;
    the permutation decides *which* vertices are hot, so different
    seeds skew toward different sources.
    """
    order = list(range(instance.n))
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) ** alpha for rank in range(instance.n)]
    return rng.choices(order, weights=weights, k=count)


def zipf_workload(instance: RPathsInstance, count: int, seed: int = 0,
                  alpha: float = 1.2) -> List[Query]:
    """Skewed solve traffic: zipf sources x uniform targets x P edges."""
    rng = _rng(seed)
    path_edges = instance.path_edges()
    key = instance.name
    sources = zipf_sources(instance, count, rng, alpha=alpha)
    return [
        Query(s=s, t=rng.randrange(instance.n),
              edge=rng.choice(path_edges), instance=key)
        for s in sources
    ]


def adversarial_workload(instance: RPathsInstance, count: int,
                         seed: int = 0) -> List[Query]:
    """Memo-defeating schedule: no (source, edge) pair repeats until
    all |V'| x h_st combinations are exhausted, and consecutive
    queries always change the failed edge."""
    rng = _rng(seed)
    path_edges = instance.path_edges()
    h = len(path_edges)
    # Sources exclude the instance source so no query collapses into
    # an O(1) oracle hit.
    sources = [v for v in range(instance.n) if v != instance.s]
    rng.shuffle(sources)
    key = instance.name
    out: List[Query] = []
    for i in range(count):
        edge = path_edges[i % h]
        s = sources[(i // h) % len(sources)]
        out.append(Query(s=s, t=rng.randrange(instance.n), edge=edge,
                         instance=key))
    return out


def mixed_workload(instance: RPathsInstance, count: int, seed: int = 0,
                   read_fraction: float = 0.8,
                   alpha: float = 1.2) -> List[Query]:
    """Seeded interleave of uniform reads and zipf solves."""
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    rng = _rng(seed)
    reads = int(round(count * read_fraction))
    mix = (uniform_workload(instance, reads, seed=rng.randrange(2**30))
           + zipf_workload(instance, count - reads,
                           seed=rng.randrange(2**30), alpha=alpha))
    rng.shuffle(mix)
    return mix


#: kind -> generator(instance, count, seed, **kw)
WORKLOADS: Dict[str, Callable[..., List[Query]]] = {
    "uniform": uniform_workload,
    "zipf": zipf_workload,
    "adversarial": adversarial_workload,
    "mixed": mixed_workload,
}


def generate_workload(kind: str, instance: RPathsInstance, count: int,
                      seed: int = 0, **kwargs) -> List[Query]:
    try:
        gen = WORKLOADS[kind]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise ValueError(
            f"unknown workload {kind!r}; expected one of {known}"
        ) from None
    return gen(instance, count, seed=seed, **kwargs)


# -- suite scenarios ----------------------------------------------------------

def _serve_instances(n: int, seed: int) -> List[RPathsInstance]:
    """Two instances per cell so routing/sharding is exercised."""
    from ..graphs.generators import expander_instance, random_instance
    return [
        random_instance(n, seed=seed),
        expander_instance(max(8, n // 2), degree=3, seed=seed + 1),
    ]


def verify_against_centralized(instances: Sequence[RPathsInstance],
                               answers) -> bool:
    """Every answer vs. centralized ground truth (memoized SSSPs).

    Shared by the scenarios, the CLI's ``--check``, and the bench's
    correctness gate — one definition of "the serving tier is right".
    """
    by_key = {inst.name: inst for inst in instances}
    dist_cache: Dict[Tuple[str, int, Tuple[int, int]], List[int]] = {}
    for answer in answers:
        q = answer.query
        inst = by_key[q.instance]
        cache_key = (q.instance, q.s, q.edge)
        dist = dist_cache.get(cache_key)
        if dist is None:
            dist = inst.dijkstra(q.s, avoid_edges=frozenset([q.edge]))
            dist_cache[cache_key] = dist
        want = INF if dist[q.t] >= INF else dist[q.t]
        if answer.length != want:
            return False
    return True


def _run_serve_cell(kind: str, params: Params, seed: int,
                    **workload_kwargs) -> Dict[str, object]:
    from .shard import ShardedQueryService

    n = int(params["n"])
    count = int(params["queries"])
    instances = _serve_instances(n, seed)
    service = ShardedQueryService(
        instances, shards=2, capacity=2, store=None,
        solver="theorem1",
        fabric=str(params.get("fabric", DEFAULT_FABRIC)),
        build_seed=seed)
    # Interleave the instances' streams and serve in waves, so the
    # second wave exercises warm oracles and the (s, e) memo.
    streams = [
        generate_workload(kind, inst, count // len(instances),
                          seed=seed + i, **workload_kwargs)
        for i, inst in enumerate(instances)
    ]
    queries: List[Query] = [q for pair in zip(*streams) for q in pair]
    waves = [queries[i::3] for i in range(3)]
    answers = []
    for wave in waves:
        answers.extend(service.serve(wave).answers)
    report = service.serve([])  # stats snapshot, no extra queries
    totals = report.totals()
    correct = verify_against_centralized(instances, answers)
    inst = instances[0]
    metrics: Dict[str, object] = {
        "n": inst.n,
        "m": inst.m,
        "hop_count": inst.hop_count,
        "rounds": totals.rounds,
        "messages": 0,
        "words": 0,
        "max_link_words": 0,
        "violations": 0,
        "queries": len(answers),
        "hit_ratio": round(
            sum(1 for a in answers if a.is_hit) / max(1, len(answers)),
            4),
        "oracle_builds": totals.oracle_builds,
        "batch_solves": totals.batch_solves,
        "solves_saved": totals.solves_saved,
        "correct": bool(correct and len(answers) == len(queries)),
    }
    return metrics


@scenario(
    "serve-uniform",
    params=[{"n": 48, "queries": 240}],
    seeds=[0, 1],
    smoke_params=[{"n": 24, "queries": 60}],
    description="Serving tier, read-only traffic: every query an O(1) "
                "oracle hit, verified against centralized truth",
    tags=("serve", "workload"),
)
def run_serve_uniform(params: Params, seed: int):
    return _run_serve_cell("uniform", params, seed)


@scenario(
    "serve-zipf",
    params=[{"n": 48, "queries": 240, "alpha": 1.2}],
    seeds=[0, 1],
    smoke_params=[{"n": 24, "queries": 60, "alpha": 1.2}],
    description="Serving tier, zipf-skewed solve traffic: hot sources "
                "reward batching and the (s, e) memo",
    tags=("serve", "workload"),
)
def run_serve_zipf(params: Params, seed: int):
    return _run_serve_cell("zipf", params, seed,
                           alpha=float(params.get("alpha", 1.2)))


@scenario(
    "serve-adversarial",
    params=[{"n": 40, "queries": 160}],
    seeds=[0, 1],
    smoke_params=[{"n": 20, "queries": 48}],
    description="Serving tier, memo-defeating failed-edge schedule: "
                "only k-source batching amortizes anything",
    tags=("serve", "workload"),
)
def run_serve_adversarial(params: Params, seed: int):
    return _run_serve_cell("adversarial", params, seed)


@scenario(
    "serve-mixed",
    params=[{"n": 48, "queries": 240, "read_fraction": 0.8}],
    seeds=[0, 1],
    smoke_params=[{"n": 24, "queries": 60, "read_fraction": 0.8}],
    description="Serving tier, mixed read/solve traffic at the given "
                "read fraction",
    tags=("serve", "workload"),
)
def run_serve_mixed(params: Params, seed: int):
    return _run_serve_cell(
        "mixed", params, seed,
        read_fraction=float(params.get("read_fraction", 0.8)))
