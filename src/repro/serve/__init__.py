"""repro.serve — the replacement-path query-serving tier.

One CONGEST solve answers *many* queries; this package keeps the
precomputed answers hot and amortizes everything else:

* :mod:`~repro.serve.queries` — ``Query``/``QueryAnswer`` records and
  the per-answer cost-class taxonomy.
* :mod:`~repro.serve.oracle` — ``ReplacementPathOracle``: one
  ``solve_rpaths`` run becomes an O(1) lookup table for every (s, t,
  failed-edge) query on the given pair, with memoized centralized
  fallbacks for arbitrary pairs, and JSON-safe snapshots.
* :mod:`~repro.serve.planner` — ``BatchPlanner``: groups a query batch
  by failed edge and spends one k-source vector-fabric solve per
  group instead of one solve per query.
* :mod:`~repro.serve.shard` — ``route_instances``, the one routing
  rule (stable-hash instance sharding) of the library service and the
  daemon; ``ShardedQueryService``: per-shard hot-oracle LRU and
  persistent spill into the content-addressed result store, answered
  in-process.
* :mod:`~repro.serve.workload` — seedable uniform / zipf /
  adversarial / mixed query-stream generators, registered as
  ``serve-*`` suite scenarios.
* :mod:`~repro.serve.daemon` — ``ServeDaemon``: long-lived worker
  processes that own their shards (warm-once oracles built from the
  shipped edges, heartbeat health, bounded restart with re-warm).
* :mod:`~repro.serve.frontend` — ``ServeFrontend``: admission that
  routes on submit, with per-shard in-flight caps, a bounded
  per-shard backlog (reject-with-``overloaded`` backpressure),
  per-request deadlines, and per-request
  staleness budgets (degraded-mode ``stale`` answers while an
  invalidated oracle re-warms).
* :mod:`~repro.serve.client` — ``query_with_retry``: bounded
  exponential-backoff retries on transient ``overloaded`` /
  ``worker-lost`` outcomes (the chaos harness's client).
* :mod:`~repro.serve.loadgen` — open/closed-loop load generation with
  p50/p95/p99 latency reporting for the SLO gates.

See DESIGN.md's "Serving layer" and "Serve daemon" sections for the
full cost model and lifecycle.
"""

from .client import query_with_retry
from .daemon import ServeDaemon, WorkerConfig
from .frontend import (
    DEFAULT_TIMEOUT,
    PendingQuery,
    ServeFrontend,
    ServeResult,
)
from .loadgen import (
    LoadReport,
    latency_summary_ms,
    percentile,
    run_load,
)
from .oracle import ReplacementPathOracle, centralized_truth
from .planner import BatchPlanner, PlanReport
from .queries import (
    BATCHED_SOLVE,
    FALLBACK_CACHED,
    FALLBACK_SOLVE,
    HIT_OFF_PATH,
    HIT_PATH_EDGE,
    Query,
    QueryAnswer,
    hit_ratio,
    kind_counts,
)
from .shard import (
    OracleShard,
    ServiceReport,
    ShardedQueryService,
    ShardStats,
    shard_of,
    spill_key,
)
from .workload import (
    WORKLOADS,
    generate_workload,
    verify_against_centralized,
)

__all__ = [
    "BATCHED_SOLVE",
    "BatchPlanner",
    "DEFAULT_TIMEOUT",
    "FALLBACK_CACHED",
    "FALLBACK_SOLVE",
    "HIT_OFF_PATH",
    "HIT_PATH_EDGE",
    "LoadReport",
    "OracleShard",
    "PendingQuery",
    "PlanReport",
    "Query",
    "QueryAnswer",
    "ReplacementPathOracle",
    "ServeDaemon",
    "ServeFrontend",
    "ServeResult",
    "ServiceReport",
    "ShardStats",
    "ShardedQueryService",
    "WORKLOADS",
    "WorkerConfig",
    "centralized_truth",
    "generate_workload",
    "verify_against_centralized",
    "hit_ratio",
    "kind_counts",
    "latency_summary_ms",
    "percentile",
    "query_with_retry",
    "run_load",
    "shard_of",
    "spill_key",
]
