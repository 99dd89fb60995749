"""Dynamic graphs: incremental invalidation vs. rebuild-the-world.

Two families measure what the dynamic subsystem buys and costs:

* ``incremental-invalidation`` — a warm catalog of K instances takes a
  10% mutation burst on ONE of them.  The incremental path
  (:meth:`ShardedQueryService.apply_mutations`: epoch bump, one oracle
  rotated out, fallback memo carried forward, one rebuild) races the
  operational status quo it replaces: drop everything and rebuild all
  K oracles from scratch on the post-mutation catalog.  The ISSUE-level
  claim — and the absolute CI floor — is a >= 5x advantage; the ideal
  gap is K (only 1/K of the work is invalidated).
* ``storm-degraded`` — the serve daemon under concurrent mutation
  bursts with an artificially slowed re-warm (``rebuild_delay``), while
  closed-loop clients carry a staleness budget.  The gate is the
  degraded-mode contract: every request is *served* (fresh ``ok`` or
  within-budget ``stale`` — never an error), at least one answer is
  actually stale (the budget did real work), served p95 stays under
  the SLO ceiling during the storm, and the post-quiesce fresh answers
  are bit-identical to from-scratch solves (convergence).

Both families verify answers against the centralized oracle before any
number is reported — a wrong answer exits non-zero regardless of speed.
``incremental-invalidation`` verifies ``_util.interleave``'s warm-up
call per side, then times :data:`PASSES` passes, each side on a fresh
service, rotating which goes first; its speedup is the median ratio.

Gates (declared in :data:`BENCH`, run by the CI ``dynamic-smoke``
step)::

    python benchmarks/bench_dynamic.py --quick \
        --json BENCH_dynamic.json \
        --compare benchmarks/BENCH_dynamic.json

* ``incremental-invalidation`` must hold the absolute >= 5x floor and
  not regress more than the tolerance below its committed ratio (a
  committed baseline of the other mode is not compared);
* ``storm-degraded`` is gated on its absolute contract only (served
  ratio, stale > 0, 75 ms p95 ceiling, convergence) — wall-clock
  ratios of a chaos run are not portable enough to baseline.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from _util import Bench, Check, interleave, main, run_entry, spread

from repro.dynamic import MutationStream, apply_mutations, run_chaos
from repro.graphs.generators import random_instance
from repro.serve import (
    Query,
    ShardedQueryService,
    verify_against_centralized,
)

INCREMENTAL_FAMILY = "incremental-invalidation"
STORM_FAMILY = "storm-degraded"

#: Timed passes of the incremental family, after one warm-up call per
#: side.
PASSES = 5


def _probe(inst) -> Query:
    return Query(s=inst.s, t=inst.t, edge=inst.path_edges()[0],
                 instance=inst.name)


def measure_incremental(quick: bool) -> Dict[str, object]:
    """Delta-scoped re-solve vs. rebuilding every oracle."""
    count = 8
    n = 48 if quick else 72
    instances = [
        random_instance(n, seed=30 + i, name=f"dyn-{n}-{i}")
        for i in range(count)
    ]
    target = instances[0]
    burst = MutationStream(seed=5).storm(target, fraction=0.10)
    current = [apply_mutations(target, burst).instance] + instances[1:]
    probes = [_probe(inst) for inst in current]
    # Capacity holds the whole catalog: LRU eviction churn would
    # charge re-builds to both sides and blur the invalidation scope.
    # Both sides build on the message lanes (fabric="fast"), as when
    # the committed baseline ratio was measured.
    service_of = partial(ShardedQueryService, shards=2, capacity=count,
                         solver="theorem1", fabric="fast", build_seed=0)

    def incremental(_item):
        service = service_of(instances)
        service.serve([_probe(inst) for inst in instances])  # warm all K
        return lambda: (service.apply_mutations(target.name, burst),
                        service.serve(probes).answers, service)

    timing = interleave({
        "incremental": incremental,
        # Status quo: no epochs, no scoping — a cold service rebuilds
        # every oracle against the new topology.
        "rebuild": lambda _item: partial(service_of(current).serve,
                                         probes),
    }, PASSES)
    result, answers, service = timing.outputs["incremental"][0]
    if not result.applied:
        raise AssertionError(
            f"{INCREMENTAL_FAMILY}: the 10% burst applied nothing")
    for side, side_answers in (("post-mutation", answers),
                               ("full-rebuild",
                                timing.outputs["rebuild"][0].answers)):
        if not verify_against_centralized(current, side_answers):
            raise AssertionError(
                f"{INCREMENTAL_FAMILY}: {side} answers contradict the "
                "centralized oracle")
    totals = service.serve([]).totals()
    return {
        "n": n,
        "instances": count,
        "mutations_applied": len(result.applied),
        "epoch": result.epoch,
        "passes": PASSES,
        "incremental_seconds": round(timing.median("incremental"), 4),
        "full_rebuild_seconds": round(timing.median("rebuild"), 4),
        **spread("speedup", timing.ratio("rebuild", "incremental"), 2),
        "invalidations": totals.invalidations,
        "memo_carried": totals.memo_carried,
        "oracle_builds": totals.oracle_builds,
    }


def measure_storm(quick: bool) -> Dict[str, object]:
    """Degraded-mode serving during a mutation storm.

    ``rebuild_delay`` stretches every re-warm so the staleness budget
    is genuinely exercised; no kills or stalls here — this family
    isolates the staleness contract (the chaos CI step owns the
    crash-safety one).
    """
    n = 32
    count = 2 if quick else 3
    duration = 2.0 if quick else 4.0
    instances = [
        random_instance(n, seed=40 + i, name=f"storm-{n}-{i}")
        for i in range(count)
    ]
    report = run_chaos(
        instances, duration=duration, seed=7, workers=2,
        solver="centralized", kills=0, stalls=0,
        mutation_bursts=3, burst_size=4, max_staleness=8,
        rebuild_delay=0.25)

    unexpected = {k: v for k, v in report.outcomes.items()
                  if k not in ("ok", "stale")}
    if unexpected:
        raise AssertionError(
            f"{STORM_FAMILY}: non-served outcomes during the storm: "
            f"{unexpected}")
    if not report.converged:
        raise AssertionError(
            f"{STORM_FAMILY}: did not converge after quiesce: "
            f"{report.mismatches[:5]}")
    return {
        "n": n,
        "instances": count,
        "duration_seconds": round(report.duration, 2),
        "queries": report.queries_sent,
        "ok": report.outcomes.get("ok", 0),
        "stale": report.outcomes.get("stale", 0),
        "p50_ms": round(report.latency_ms.get("p50", 0.0), 4),
        "p95_ms": round(report.latency_ms.get("p95", 0.0), 4),
        "p99_ms": round(report.latency_ms.get("p99", 0.0), 4),
        "mutations_applied": report.mutations_applied,
        "max_epoch": max(report.epochs.values(), default=0),
        "verified": report.verified,
        "converged": report.converged,
    }


def measure_all(quick: bool) -> Dict[str, dict]:
    return {
        INCREMENTAL_FAMILY: measure_incremental(quick),
        STORM_FAMILY: measure_storm(quick),
    }


BENCH = Bench(
    name="dynamic",
    measure=measure_all,
    title="dynamic graphs — incremental invalidation and degraded-mode "
          "serving under storms",
    columns=("n", "instances", "mutations_applied", "speedup", "stale",
             "p95_ms", "memo_carried", "converged"),
    checks=(
        Check("floor", (INCREMENTAL_FAMILY,), "speedup", 5.0),
        Check("higher", (INCREMENTAL_FAMILY,), "speedup"),
        # The staleness budget did real work: at least one stale answer.
        Check("floor", (STORM_FAMILY,), "stale", 1),
        Check("ceiling", (STORM_FAMILY,), "p95_ms", 75.0),
        Check("true", (STORM_FAMILY,), "converged"),
    ),
    stamp_mode=True,
)


def bench_dynamic_tier(benchmark):
    """Quick-mode dynamic families (see module doc)."""
    run_entry(benchmark, BENCH)


if __name__ == "__main__":
    raise SystemExit(main(BENCH))
