"""End-to-end solver throughput: ``solve_rpaths`` across the fabrics.

PR 3's kernel bench (``bench_fabric.py``) measures the covered
*primitives*; this bench measures what users actually pay: one full
Theorem 1 execution — spanning tree, Lemma 2.5 knowledge, Prop 4.1
short detours, Prop 5.1 long detours — per fabric, plus the serving
tier's oracle-build funnel (``ShardedQueryService.warm``, one
``solve_rpaths`` per instance).  With every solver round loop now
running as an array kernel, ``fabric="vector"`` executes the whole
solve without per-message Python; the measured end-to-end speedups are
the Amdahl complement of PR 3's per-primitive numbers.

Families (all n ≥ 2048 except the 3-way reference family, which the
pre-fabric engine could not finish at that size in CI time):

* ``solve-expander-2048`` — the gate family: a short-path expander,
  where the landmark phases carry the solve;
* ``solve-power-law-2048`` — hub-concentrated congestion;
* ``solve-hard-instance`` — the Section 6.3 lower-bound construction
  (n = 2286, h_st = 64): long-path phases (chain flood, DP pipeline,
  segment sweeps) carry real weight;
* ``solve-expander-256-3way`` — reference vs fast vs vector on one
  instance the reference engine can finish, keeping the historical
  baseline in the picture.

The big families pass ``landmark_c = 0.5``: at the default c = 2 the
|L|² pair broadcast alone floods ~75M message-hops at n = 2048, which
the *message* engines cannot finish inside a CI budget (the vector
schedule kernel handles it in milliseconds — that asymmetry is the
point, but the gate still needs a finishing baseline).

Timing (``_util.interleave``): one untimed warm-up solve per fabric,
whose lengths, stage outputs and ledger digests must be bit-identical,
then :data:`PASSES` passes, each fabric once, rotating which goes
first; a speedup is the median per-pass ratio.

Gates (declared in :data:`BENCH`; the CI ``perf-gate`` job runs
``--quick``: a smaller oracle-build catalog, and the same solve
families, which the baseline comparison needs)::

    python benchmarks/bench_solver.py --quick --json BENCH_solver.json \
        --compare benchmarks/BENCH_solver.json

* every ``solve-*`` family must hold >= 5x vector-vs-fast;
* the ``oracle-build`` family must hold >= 2x vector-vs-fast;
* a measured ratio more than the (doubled — end-to-end runs inherit
  the kernel workloads' memory-bound noise profile) tolerance below
  its committed baseline ratio fails the gate.  The committed file
  carries no mode stamp, so a quick run is compared against it too.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from _util import (
    Bench,
    Check,
    hard_instance,
    interleave,
    main,
    run_entry,
    spread,
)

from repro.core.rpaths import solve_rpaths
from repro.graphs import (
    expander_instance,
    path_with_chords_instance,
    power_law_instance,
)

GATE_FAMILY = "solve-expander-2048"
SOLVE_FAMILIES = (GATE_FAMILY, "solve-power-law-2048",
                  "solve-hard-instance", "solve-expander-256-3way")
BUILD_FAMILY = "oracle-build"

#: Timed passes per family, after one warm-up solve per fabric.
PASSES = 3


def _families():
    """(name, instance, solver kwargs, fabrics) per family."""
    yield (GATE_FAMILY,
           expander_instance(2048, degree=4, seed=9),
           {"landmark_c": 0.5}, ("fast", "vector"))
    yield ("solve-power-law-2048",
           power_law_instance(2048, attach=3, seed=2),
           {"landmark_c": 0.5}, ("fast", "vector"))
    yield ("solve-hard-instance", hard_instance(8, 3, 2),
           {"landmark_c": 0.5}, ("fast", "vector"))
    yield ("solve-expander-256-3way",
           expander_instance(256, degree=4, seed=5),
           {}, ("reference", "fast", "vector"))


def _solve(instance, fabric: str, kwargs: dict):
    """One full solve; its ledger digest, lengths and stage outputs."""
    report = solve_rpaths(instance, seed=7, fabric=fabric, **kwargs)
    ledger = report.ledger
    return (ledger.rounds, ledger.messages, ledger.words,
            ledger.max_link_words, ledger.violations, list(report.lengths),
            list(report.extras["short"]), list(report.extras["long"]))


def measure_families() -> Dict[str, dict]:
    """Full solves per fabric per family: rounds/sec and speedups."""
    results: Dict[str, dict] = {}
    for name, instance, kwargs, fabrics in _families():
        timing = interleave(
            {fabric: lambda _item, fabric=fabric: partial(
                _solve, instance, fabric, kwargs)
             for fabric in fabrics}, PASSES)
        rounds, *_rest = timing.agreed(name)[0]
        results[name] = {
            "n": instance.n,
            "m": instance.m,
            "hop_count": instance.hop_count,
            "rounds": rounds,
            "solver_kwargs": dict(kwargs),
            "passes": PASSES,
            **{f"{fabric}_rps": round(rounds / timing.median(fabric), 1)
               for fabric in fabrics},
            **spread("speedup_vector", timing.ratio("fast", "vector")),
            **(spread("speedup_fast", timing.ratio("reference", "fast"))
               if "reference" in fabrics else {}),
        }
    return results


def _warm(catalog, fabric: str):
    """A cold sharded service on ``fabric``; the call warms it and
    returns its oracle tables."""
    from repro.serve.shard import ShardedQueryService

    service = ShardedQueryService(catalog, shards=1,
                                  capacity=len(catalog), fabric=fabric)

    def warm():
        service.warm()
        shard = service.shard_for(catalog[0].name)
        return [shard.planner_for(inst.name).oracle.lengths
                for inst in catalog]
    return warm


def measure_oracle_build(quick: bool) -> dict:
    """The serving tier's build funnel: warm a sharded service per
    build fabric and compare wall time (identical oracle tables
    asserted first)."""
    sizes = (192,) if quick else (192, 256)
    catalog = []
    for n in sizes:
        catalog.append(expander_instance(
            n, degree=4, seed=1, name=f"bench-exp-{n}"))
        catalog.append(path_with_chords_instance(
            n // 2, seed=2, overlay_hub=True, name=f"bench-chords-{n}"))
    timing = interleave(
        {fabric: lambda _item, fabric=fabric: _warm(catalog, fabric)
         for fabric in ("fast", "vector")}, PASSES)
    timing.agreed(BUILD_FAMILY)
    return {
        "instances": len(catalog),
        "passes": PASSES,
        "fast_seconds": round(timing.median("fast"), 3),
        "vector_seconds": round(timing.median("vector"), 3),
        **spread("speedup_vector", timing.ratio("fast", "vector")),
    }


BENCH = Bench(
    name="solver",
    measure=lambda quick: {**measure_families(),
                           BUILD_FAMILY: measure_oracle_build(quick)},
    title="whole-solver throughput — solve_rpaths end to end and the "
          "sharded service's oracle build, median of interleaved passes",
    columns=("n", "hop_count", "rounds", "fast_rps", "vector_rps",
             "fast_seconds", "vector_seconds", "speedup_vector"),
    checks=(
        Check("floor", SOLVE_FAMILIES, "speedup_vector", 5.0),
        Check("floor", (BUILD_FAMILY,), "speedup_vector", 2.0),
        Check("higher", SOLVE_FAMILIES + (BUILD_FAMILY,),
              "speedup_vector", doubled=True),
    ),
)


def bench_solver_throughput(benchmark):
    """End-to-end rounds/sec, vector vs fast (see module doc)."""
    run_entry(benchmark, BENCH)


if __name__ == "__main__":
    raise SystemExit(main(BENCH))
