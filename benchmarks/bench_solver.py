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

Every family asserts bit-identical lengths, stage outputs, and ledger
digests across its fabrics before any throughput is reported.

Gates (declared in :data:`BENCH`; the CI ``perf-gate`` job runs
``--quick``: one solve per fabric, a smaller oracle-build catalog, and
the same solve families, which the baseline comparison needs)::

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

import time
from typing import Dict

from _util import Bench, Check, hard_instance, main, quiet_gc, run_entry

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


def _fingerprint(report):
    ledger = report.ledger
    return (list(report.lengths), list(report.extras["short"]),
            list(report.extras["long"]), ledger.rounds,
            ledger.messages, ledger.words, ledger.max_link_words,
            ledger.violations)


def measure_families(repeats: int) -> Dict[str, dict]:
    """One full solve per fabric per family; best-of-N rounds/sec."""
    results: Dict[str, dict] = {}
    for name, instance, kwargs, fabrics in _families():
        rps: Dict[str, float] = {}
        prints = {}
        rounds = 0
        # Vector first: the message engines' multi-second runs grow and
        # fragment the heap, which measurably slows the array kernels
        # when they go second (same ordering as bench_fabric).
        for fabric in fabrics[::-1]:
            best = float("inf")
            reps = repeats if fabric != "vector" else max(repeats, 3)
            for _ in range(reps):
                with quiet_gc():
                    start = time.perf_counter()
                    report = solve_rpaths(instance, seed=7,
                                          fabric=fabric, **kwargs)
                    best = min(best, time.perf_counter() - start)
            prints[fabric] = _fingerprint(report)
            rounds = report.rounds
            rps[fabric] = rounds / best
        if any(prints[f] != prints[fabrics[0]] for f in fabrics):
            raise AssertionError(
                f"{name}: fabrics disagree on results or ledger")
        row = {
            "n": instance.n,
            "m": instance.m,
            "hop_count": instance.hop_count,
            "rounds": rounds,
            "solver_kwargs": {k: v for k, v in kwargs.items()},
        }
        for fabric in fabrics:
            row[f"{fabric}_rps"] = round(rps[fabric], 1)
        row["speedup_vector"] = round(rps["vector"] / rps["fast"], 3)
        if "reference" in fabrics:
            row["speedup_fast"] = round(
                rps["fast"] / rps["reference"], 3)
        results[name] = row
    return results


def measure_oracle_build(quick: bool) -> dict:
    """The serving tier's build funnel: warm a sharded service per
    build fabric and compare wall time (identical oracle tables
    asserted first)."""
    from repro.serve.shard import ShardedQueryService

    sizes = (192,) if quick else (192, 256)
    catalog = []
    for n in sizes:
        catalog.append(expander_instance(
            n, degree=4, seed=1, name=f"bench-exp-{n}"))
        catalog.append(path_with_chords_instance(
            n // 2, seed=2, overlay_hub=True, name=f"bench-chords-{n}"))
    elapsed: Dict[str, float] = {}
    tables: Dict[str, list] = {}
    for fabric in ("vector", "fast"):
        service = ShardedQueryService(catalog, shards=1,
                                      capacity=len(catalog),
                                      build_fabric=fabric)
        with quiet_gc():
            start = time.perf_counter()
            service.warm()
            elapsed[fabric] = time.perf_counter() - start
        shard = service.shard_for(catalog[0].name)
        tables[fabric] = [
            shard.planner_for(inst.name).oracle.lengths
            for inst in catalog
        ]
    if tables["fast"] != tables["vector"]:
        raise AssertionError("oracle tables differ across build fabrics")
    return {
        "instances": len(catalog),
        "fast_seconds": round(elapsed["fast"], 3),
        "vector_seconds": round(elapsed["vector"], 3),
        "speedup_vector": round(elapsed["fast"] / elapsed["vector"], 3),
    }


def measure(quick: bool) -> Dict[str, dict]:
    """Every solve family, best of 1 (quick) or 2 solves per fabric,
    then the oracle build."""
    families = measure_families(1 if quick else 2)
    families[BUILD_FAMILY] = measure_oracle_build(quick)
    return families


BENCH = Bench(
    name="solver",
    measure=measure,
    title="whole-solver throughput — solve_rpaths end to end (best "
          "of N) and the sharded service's oracle build",
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
