"""Serving-tier throughput: precomputed oracle vs. per-query solves.

Four workload families measure what the serving layer buys:

* ``oracle-hit`` — read-only traffic (the instance's own (s, t) pair,
  failed edge uniform over E) against a built
  :class:`~repro.serve.oracle.ReplacementPathOracle`.  The baseline is
  the operational status quo this tier replaces: re-running the full
  ``solve_rpaths`` pipeline per query.  The ISSUE-level claim — and
  the absolute CI floor — is a >= 20x queries/sec advantage; in
  practice the gap is orders of magnitude (one O(1) lookup vs. a full
  CONGEST execution).
* ``zipf-batched`` — zipf-skewed arbitrary-pair solve traffic through
  the :class:`~repro.serve.planner.BatchPlanner` (one k-source
  vector-fabric solve per failed-edge group), against the unbatched
  distributed status quo: one single-source fabric BFS per query, no
  memo.
* ``adversarial-batched`` — the memo-defeating failed-edge schedule,
  same baseline; only the k-source grouping amortizes anything here,
  so this family bounds the tier's worst case.
* ``daemon-loop`` — the serve daemon (long-lived worker processes
  that warm their shards once, :mod:`repro.serve.daemon`) through the
  admission front-end, against the warm in-process service on the
  same stream: ``ShardedQueryService.serve([q])``, one query at a
  time, interleaved in small blocks with a bare pipe round trip to a
  helper process.  The gated figure is what the front-end and IPC
  cost per request: daemon p50 minus in-process p50, in pipe round
  trips, because the wake-ups a daemon request waits on move with
  the host far more than the in-process compute does (the plain p50
  ratio is reported beside it).  A p95 latency ceiling holds under a
  closed-loop multi-client pass; QPS, p50/p95/p99 and the overhead's
  quartiles land in the committed JSON.

Every family verifies every answer against the centralized oracle
before any throughput number is reported — a mismatch exits non-zero
regardless of speed.

Gates (declared in :data:`BENCH`, run by the CI ``serve-smoke``
step)::

    python benchmarks/bench_serve.py --quick \
        --json BENCH_serve.json \
        --compare benchmarks/BENCH_serve.json

* ``oracle-hit`` must hold the absolute >= 20x speedup floor;
* the batched families must not drop below 1x (batching must never
  lose to the per-query path);
* ``daemon-loop`` must hold its 75 ms p95 ceiling, the committed
  latency SLO the CI daemon-smoke step also enforces;
* any family's speedup more than the tolerance below its committed
  baseline ratio fails the gate, and so does a ``daemon-loop`` p50
  overhead more than the tolerance above its committed one.  Ratios,
  not absolute queries/sec, are compared: they are stable across
  runner hardware.  Baselines are mode-stamped (``--quick`` vs. full);
  comparing across modes enforces only the absolute floors.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import contextmanager
from typing import Dict

from _util import Bench, Check, main, quiet_gc, run_entry

from repro.congest import bfs_distances
from repro.core.rpaths import solve_rpaths
from repro.graphs.generators import (
    path_with_chords_instance,
    random_instance,
)
from repro.serve import (
    BatchPlanner,
    ReplacementPathOracle,
    ServeDaemon,
    ServeFrontend,
    ShardedQueryService,
    generate_workload,
    hit_ratio,
    latency_summary_ms,
    percentile,
    run_load,
    verify_against_centralized,
)

ORACLE_FAMILY = "oracle-hit"
BATCHED_FAMILIES = ("zipf-batched", "adversarial-batched")
DAEMON_FAMILY = "daemon-loop"

#: Daemon-family passes that interleave the daemon, the in-process
#: service and the pipe echo, and the queries per block within a pass.
DAEMON_ROUNDS = 21
DAEMON_BLOCK = 10

#: Closed-loop clients in the daemon family's QPS and p95 pass.
DAEMON_CONCURRENCY = 4


def _verify_or_die(name: str, instance, answers) -> None:
    if not verify_against_centralized([instance], answers):
        raise AssertionError(
            f"{name}: serving answers contradict the centralized "
            "oracle")


def measure_oracle_hit(quick: bool) -> Dict[str, object]:
    """Oracle-hit qps vs. per-query solve_rpaths qps."""
    hops = 14 if quick else 24
    queries = 600 if quick else 4000
    solves = 1 if quick else 2
    instance = path_with_chords_instance(hops, seed=1,
                                         overlay_hub=True)

    build_start = time.perf_counter()
    oracle = ReplacementPathOracle.build(instance, solver="theorem1",
                                         seed=0)
    build_time = time.perf_counter() - build_start

    stream = generate_workload("uniform", instance, queries, seed=2)
    with quiet_gc():
        start = time.perf_counter()
        answers = [oracle.answer(q) for q in stream]
        serve_time = time.perf_counter() - start
    _verify_or_die(ORACLE_FAMILY, instance, answers)

    # Per-answer latency percentiles over a warm sample (the bulk loop
    # above owns the throughput number; individually timed answers
    # carry the clock overhead, so they are a separate pass).
    per_answer = []
    for q in stream[:200]:
        t0 = time.perf_counter()
        oracle.answer(q)
        per_answer.append(time.perf_counter() - t0)
    latency = latency_summary_ms(per_answer)

    # The status quo: every query re-runs the full pipeline.  A couple
    # of timed solves pin down the per-query rate.  They run on the
    # message lanes (fabric="fast"), as when the committed baseline
    # was measured: the speedup gate compares against that rate.
    with quiet_gc():
        start = time.perf_counter()
        for i in range(solves):
            solve_rpaths(instance, seed=i, fabric="fast")
        solve_time = (time.perf_counter() - start) / solves

    qps = queries / serve_time
    baseline_qps = 1.0 / solve_time
    return {
        "n": instance.n,
        "m": instance.m,
        "queries": queries,
        "qps": round(qps, 1),
        "baseline_qps": round(baseline_qps, 3),
        "speedup": round(qps / baseline_qps, 1),
        "p50_ms": round(latency["p50"], 4),
        "p95_ms": round(latency["p95"], 4),
        "p99_ms": round(latency["p99"], 4),
        "hit_ratio": round(hit_ratio(answers), 4),
        "build_seconds": round(build_time, 4),
        "build_rounds": oracle.build_rounds,
    }


def measure_batched(kind: str, quick: bool,
                    repeats: int = 2) -> Dict[str, object]:
    """Batched planner qps vs. per-query fabric BFS qps.

    Sized so the fabric work dominates fixed per-call overheads: below
    n ≈ 100 a single-source message BFS is so cheap that the k-source
    kernel's per-round array costs swamp the grouping win; from
    n ≈ 128 up the batched path wins and keeps growing with n.
    """
    n = 128 if quick else 256
    queries = 200 if quick else 600
    instance = random_instance(n, seed=3)
    stream = generate_workload(kind, instance, queries, seed=4)

    # Best-of-N with fresh state per repeat: the planner's (s, e) memo
    # must not carry over (it would turn the second repeat into pure
    # cache hits), and the first vector-kernel call pays one-time
    # NumPy warmup that should not be charged to the family.
    batched_time = float("inf")
    answers, plan = [], None
    for _ in range(repeats):
        oracle = ReplacementPathOracle.build(instance,
                                             solver="centralized")
        planner = BatchPlanner(oracle, fabric="vector")
        with quiet_gc():
            start = time.perf_counter()
            answers, plan = planner.answer_batch(stream)
            batched_time = min(batched_time,
                               time.perf_counter() - start)
    _verify_or_die(f"{kind}-batched", instance, answers)

    # Unbatched distributed status quo: one single-source BFS on the
    # fabric per query, no (s, e) memo, no grouping.
    unbatched_time = float("inf")
    for _ in range(repeats):
        net = instance.build_network(fabric="fast")
        with quiet_gc():
            start = time.perf_counter()
            for q in stream:
                bfs_distances(net, q.s,
                              avoid_edges=frozenset([q.edge]))
            unbatched_time = min(unbatched_time,
                                 time.perf_counter() - start)

    qps = queries / batched_time
    baseline_qps = queries / unbatched_time
    return {
        "n": instance.n,
        "m": instance.m,
        "queries": queries,
        "qps": round(qps, 1),
        "baseline_qps": round(baseline_qps, 1),
        "speedup": round(qps / baseline_qps, 3),
        "hit_ratio": round(hit_ratio(answers), 4),
        "batch_solves": plan.batch_solves,
        "solves_saved": plan.solves_saved,
    }


def _echo(conn) -> None:
    """Helper process: send every message back until ``None``."""
    while True:
        message = conn.recv()
        if message is None:
            return
        conn.send(message)


@contextmanager
def _pipe_echo():
    """A round trip of a small message to a helper process over a
    pipe: wake-up cost like a daemon request's, none of its work."""
    ctx = multiprocessing.get_context("spawn")
    conn, child = ctx.Pipe()
    helper = ctx.Process(target=_echo, args=(child,), daemon=True)
    helper.start()
    child.close()

    def round_trip(_query):
        conn.send(0)
        return conn.recv()

    try:
        yield round_trip
    finally:
        conn.send(None)
        helper.join(timeout=5.0)
        if helper.is_alive():
            helper.kill()
            helper.join()
        conn.close()


def _interleaved_pass(sides, queries, offset: int):
    """Every side's results and per-query seconds over ``queries``, in
    blocks of ``DAEMON_BLOCK`` that rotate which side goes first."""
    names = list(sides)
    results = {side: [] for side in names}
    seconds = {side: [] for side in names}
    for block_no, first in enumerate(range(0, len(queries),
                                           DAEMON_BLOCK)):
        k = (offset + block_no) % len(names)
        for side in names[k:] + names[:k]:
            for query in queries[first:first + DAEMON_BLOCK]:
                start = time.perf_counter()
                results[side].append(sides[side](query))
                seconds[side].append(time.perf_counter() - start)
    return results, seconds


def measure_daemon_loop(quick: bool) -> Dict[str, object]:
    """Warm serve daemon vs. the warm in-process service, per request.

    Both sides answer the same oracle-hit stream over the same catalog
    from warm oracles: the in-process side times
    ``ShardedQueryService.serve([q])`` (the floor of the query ladder),
    the daemon side one client's request through the admission
    front-end, each timed by the caller.  A daemon request is a chain
    of thread and process wake-ups, whose cost on a shared VM moves
    with the neighbours and with how idle the CPUs are, so a third
    side times a bare pipe round trip to a helper process, which pays
    the same kind of cost and none of the program's.  After one
    untimed warm-up pass, each of ``DAEMON_ROUNDS`` passes interleaves
    the three sides in blocks of ``DAEMON_BLOCK`` queries.  Per pass,
    ``p50_overhead_rtts`` is the daemon p50 minus the in-process p50,
    in pipe round trips (median echo), and ``p50_ratio`` the daemon
    p50 over the in-process p50; both report their median over
    passes.  A last closed-loop pass with ``DAEMON_CONCURRENCY``
    clients measures the QPS and the p95/p99 the SLO ceiling gates.
    """
    n = 56 if quick else 72
    per_instance = 50 if quick else 200
    instances = [
        random_instance(n, seed=10 + i, name=f"daemon-{n}-{i}")
        for i in range(3)
    ]
    queries = []
    for i, inst in enumerate(instances):
        queries.extend(generate_workload(
            "uniform", inst, per_instance, seed=20 + i))

    service = ShardedQueryService(instances, shards=2,
                                  solver="theorem1", build_seed=0)
    service.warm()
    direct = [service.serve([q]).answers[0] for q in queries]
    if not verify_against_centralized(instances, direct):
        raise AssertionError(
            f"{DAEMON_FAMILY}: in-process answers contradict the "
            "centralized oracle")
    expected = [a.length for a in direct]

    passes = []
    seconds = {"direct": [], "daemon": [], "echo": []}
    with _pipe_echo() as echo:
        warm_start = time.perf_counter()
        daemon = ServeDaemon(instances, workers=2, solver="theorem1",
                             build_seed=0).start()
        warm_time = time.perf_counter() - warm_start
        try:
            frontend = ServeFrontend(daemon, max_queue=512,
                                     max_inflight=128)

            def via_daemon(query):
                result = frontend.submit(query).result()
                if not result.ok:
                    raise AssertionError(
                        f"{DAEMON_FAMILY}: outcome {result.outcome}")
                return result.answer.length

            sides = {
                "direct": lambda q: service.serve([q]).answers[0].length,
                "daemon": via_daemon,
                "echo": echo,
            }
            try:
                for query in queries:
                    via_daemon(query)
                    echo(query)
                with quiet_gc():
                    for round_no in range(DAEMON_ROUNDS):
                        lengths, taken = _interleaved_pass(
                            sides, queries, round_no)
                        if not (lengths["direct"] == lengths["daemon"]
                                == expected):
                            raise AssertionError(
                                f"{DAEMON_FAMILY}: answers changed "
                                "between sides or passes")
                        p50 = {side: percentile(taken[side], 50)
                               for side in sides}
                        passes.append(((p50["daemon"] - p50["direct"])
                                       / p50["echo"],
                                       p50["daemon"] / p50["direct"]))
                        for side in sides:
                            seconds[side] += taken[side]
                    results, load = run_load(
                        frontend, queries, mode="closed",
                        concurrency=DAEMON_CONCURRENCY)
            finally:
                frontend.close()
        finally:
            daemon.stop()
    if load.ok != load.sent:
        raise AssertionError(
            f"{DAEMON_FAMILY}: non-ok outcomes {load.outcomes}")
    answers = [res.answer for res in results]
    if [a.length for a in answers] != expected:
        raise AssertionError(
            f"{DAEMON_FAMILY}: closed-loop answers contradict the "
            "centralized oracle")

    overheads = [overhead for overhead, _ratio in passes]
    return {
        "n": n,
        "instances": len(instances),
        "queries": len(queries),
        "rounds": DAEMON_ROUNDS,
        "block": DAEMON_BLOCK,
        "concurrency": DAEMON_CONCURRENCY,
        "qps": round(load.achieved_qps, 1),
        "p50_ms": round(load.latency_ms["p50"], 4),
        "p95_ms": round(load.latency_ms["p95"], 4),
        "p99_ms": round(load.latency_ms["p99"], 4),
        "daemon_p50_ms": round(
            latency_summary_ms(seconds["daemon"])["p50"], 4),
        "inprocess_p50_ms": round(
            latency_summary_ms(seconds["direct"])["p50"], 4),
        "echo_p50_ms": round(
            latency_summary_ms(seconds["echo"])["p50"], 4),
        "p50_overhead_rtts": round(percentile(overheads, 50), 2),
        "p50_overhead_rtts_quartiles": [
            round(percentile(overheads, 25), 2),
            round(percentile(overheads, 75), 2)],
        "p50_ratio": round(percentile(
            [ratio for _overhead, ratio in passes], 50), 2),
        "hit_ratio": round(hit_ratio(answers), 4),
        "warm_seconds": round(warm_time, 4),
    }


def measure_all(quick: bool) -> Dict[str, dict]:
    return {
        ORACLE_FAMILY: measure_oracle_hit(quick),
        "zipf-batched": measure_batched("zipf", quick),
        "adversarial-batched": measure_batched("adversarial", quick),
        DAEMON_FAMILY: measure_daemon_loop(quick),
    }


BENCH = Bench(
    name="serve",
    measure=measure_all,
    title="serving tier — precomputed oracle / batched planner vs. "
          "per-query solves; warm daemon vs. in-process",
    columns=("n", "queries", "qps", "baseline_qps", "speedup",
             "p50_ms", "p95_ms", "p99_ms", "daemon_p50_ms",
             "inprocess_p50_ms", "echo_p50_ms", "p50_overhead_rtts",
             "p50_ratio", "hit_ratio"),
    checks=(
        Check("floor", (ORACLE_FAMILY,), "speedup", 20.0),
        Check("floor", BATCHED_FAMILIES, "speedup", 1.0),
        Check("ceiling", (DAEMON_FAMILY,), "p95_ms", 75.0),
        Check("higher", (ORACLE_FAMILY,) + BATCHED_FAMILIES, "speedup"),
        Check("lower", (DAEMON_FAMILY,), "p50_overhead_rtts"),
    ),
    stamp_mode=True,
)


def bench_serve_tier(benchmark):
    """Quick-mode serving families (see module doc)."""
    run_entry(benchmark, BENCH)


if __name__ == "__main__":
    raise SystemExit(main(BENCH))
