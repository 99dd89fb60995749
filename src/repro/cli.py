"""Command-line interface: ``python -m repro <command>``.

Commands
--------
solve
    Run the Theorem 1 solver (or Theorem 3 with --epsilon) on a
    generated instance and print the per-edge replacement lengths plus
    the round breakdown.
compare
    Run Theorem 1, the MR24b baseline, and the trivial baseline on the
    same instance and print the Table-1-style row.
lower-bound
    Build G(k, d, p, φ, M, x) for random (M, x), verify Lemma 6.8, and
    run the disjointness reduction.
suite
    The experiment runtime: ``suite list`` shows the scenario catalog,
    ``suite run`` executes scenario cells in parallel against the
    content-addressed result cache and checks the paper claims of
    every scenario whose full grid ran, ``suite diff`` compares two
    run manifests.
query
    Answer one (s, t, failed-edge) replacement-path query from a
    precomputed oracle (build once, O(1) per hit).
serve
    The query-serving tier: ``serve load`` starts the long-lived
    worker-process daemon (warm once, heartbeat health, drain on
    stop) and drives open/closed-loop load through its front-end
    with p50/p95/p99 SLO gates.
trace
    Trace tooling over the JSONL artifacts written by ``suite run
    --trace`` (and the benches' ``--trace``): ``trace summary`` joins
    per-phase wall time with ledger rounds and prints the
    fallback-reason histogram; ``trace diff`` compares two traces
    phase by phase.
kernels
    ``kernels list`` prints the primitive registry as the dispatch
    table (primitive × fabric × declared constraints) that
    ``repro.congest.dispatch`` executes; ``--json`` dumps the full
    registry machine-readably.
info
    Print the library version and the experiment index.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .analysis import format_table
from .congest.words import INF


def _build_instance(args):
    from .graphs import (
        grid_instance,
        layered_instance,
        path_with_chords_instance,
        random_instance,
    )
    family = args.family
    try:
        if family == "random":
            return random_instance(args.n, seed=args.seed,
                                   weighted=args.weighted)
        if family == "chords":
            return path_with_chords_instance(
                max(2, args.n // 2), seed=args.seed,
                weighted=args.weighted, overlay_hub=True)
        if family == "grid":
            cols = max(2, args.n // 4)
            return grid_instance(4, cols)
        if family == "layered":
            width = 4
            layers = max(2, args.n // width)
            return layered_instance(layers, width, seed=args.seed,
                                    weighted=args.weighted)
    except ValueError as exc:  # a size the generator cannot build
        raise SystemExit(f"error: {exc}") from None
    raise SystemExit(f"unknown family {family!r}")


def cmd_solve(args) -> int:
    instance = _build_instance(args)
    print(f"instance {instance.name}: n={instance.n} m={instance.m} "
          f"h_st={instance.hop_count}")
    if args.epsilon is not None:
        from .approx.apx_rpaths import solve_apx_rpaths
        report = solve_apx_rpaths(instance, epsilon=args.epsilon,
                                  seed=args.seed)
        print(f"(1+{args.epsilon})-Apx-RPaths (Theorem 3): "
              f"{report.rounds} rounds, {report.scale_count} scales")
    else:
        if instance.weighted:
            raise SystemExit(
                "weighted instance needs --epsilon (Theorem 3)")
        from .core.rpaths import solve_rpaths
        report = solve_rpaths(instance, seed=args.seed)
        print(f"RPaths (Theorem 1): {report.rounds} rounds, "
              f"|L|={report.landmark_count}, zeta={report.zeta}")
    shown = ", ".join(
        "inf" if (x == float('inf') or x >= INF) else str(x)
        for x in report.lengths[:20])
    more = " ..." if len(report.lengths) > 20 else ""
    print(f"lengths: [{shown}{more}]")
    if args.breakdown:
        print(report.ledger.report())
    if args.check:
        from .baselines import replacement_lengths
        from .runtime.measure import lengths_match
        ok = lengths_match(report.lengths, replacement_lengths(instance),
                           args.epsilon)
        print(f"oracle check: {'OK' if ok else 'MISMATCH'}")
        return 0 if ok else 1
    return 0


def cmd_compare(args) -> int:
    from .baselines import replacement_lengths
    from .runtime import measure_algorithm
    from .runtime.catalog import TABLE1_ALGORITHMS
    instance = _build_instance(args)
    truth = replacement_lengths(instance)
    runs = [measure_algorithm(instance, algorithm, seed=args.seed,
                              truth=truth)
            for algorithm in TABLE1_ALGORITHMS]
    rows = [[r.algorithm, r.rounds, r.max_link_words,
             "OK" if r.correct else "WRONG"] for r in runs]
    print(format_table(
        ["algorithm", "rounds", "max link words", "exact"],
        rows, title=f"{instance.name}: n={instance.n} "
                    f"h_st={instance.hop_count}"))
    return 0 if all(r.correct for r in runs) else 1


def cmd_lower_bound(args) -> int:
    from .lowerbound.reduction import check_hard_instance
    k = args.k
    check = check_hard_instance(k, args.d, args.p, seed=args.seed)
    report, red = check.correspondence, check.reduction
    print(f"G(k={k}, d={args.d}, p={args.p}): n={check.hard.n}, "
          f"L_opt={report.optimal_length}")
    print(f"Lemma 6.8 dichotomy holds: {report.holds} "
          f"({report.hit_count}/{k * k} minimal edges)")
    print(f"reduction demo: disj({check.x},{check.y}) = {red.expected}, "
          f"decoded {red.decided} in {red.rounds} rounds "
          f"({'OK' if red.correct else 'MISMATCH'})")
    return 0 if check.correct else 1


def cmd_suite_list(args) -> int:
    from .runtime import all_scenarios
    rows = []
    for scen in all_scenarios():
        rows.append([
            scen.name,
            len(scen.cells()),
            len(scen.cells(smoke=True)),
            ",".join(scen.tags) or "-",
            scen.description,
        ])
    print(format_table(
        ["scenario", "cells", "smoke", "tags", "description"], rows,
        title="registered scenarios"))
    return 0


def cmd_suite_run(args) -> int:
    from .runtime import (
        ResultStore,
        default_jobs,
        format_suite_report,
        run_suite,
    )
    store = ResultStore(args.cache_dir) if args.cache_dir else None
    try:
        report = run_suite(
            names=args.scenario or None,
            jobs=args.jobs if args.jobs is not None else default_jobs(),
            smoke=args.smoke,
            use_cache=not args.no_cache,
            store=store,
            timeout=args.timeout,
            label=args.label,
            record=not args.no_record,
            fabric=args.fabric,
            trace=args.trace,
        )
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")
    title = ("suite results (smoke)" if args.smoke else "suite results")
    print(format_suite_report(report, title=title,
                              durations=args.durations))
    if not report.ok:
        for r in report.results:
            if not r.ok:
                print(f"FAILED {r.spec.label}: {r.status} {r.error}")
    if not report.all_correct:
        for r in report.results:
            if r.correct is False:
                print(f"INCORRECT {r.spec.label}")
    for verdict in report.failed_claims:
        print(f"CLAIM FAILED {verdict.scenario} seed={verdict.seed}: "
              f"{verdict.claim.text}: {verdict.problem}")
    return 0 if (report.ok and report.all_correct
                 and not report.failed_claims) else 1


def cmd_suite_diff(args) -> int:
    from .runtime import diff_results
    from .runtime.store import ResultStore
    try:
        old = ResultStore.load_run(args.old)
        new = ResultStore.load_run(args.new)
    except (OSError, ValueError, KeyError) as exc:
        raise SystemExit(f"error: cannot read run manifest: {exc!r}")
    report = diff_results(old, new)
    print(f"diff {args.old} -> {args.new}: {report.summary()}")
    for identity in report.removed:
        print(f"  removed: {identity}")
    for identity in report.added:
        print(f"  added:   {identity}")
    for cell in report.changed:
        print(f"  changed: {cell.identity}")
        for metric, (a, b) in sorted(cell.changed.items()):
            print(f"           {metric}: {a} -> {b}")
    return 0 if report.clean else 1


def cmd_query(args) -> int:
    from .runtime.executor import DeadlineExceeded, deadline
    from .serve import ReplacementPathOracle, centralized_truth
    if args.timeout is not None and not args.timeout > 0:
        raise SystemExit(f"error: --timeout must be positive, got "
                         f"{args.timeout:g}")
    instance = _build_instance(args)
    for flag, vertex in (("--source", args.source),
                         ("--target", args.target)):
        if vertex is not None and not 0 <= vertex < instance.n:
            raise SystemExit(f"error: {flag} {vertex} out of range for "
                             f"n={instance.n}")
    solver = args.solver
    if instance.weighted and solver == "theorem1":
        solver = "centralized"  # Theorem 1 targets unweighted graphs
    s = instance.s if args.source is None else args.source
    t = instance.t if args.target is None else args.target
    if args.edge is not None:
        edge = (args.edge[0], args.edge[1])
    else:
        edge = instance.path_edges()[
            args.fail_index % instance.hop_count]
    record = {"instance": instance.name, "n": instance.n,
              "m": instance.m, "h_st": instance.hop_count,
              "solver": solver,
              "query": {"s": s, "t": t, "edge": [edge[0], edge[1]]}}
    # The deadline covers the expensive part — the cold oracle build
    # plus the query itself — with the executor's in-process SIGALRM
    # deadline, so a too-slow build returns a structured ``timeout``
    # outcome instead of hanging the terminal.  SIGALRM only exists on
    # POSIX and only works from the main thread; anywhere else we run
    # without a deadline and *say so* with a structured
    # ``timeout_unsupported`` outcome.
    try:
        with deadline(args.timeout) as enforced:
            oracle = ReplacementPathOracle.build(
                instance, solver=solver, seed=args.seed)
            answer = oracle.query(s, t, edge)
    except DeadlineExceeded:
        record.update(outcome="timeout", timeout_seconds=args.timeout)
    else:
        record.update(
            build_rounds=oracle.build_rounds,
            outcome=("timeout_unsupported"
                     if args.timeout is not None and not enforced
                     else "ok"),
            timeout_enforced=enforced,
            length=None if answer.length >= INF else answer.length,
            kind=answer.kind,
            check=(answer.length == centralized_truth(instance, s, t, edge)
                   if args.check else None))
    if args.json:
        import json
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(f"instance {instance.name}: n={instance.n} "
              f"m={instance.m} h_st={instance.hop_count}")
        if record["outcome"] == "timeout":
            print(f"query timed out after {args.timeout:g}s "
                  "(oracle build + query exceeded the deadline)")
        else:
            if record["outcome"] == "timeout_unsupported":
                print(f"note: --timeout {args.timeout:g} requested but "
                      "SIGALRM is unavailable here (non-POSIX platform "
                      "or non-main thread); ran without a deadline")
            print(f"oracle: solver={solver}, build cost "
                  f"{oracle.build_rounds} rounds (paid once, amortized "
                  "over every query)")
            print(f"query d({s},{t}) avoiding ({edge[0]},{edge[1]}): "
                  f"{answer.display_length()}  [{answer.kind}]")
            if record["check"] is not None:
                print("oracle check: "
                      f"{'OK' if record['check'] else 'MISMATCH'}")
    if record["outcome"] == "timeout":
        return 2
    return 0 if record["check"] is not False else 1


def cmd_mutate(args) -> int:
    """Replay a seeded mutation stream against one instance.

    Each step draws a batch from the chosen profile, applies it
    through :func:`repro.dynamic.apply_mutations` (epoch bump + P
    re-derivation), validates the successor instance, and reports the
    applied/skipped breakdown — the CLI face of the dynamic-graphs
    subsystem.
    """
    from .dynamic import MutationStream

    instance = _build_instance(args)
    stream = MutationStream(seed=args.mutation_seed)
    profile_kwargs = {
        "burst": {"count": args.burst_size},
        "storm": {"fraction": args.fraction},
        "regional": {"radius": args.radius,
                     "fraction": args.fraction},
        "maintenance": {"window": args.window},
    }[args.profile]
    steps = []
    failures = []
    current = instance
    for step in range(args.steps):
        kwargs = dict(profile_kwargs)
        if args.profile == "maintenance":
            kwargs["step"] = step
        result = stream.step(current, profile=args.profile, **kwargs)
        current = result.instance
        try:
            current.validate()
        except Exception as exc:  # InvalidInstanceError et al.
            failures.append(f"step {step}: successor instance "
                            f"invalid: {exc}")
        row = result.as_metrics()
        row["step"] = step
        steps.append(row)
    record = {
        "instance": instance.name,
        "n": instance.n,
        "m": instance.m,
        "hop_count": instance.hop_count,
        "profile": args.profile,
        "seed": args.mutation_seed,
        "steps": steps,
        "final_epoch": current.topology_version,
        "final_m": current.m,
        "final_hop_count": current.hop_count,
        "failures": failures,
    }
    if args.json:
        import json
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        rows = [[r["step"], r["epoch"], r["applied"], r["skipped"],
                 "yes" if r["path_changed"] else "no"]
                for r in record["steps"]]
        print(format_table(
            ["step", "epoch", "applied", "skipped", "path changed"],
            rows,
            title=f"mutation stream: {record['profile']} on "
                  f"{record['instance']} (n={record['n']}, "
                  f"seed={record['seed']})"))
        print(f"final: epoch {record['final_epoch']}, "
              f"m={record['final_m']} (was {record['m']}), "
              f"|P|={record['final_hop_count']} hops "
              f"(was {record['hop_count']})")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 0 if not failures else 1


def cmd_store_gc(args) -> int:
    """Prune unreachable objects from the result store."""
    from .runtime.store import ResultStore

    store = ResultStore(args.cache_dir)
    report = store.gc(dry_run=args.dry_run)
    if args.json:
        import json
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    verb = "would prune" if args.dry_run else "pruned"
    print(f"store gc ({store.root}): scanned {report['scanned']}, "
          f"kept {report['kept']}, {verb} {report['pruned']} "
          f"({report['bytes']} bytes)")
    for reason, count in sorted(report["reasons"].items()):
        if count:
            print(f"  {reason}: {count}")
    if args.verbose:
        for victim in report["victims"]:
            print(f"  {verb}: {victim['object']} "
                  f"[{victim['reason']}] {victim['detail']}")
    return 0


def _check_telemetry(failures) -> None:
    """Append every series the metric table does not declare."""
    from .telemetry import snapshot_counters, unknown_labels
    unknown = unknown_labels(snapshot_counters())
    if unknown:
        failures.append("undeclared telemetry: " + ", ".join(unknown))


def _serve_load_chaos(args, instances, store) -> int:
    """``repro serve load --chaos``: storm + kill + stall, then the
    quiesced bit-identical convergence gate."""
    from .dynamic import run_chaos

    print(f"chaos: {len(instances)} instances (n={args.n}), "
          f"{args.chaos_duration:g}s storm, kills={args.kills}, "
          f"stalls={args.stalls}, bursts={args.bursts}",
          file=sys.stderr)
    report = run_chaos(
        instances, duration=args.chaos_duration, seed=args.seed,
        workers=args.workers or 2, solver=args.solver, store=store,
        kills=args.kills, stalls=args.stalls,
        mutation_bursts=args.bursts, burst_size=args.burst_size,
        max_staleness=(8 if args.max_staleness is None
                       else args.max_staleness),
        query_timeout=args.timeout)
    failures = []
    if not report.converged:
        detail = "; ".join(report.mismatches[:5]) or (
            "no fresh answers verified"
            if report.verified == 0
            else f"{report.failed_workers} workers failed for good")
        failures.append(f"chaos did not converge: {detail}")
    if (args.max_p95_ms is not None
            and report.latency_ms.get("p95", 0.0) > args.max_p95_ms):
        failures.append(
            f"chaos: served p95 {report.latency_ms['p95']:.2f}ms > "
            f"floor {args.max_p95_ms:.2f}ms")
    if args.check_telemetry:
        _check_telemetry(failures)
    record = {**report.as_json(), "failures": failures}
    if args.json:
        import json
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(_chaos_text(record))
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 0 if not failures else 1


def _chaos_text(record) -> str:
    """The text form of a ``serve load --chaos`` record."""
    lines = [
        f"chaos run: {record['queries_sent']} queries in "
        f"{record['duration']}s, outcomes {record['outcomes']}",
        f"injected: {record['mutation_batches']} mutation batches "
        f"({record['mutations_applied']} applied), {record['kills']} "
        f"kills ({record['restarts']} restarts), {record['stalls']} "
        "stalls",
        f"epochs after storm: {record['epochs']}",
        f"quiesce: {record['verified']} fresh answers verified -> "
        f"{'CONVERGED' if record['converged'] else 'DIVERGED'}",
    ]
    lines += [f"  mismatch: {m}" for m in record["mismatches"]]
    latency = record["latency_ms"]
    if latency:
        lines.append("served latency: " + ", ".join(
            f"{k} {latency[k]}ms" for k in ("p50", "p95", "p99")))
    return "\n".join(lines)


def cmd_serve_load(args) -> int:
    import json

    from .graphs.generators import random_instance
    from .runtime.store import ResultStore
    from .serve import (
        ServeDaemon,
        ServeFrontend,
        ShardedQueryService,
        generate_workload,
        run_load,
    )
    instances = [
        random_instance(args.n, seed=args.seed + i,
                        name=f"serve-{args.n}-{args.seed + i}")
        for i in range(args.instances)
    ]
    store = ResultStore(args.cache_dir) if args.cache_dir else None
    if args.chaos:
        return _serve_load_chaos(args, instances, store)
    if args.mode == "open" and not args.qps:
        raise SystemExit("error: --mode open needs a target --qps")
    if args.concurrency < 1:
        raise SystemExit(f"error: --concurrency must be positive, got "
                         f"{args.concurrency}")
    kinds = args.workload or ["uniform", "zipf", "adversarial",
                              "mixed"]
    daemon = ServeDaemon(instances, workers=args.workers, store=store,
                         solver=args.solver, build_seed=args.seed).start()
    loads = []
    try:
        frontend = ServeFrontend(daemon, default_timeout=args.timeout)
        try:
            for kind in kinds:
                queries = []
                for i, inst in enumerate(instances):
                    queries.extend(generate_workload(
                        kind, inst, args.queries // len(instances),
                        seed=args.seed + 17 * i))
                loads.append((kind, *run_load(
                    frontend, queries, mode=args.mode,
                    concurrency=args.concurrency, qps=args.qps,
                    timeout=args.timeout,
                    max_staleness=args.max_staleness)))
        finally:
            frontend.close()
    finally:
        # Scrape once, before the --check reference below answers in
        # this process: the scrape's registry families are this
        # process's, and the daemon's work alone belongs in them.
        stats = daemon.stats()
        exposition = daemon.exposition() if args.prometheus else None
        daemon.stop()
    # The bit-identity gate: every daemon answer must match the
    # library service on the same catalog.
    direct = (ShardedQueryService(instances, solver=args.solver,
                                  build_seed=args.seed)
              if args.check else None)
    reports = []
    failures = []
    for kind, results, report in loads:
        row = report.as_json()
        row["workload"] = kind
        if report.served != report.sent:
            unhappy = {k: v for k, v in report.outcomes.items()
                       if k not in ("ok", "stale")}
            if args.mode == "closed":
                failures.append(f"{kind}: non-ok outcomes {unhappy}")
        if direct is not None:
            mismatches = 0
            for res in results:
                if not res.ok:
                    continue
                q = res.query
                truth = direct.query(q.instance, q.s, q.t, q.edge)
                if truth.length != res.answer.length:
                    mismatches += 1
            row["mismatches"] = mismatches
            if mismatches:
                failures.append(f"{kind}: {mismatches} answers differ "
                                "from ShardedQueryService")
        if (args.max_p95_ms is not None and report.ok > 0
                and report.latency_ms["p95"] > args.max_p95_ms):
            failures.append(
                f"{kind}: p95 {report.latency_ms['p95']:.2f}ms"
                f" > floor {args.max_p95_ms:.2f}ms")
        reports.append(row)
    if args.stats_json:
        with open(args.stats_json, "w", encoding="utf-8") as fh:
            json.dump({**stats, "load": reports}, fh, indent=2,
                      sort_keys=True)
        print(f"stats written to {args.stats_json}")
    if exposition is not None:
        print(exposition)
    if args.check_telemetry:
        _check_telemetry(failures)
    if args.json:
        print(json.dumps({
            "config": {
                "n": args.n,
                "instances": args.instances,
                "workers": daemon.workers,
                "mode": args.mode,
                "qps": args.qps,
                "concurrency": args.concurrency,
                "solver": args.solver,
                "seed": args.seed,
            },
            "workloads": reports,
            "totals": stats["totals"],
            "restarts": stats["restarts"],
            "failures": failures,
        }, indent=2, sort_keys=True))
    else:
        rows = [[
            r["workload"], r["sent"], r["ok"],
            f"{r['achieved_qps']:.0f}",
            f"{r['latency_ms'].get('p50', 0):.2f}",
            f"{r['latency_ms'].get('p95', 0):.2f}",
            f"{r['latency_ms'].get('p99', 0):.2f}",
            r.get("mismatches", "-"),
        ] for r in reports]
        print(format_table(
            ["workload", "sent", "ok", "qps", "p50 ms", "p95 ms",
             "p99 ms", "mismatches"], rows,
            title=f"serve load: {args.instances} instances "
                  f"(n={args.n}), mode={args.mode}, "
                  f"workers={daemon.workers}"))
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 0 if not failures else 1


def _resolve_trace_path(path: str):
    """``latest`` resolves to the newest trace dir under the store."""
    import os
    if path != "latest":
        return path
    from .telemetry import latest_trace_dir
    root = os.environ.get("REPRO_CACHE_DIR", ".repro-cache")
    found = latest_trace_dir(root)
    if found is None:
        raise SystemExit(
            f"error: no trace directories under {root}/traces "
            "(run 'repro suite run --trace' first)")
    return found


def cmd_trace_summary(args) -> int:
    from .telemetry import format_summary, load_summary
    path = _resolve_trace_path(args.path)
    try:
        summary = load_summary(path, top=args.top)
    except (OSError, FileNotFoundError) as exc:
        raise SystemExit(f"error: cannot read trace: {exc}")
    if args.json:
        import json
        print(json.dumps(summary.as_json(), indent=2, sort_keys=True))
    else:
        print(format_summary(summary, title=f"trace {path}"))
    if args.check_reasons:
        unknown = summary.unknown_labels()
        if unknown:
            print("error: undeclared metrics/labels: "
                  + ", ".join(unknown), file=sys.stderr)
            return 1
    return 0


def cmd_trace_diff(args) -> int:
    from .telemetry import diff_summaries, format_diff, load_summary
    try:
        old = load_summary(_resolve_trace_path(args.old))
        new = load_summary(_resolve_trace_path(args.new))
    except (OSError, FileNotFoundError) as exc:
        raise SystemExit(f"error: cannot read trace: {exc}")
    diff = diff_summaries(old, new)
    if args.json:
        import json
        print(json.dumps(diff.as_json(), indent=2, sort_keys=True))
    else:
        print(format_diff(diff, threshold=args.threshold))
    return 1 if diff.regressions(args.threshold) else 0


def cmd_kernels_list(args) -> int:
    from .congest.dispatch import (
        GLOBAL_GATES,
        registry_json,
        table_rows,
    )
    if args.json:
        import json
        print(json.dumps(registry_json(), indent=2, sort_keys=True))
        return 0
    print(format_table(
        ["primitive", "lemma", "reference/fast", "vector",
         "vector constraints (fallback reasons)"],
        table_rows(),
        title="primitive dispatch table (repro.congest.dispatch)"))
    gates = ", ".join(g.reason for g in GLOBAL_GATES)
    print(f"global gates (checked first, every primitive): {gates}")
    print("reference/fast run the message engine atop their "
          "exchange fabric; vector runs the array kernel when every "
          "gate and constraint passes, else falls back to the message "
          "engine counting the first failing constraint's reason.")
    return 0


def cmd_info(_args) -> int:
    from .runtime import scenario_names
    print(f"repro {__version__} — reproduction of 'Optimal Distributed "
          "Replacement Paths' (PODC 2025)")
    print("experiments: 'repro suite run' checks the paper's claims "
          "(DESIGN.md); CI perf gates under benchmarks/")
    names = scenario_names()
    print(f"scenario catalog ({len(names)}): {', '.join(names)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p):
        p.add_argument("--family", default="random",
                       choices=["random", "chords", "grid", "layered"])
        p.add_argument("--n", type=int, default=100,
                       help="target instance size")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--weighted", action="store_true")

    p_solve = sub.add_parser("solve", help="run the paper's solver")
    add_instance_args(p_solve)
    p_solve.add_argument("--epsilon", type=float, default=None,
                         help="use Theorem 3 with this ε")
    p_solve.add_argument("--breakdown", action="store_true",
                         help="print the per-phase round ledger")
    p_solve.add_argument("--check", action="store_true",
                         help="verify against the centralized oracle")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser("compare",
                           help="Theorem 1 vs MR24b vs trivial")
    add_instance_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_lb = sub.add_parser("lower-bound",
                          help="Section 6 constructions + reduction")
    p_lb.add_argument("--k", type=int, default=2)
    p_lb.add_argument("--d", type=int, default=2)
    p_lb.add_argument("--p", type=int, default=1)
    p_lb.add_argument("--seed", type=int, default=0)
    p_lb.set_defaults(func=cmd_lower_bound)

    p_suite = sub.add_parser(
        "suite", help="scenario registry + parallel experiment engine")
    suite_sub = p_suite.add_subparsers(dest="suite_command",
                                       required=True)

    p_list = suite_sub.add_parser("list", help="show the catalog")
    p_list.set_defaults(func=cmd_suite_list)

    p_run = suite_sub.add_parser(
        "run", help="run scenario cells (parallel, cached) and check "
                    "the paper claims of every full grid")
    p_run.add_argument("--scenario", action="append", default=[],
                       help="scenario name (repeatable; default: all)")
    p_run.add_argument("--jobs", type=int, default=None,
                       help="parallel worker processes "
                            "(default: one per CPU)")
    p_run.add_argument("--smoke", action="store_true",
                       help="tiny parameter points only (CI-sized; "
                            "checks no claims)")
    from .congest.network import DEFAULT_FABRIC, FABRICS
    p_run.add_argument("--fabric", default=None,
                       choices=list(FABRICS),
                       help="force every cell onto one exchange engine "
                            "(cached separately per fabric; default: "
                            f"{DEFAULT_FABRIC})")
    p_run.add_argument("--no-cache", action="store_true",
                       help="ignore and do not update the "
                            "content-addressed result cache "
                            "(run manifests are still recorded)")
    p_run.add_argument("--no-record", action="store_true",
                       help="do not write a run manifest")
    p_run.add_argument("--cache-dir", default=None,
                       help="result store root (default .repro-cache "
                            "or $REPRO_CACHE_DIR)")
    p_run.add_argument("--timeout", type=float, default=300.0,
                       help="per-cell timeout in seconds")
    p_run.add_argument("--label", default="suite",
                       help="run-manifest label")
    p_run.add_argument("--trace", action="store_true",
                       help="record spans + counters into a JSONL "
                            "trace artifact under the store's traces/ "
                            "(read back with 'repro trace summary')")
    p_run.add_argument("--durations", type=int, default=0, metavar="N",
                       help="append a table of the N slowest cells")
    p_run.set_defaults(func=cmd_suite_run)

    p_diff = suite_sub.add_parser(
        "diff", help="compare two run manifests (JSONL), matching "
                     "cells with their fabric set aside")
    p_diff.add_argument("old", help="baseline run manifest path")
    p_diff.add_argument("new", help="candidate run manifest path")
    p_diff.set_defaults(func=cmd_suite_diff)

    p_query = sub.add_parser(
        "query", help="answer one replacement-path query from a "
                      "precomputed oracle")
    add_instance_args(p_query)
    p_query.add_argument("--source", type=int, default=None,
                         help="query source (default: the instance s)")
    p_query.add_argument("--target", type=int, default=None,
                         help="query target (default: the instance t)")
    p_query.add_argument("--edge", type=int, nargs=2, default=None,
                         metavar=("U", "V"),
                         help="failed edge (default: --fail-index)")
    p_query.add_argument("--fail-index", type=int, default=0,
                         help="fail the i-th edge of P (default 0)")
    p_query.add_argument("--solver", default="theorem1",
                         choices=["theorem1", "centralized"],
                         help="oracle construction solver")
    p_query.add_argument("--check", action="store_true",
                         help="verify against the centralized oracle")
    p_query.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="deadline over oracle build + query; on "
                              "expiry print a structured 'timeout' "
                              "outcome and exit 2 instead of hanging")
    p_query.add_argument("--json", action="store_true",
                         help="machine-readable JSON output")
    p_query.set_defaults(func=cmd_query)

    p_mutate = sub.add_parser(
        "mutate", help="replay a seeded mutation stream (fault "
                       "storms, regional failures, maintenance "
                       "windows) against one instance")
    add_instance_args(p_mutate)
    p_mutate.add_argument("--profile", default="burst",
                          choices=["burst", "storm", "regional",
                                   "maintenance"],
                          help="mutation stream profile")
    p_mutate.add_argument("--steps", type=int, default=3,
                          help="mutation batches to apply (each bumps "
                               "the topology epoch)")
    p_mutate.add_argument("--mutation-seed", type=int, default=0,
                          help="mutation stream seed (independent of "
                               "the instance seed)")
    p_mutate.add_argument("--burst-size", type=int, default=4,
                          help="mutations per burst batch")
    p_mutate.add_argument("--fraction", type=float, default=0.1,
                          help="edge fraction for storm/regional")
    p_mutate.add_argument("--radius", type=int, default=2,
                          help="BFS-ball radius for regional storms")
    p_mutate.add_argument("--window", type=int, default=4,
                          help="vertex window for maintenance")
    p_mutate.add_argument("--json", action="store_true",
                          help="machine-readable JSON output")
    p_mutate.set_defaults(func=cmd_mutate)

    p_store = sub.add_parser(
        "store", help="content-addressed result store maintenance")
    store_sub = p_store.add_subparsers(dest="store_command",
                                       required=True)
    p_gc = store_sub.add_parser(
        "gc", help="prune unreachable objects: corrupt files, "
                   "superseded code versions, superseded topology "
                   "epochs")
    p_gc.add_argument("--cache-dir", default=None,
                      help="store root (default .repro-cache or "
                           "$REPRO_CACHE_DIR)")
    p_gc.add_argument("--dry-run", action="store_true",
                      help="report what would be pruned without "
                           "deleting anything")
    p_gc.add_argument("--verbose", action="store_true",
                      help="list every pruned object")
    p_gc.add_argument("--json", action="store_true",
                      help="machine-readable JSON output")
    p_gc.set_defaults(func=cmd_store_gc)

    p_serve = sub.add_parser(
        "serve", help="sharded replacement-path query service")
    serve_sub = p_serve.add_subparsers(dest="serve_command",
                                       required=True)
    p_load = serve_sub.add_parser(
        "load", help="open/closed-loop load generation against the "
                     "daemon with p50/p95/p99 SLO gates")
    p_load.add_argument("--n", type=int, default=32,
                        help="instance size")
    p_load.add_argument("--instances", type=int, default=4,
                        help="instances in the served catalog")
    p_load.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: "
                             "min(CPUs, instances))")
    p_load.add_argument("--solver", default="theorem1",
                        choices=["theorem1", "centralized"],
                        help="oracle construction solver")
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--cache-dir", default=None,
                        help="spill store root (persists oracles "
                             "across worker restarts)")
    p_load.add_argument("--timeout", type=float, default=30.0,
                        help="per-request deadline in seconds")
    p_load.add_argument("--stats-json", default=None, metavar="PATH",
                        help="dump the daemon stats snapshot (shards, "
                             "totals, counters) to PATH on shutdown")
    p_load.add_argument("--prometheus", action="store_true",
                        help="print the Prometheus text exposition "
                             "on shutdown")
    p_load.add_argument("--queries", type=int, default=400,
                        help="total queries per workload")
    p_load.add_argument("--workload", action="append", default=[],
                        choices=["uniform", "zipf", "adversarial",
                                 "mixed"],
                        help="workload kind (repeatable; default: "
                             "all four)")
    p_load.add_argument("--mode", default="closed",
                        choices=["closed", "open"],
                        help="loop discipline (closed: concurrency "
                             "clients wait per query; open: submit "
                             "on schedule regardless)")
    p_load.add_argument("--qps", type=float, default=None,
                        help="target aggregate QPS (required for "
                             "open loop; optional pacing for closed)")
    p_load.add_argument("--concurrency", type=int, default=4,
                        help="closed-loop client threads")
    p_load.add_argument("--check", action="store_true",
                        help="verify every answer against a direct "
                             "ShardedQueryService on the same "
                             "catalog (bit-identity gate)")
    p_load.add_argument("--check-telemetry", action="store_true",
                        help="fail on any metric or label the metric "
                             "table does not declare (CI gate)")
    p_load.add_argument("--max-p95-ms", type=float, default=None,
                        help="fail any workload whose ok-request p95 "
                             "exceeds this many milliseconds")
    p_load.add_argument("--max-staleness", type=int, default=None,
                        metavar="EPOCHS",
                        help="per-request staleness budget: during "
                             "an oracle re-warm, answers up to this "
                             "many epochs old return 'stale' instead "
                             "of waiting")
    p_load.add_argument("--chaos", action="store_true",
                        help="run the chaos harness instead of plain "
                             "load: concurrent mutation bursts, "
                             "worker SIGKILLs, and worker stalls, then "
                             "a quiesced bit-identical convergence "
                             "gate")
    p_load.add_argument("--chaos-duration", type=float, default=3.0,
                        metavar="SECONDS",
                        help="chaos storm window (default 3s)")
    p_load.add_argument("--kills", type=int, default=1,
                        help="worker SIGKILLs to inject")
    p_load.add_argument("--stalls", type=int, default=1,
                        help="worker stalls to inject")
    p_load.add_argument("--bursts", type=int, default=3,
                        help="mutation bursts during the storm")
    p_load.add_argument("--burst-size", type=int, default=4,
                        help="mutations per burst")
    p_load.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    p_load.set_defaults(func=cmd_serve_load)

    p_trace = sub.add_parser(
        "trace", help="summarize / diff JSONL trace artifacts")
    trace_sub = p_trace.add_subparsers(dest="trace_command",
                                       required=True)
    p_tsum = trace_sub.add_parser(
        "summary", help="per-phase wall x ledger table, slowest "
                        "spans, fallback histogram")
    p_tsum.add_argument("path",
                        help="trace directory or .jsonl file "
                             "('latest' = newest under the store)")
    p_tsum.add_argument("--top", type=int, default=10,
                        help="slowest spans to list (default 10)")
    p_tsum.add_argument("--check-reasons", action="store_true",
                        help="fail when the trace holds a metric or "
                             "label the metric table does not declare, "
                             "such as an unregistered fallback reason "
                             "(CI gate)")
    p_tsum.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")
    p_tsum.set_defaults(func=cmd_trace_summary)

    p_tdiff = trace_sub.add_parser(
        "diff", help="phase-level wall + rounds comparison of two "
                     "traces")
    p_tdiff.add_argument("old", help="baseline trace dir/file")
    p_tdiff.add_argument("new", help="candidate trace dir/file")
    p_tdiff.add_argument("--threshold", type=float, default=0.25,
                         help="wall-regression threshold as a "
                              "fraction (default 0.25 = +25%%)")
    p_tdiff.add_argument("--json", action="store_true",
                         help="machine-readable JSON output")
    p_tdiff.set_defaults(func=cmd_trace_diff)

    p_kernels = sub.add_parser(
        "kernels", help="the primitive registry / dispatch table")
    kernels_sub = p_kernels.add_subparsers(dest="kernels_command",
                                           required=True)
    p_klist = kernels_sub.add_parser(
        "list", help="print the primitive x fabric dispatch table")
    p_klist.add_argument("--json", action="store_true",
                         help="machine-readable full registry dump")
    p_klist.set_defaults(func=cmd_kernels_list)

    p_info = sub.add_parser("info", help="version and experiment map")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
