"""Tests for repro.telemetry — spans, counters, sink, and tooling.

The three design promises, each asserted here:

1. results are untouched: traced runs are bit-identical (outputs and
   ledgers) to untraced runs on every fabric;
2. fork-safe: the registry and tracer reset on first touch in a
   ``pool_map`` worker, so child processes never re-report the
   parent's state;
3. disabled is (nearly) free: the committed microbench's overhead
   bound holds.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import sys
import threading

import pytest

from repro import telemetry
from repro.cli import main
from repro.congest.dispatch import (
    REASON_FABRIC,
    REASON_RECORD_LINK_TOTALS,
    known_kernels,
)
from repro.congest.metrics import RoundLedger
from repro.core.rpaths import solve_rpaths
from repro.core.two_sisp import solve_two_sisp
from repro.graphs import grid_instance, random_instance
from repro.runtime.executor import pool_map
from repro.telemetry import counters as counters_mod
from repro.telemetry import schema
from repro.telemetry import sink as sink_mod
from repro.telemetry import tooling

FABRICS = ("reference", "fast", "vector")


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends untraced with a clean registry."""
    telemetry.disable_tracing()
    telemetry.drain_spans()
    counters_mod.registry.reset()
    yield
    telemetry.disable_tracing()
    telemetry.drain_spans()
    counters_mod.registry.reset()


# -- promise 1: traced == untraced -------------------------------------------


class TestTracedBitIdentical:
    @pytest.mark.parametrize("fabric", FABRICS)
    def test_solve_rpaths_identical(self, fabric, tmp_path):
        instance = grid_instance(4, 6)
        plain = solve_rpaths(instance, fabric=fabric)
        telemetry.enable_tracing(tmp_path / fabric)
        try:
            traced = solve_rpaths(instance, fabric=fabric)
        finally:
            telemetry.flush(tmp_path / fabric)
            telemetry.disable_tracing()
        assert traced.lengths == plain.lengths
        assert traced.ledger.report() == plain.ledger.report()

    @pytest.mark.parametrize("fabric", FABRICS)
    def test_two_sisp_identical(self, fabric):
        instance = random_instance(30, seed=5)
        plain = solve_two_sisp(instance, use_oracle_knowledge=True,
                               fabric=fabric)
        telemetry.enable_tracing()
        try:
            traced = solve_two_sisp(instance, use_oracle_knowledge=True,
                                    fabric=fabric)
        finally:
            telemetry.disable_tracing()
        assert traced.length == plain.length
        assert (traced.rpaths.ledger.report()
                == plain.rpaths.ledger.report())

    def test_apx_identical(self):
        from repro.approx.apx_rpaths import solve_apx_rpaths
        instance = random_instance(24, seed=3, weighted=True)
        plain = solve_apx_rpaths(instance, epsilon=0.5)
        telemetry.enable_tracing()
        try:
            traced = solve_apx_rpaths(instance, epsilon=0.5)
        finally:
            telemetry.disable_tracing()
        assert traced.lengths == plain.lengths
        assert traced.ledger.report() == plain.ledger.report()

    def test_solver_span_joins_ledger(self, tmp_path):
        instance = grid_instance(4, 5)
        telemetry.enable_tracing(tmp_path)
        try:
            report = solve_rpaths(instance, fabric="vector")
        finally:
            telemetry.flush(tmp_path)
            telemetry.disable_tracing()
        spans, counters, _info = telemetry.read_trace(tmp_path)
        [root] = [s for s in spans if s["name"] == "solve/rpaths"]
        assert root["rounds"] == report.rounds
        assert root["messages"] == report.messages
        assert root["wall"] > 0
        phases = {s["name"] for s in spans}
        assert "phase/long-detour(P5.1)" in phases
        assert any(n.startswith("kernel/") for n in phases)
        # All ten kernels hit the vector path on the vector fabric.
        hits = {k for k, o, r, _c in tooling.dispatch_rows(counters)
                if o == "vector"}
        assert hits == set(known_kernels())


# -- promise 2: fork safety --------------------------------------------------


def _fork_probe(tag):
    """Module-level pool_map worker: inc one counter, report state."""
    counters_mod.registry.inc("repro_test_fork_total")
    return (os.getpid(),
            counters_mod.registry.value("repro_test_fork_total"),
            len(telemetry.trace.drain_spans()))


class TestForkSafety:
    def test_registry_resets_in_workers(self):
        parent_pid = os.getpid()
        for _ in range(5):
            counters_mod.registry.inc("repro_test_fork_total")
        payloads = ["a", "b", "c", "d"]
        outcomes = pool_map(_fork_probe, payloads, jobs=2)
        assert counters_mod.registry.value(
            "repro_test_fork_total") == 5
        for pid, value, leaked_spans in outcomes:
            if pid == parent_pid:
                continue  # serial fallback platforms
            # A worker starts from zero (never from the parent's 5);
            # process reuse can push it up to len(payloads).
            assert 1 <= value <= len(payloads)
            assert leaked_spans == 0

    def test_worker_traces_flush_per_pid(self, tmp_path):
        from repro.runtime.results import CellSpec
        from repro.runtime.executor import run_cells
        telemetry.enable_tracing(tmp_path)
        try:
            specs = [CellSpec.make("exact-grid",
                                   {"rows": 3, "cols": 4}, seed)
                     for seed in range(2)]
            results = run_cells(specs, jobs=2)
        finally:
            telemetry.disable_tracing()
        assert all(r.ok for r in results)
        spans, counters, info = telemetry.read_trace(tmp_path)
        assert any(s["name"] == "cell/exact-grid" for s in spans)
        assert any(k.startswith("repro_executor_cells_total")
                   for k in counters)
        # One trace file per participating process, no double counting.
        pids = {s["pid"] for s in spans}
        assert info["files"] == len(list(
            pathlib.Path(tmp_path).glob("trace-*.jsonl")))
        assert len(pids) >= 1


# -- promise 3: disabled overhead --------------------------------------------


class TestDisabledOverhead:
    def test_microbench_bound(self):
        bench_dir = str(pathlib.Path(__file__).resolve().parents[1]
                        / "benchmarks")
        if bench_dir not in sys.path:
            sys.path.insert(0, bench_dir)
        from bench_telemetry import MAX_OVERHEAD, measure_overhead
        # The median over interleaved passes is robust but not immune
        # to a loaded machine: escalate passes before calling it a
        # failure.
        result = None
        for passes in (5, 9, 15):
            result = measure_overhead(passes=passes, rows=4, cols=10)
            if result["overhead"] < MAX_OVERHEAD:
                break
        assert result["overhead"] < MAX_OVERHEAD, result


class TestDisabledCallCounts:
    """The disabled path's cost, counted instead of timed: how often a
    pinned solve enters each hot site with tracing off.  A site added
    inside a per-round loop moves a count, whatever the host's load.

    Per fabric: ``RoundLedger.phase`` calls, ``span`` calls (the
    solver entry point's), kernel dispatch decisions, and vector
    kernels run (each behind its ``kernel/<name>`` span guard).
    """

    PINNED = {
        "fast": {"phase": 16, "span": 1, "dispatch": 14, "kernel": 0},
        "vector": {"phase": 16, "span": 1, "dispatch": 14, "kernel": 14},
    }

    @pytest.mark.parametrize("fabric", sorted(PINNED))
    def test_grid_solve_hot_site_calls(self, monkeypatch, fabric):
        from collections import Counter

        counts = Counter()

        def counting(site, fn):
            def wrapper(*args, **kwargs):
                counts[site] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(RoundLedger, "phase",
                            counting("phase", RoundLedger.phase))
        span = counting("span", telemetry.trace.span)
        monkeypatch.setattr(telemetry, "span", span)
        monkeypatch.setattr(telemetry.trace, "span", span)
        solve_rpaths(grid_instance(4, 10), fabric=fabric)
        dispatched = {
            key: value for key, value in
            counters_mod.snapshot_counters()["counters"].items()
            if key.startswith(schema.KERNEL_DISPATCH.name + "{")}
        counts["dispatch"] = sum(dispatched.values())
        counts["kernel"] = sum(value for key, value in dispatched.items()
                               if 'outcome="vector"' in key)
        assert dict(counts) == self.PINNED[fabric]


# -- spans and sink ----------------------------------------------------------


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        ledger = RoundLedger()
        sp = telemetry.span("x", ledger=ledger)
        assert sp is telemetry.trace._NOOP
        with sp as inner:
            inner.set_attrs(ignored=True)
            inner.set_ledger(ledger)

    def test_nesting_and_ledger_deltas(self):
        telemetry.enable_tracing()
        ledger = RoundLedger()
        with telemetry.span("outer", ledger=ledger):
            with ledger.phase("p1"):
                ledger.charge_round(3, 9, 1)
            with ledger.phase("p2"):
                ledger.charge_round(2, 4, 1)
        spans = telemetry.drain_spans()
        by_name = {s.name: s for s in spans}
        assert by_name["outer"].rounds == 2
        assert by_name["outer"].messages == 5
        assert by_name["phase/p1"].rounds == 1
        assert by_name["phase/p1"].parent_id == by_name["outer"].span_id
        assert by_name["phase/p1"].depth == 1

    def test_set_ledger_fresh_claims_from_zero(self):
        telemetry.enable_tracing()
        ledger = RoundLedger()
        with ledger.phase("warm"):
            ledger.charge_round(1, 1, 1)
        with telemetry.span("late") as sp:
            sp.set_ledger(ledger, fresh=True)
        [late] = [s for s in telemetry.drain_spans()
                  if s.name == "late"]
        assert late.rounds == 1  # pre-span charge counted

    def test_counters_snapshot_seq_dedup(self, tmp_path):
        telemetry.enable_tracing(tmp_path)
        counters_mod.registry.inc("repro_test_seq_total")
        telemetry.flush(tmp_path)
        telemetry.flush(tmp_path)  # second snapshot, same value
        telemetry.disable_tracing()
        _spans, counters, _info = telemetry.read_trace(tmp_path)
        assert counters["repro_test_seq_total"] == 1

    def test_reader_skips_garbage_and_foreign_schema(self, tmp_path):
        good = {"v": sink_mod.SCHEMA, "kind": "span", "name": "ok",
                "wall": 0.5, "pid": 1}
        path = tmp_path / "trace-1.jsonl"
        path.write_text("\n".join([
            json.dumps(good),
            "not json at all {",
            json.dumps({"v": "other-schema/9", "kind": "span"}),
            json.dumps({"v": "repro-trace/99", "kind": "span",
                        "name": "future", "pid": 2}),
        ]) + "\n")
        spans, _counters, info = telemetry.read_trace(tmp_path)
        assert {s["name"] for s in spans} == {"ok", "future"}
        assert info["bad_lines"] == 2
        assert info["unknown_versions"] == ["repro-trace/99"]


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_labels_and_exposition(self):
        reg = counters_mod.MetricsRegistry()
        reg.inc("x_total", kernel="a", outcome="vector")
        reg.inc("x_total", 2, kernel="a", outcome="fallback")
        reg.set_gauge("g", 7)
        reg.observe("lat_seconds", 0.5)
        reg.observe("lat_seconds", 1.5)
        snap = reg.snapshot()
        assert snap["counters"][
            'x_total{kernel="a",outcome="fallback"}'] == 2
        assert snap["summaries"]["lat_seconds"]["count"] == 2
        assert snap["summaries"]["lat_seconds"]["max"] == 1.5
        text = schema.exposition(reg)
        assert "# TYPE x_total counter" in text
        assert 'x_total{kernel="a",outcome="vector"} 1' in text
        assert "lat_seconds_sum 2" in text

    def test_concurrent_writes_lose_nothing(self):
        reg = counters_mod.MetricsRegistry()
        bound = counters_mod.BoundCounter(reg, "b_total", {})
        threads, per = 4, 25_000

        def work():
            for _ in range(per):
                reg.inc("a_total")
                bound.inc()
                reg.observe("s_seconds", 1.0)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleaving mid-update
        try:
            workers = [threading.Thread(target=work)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(worker.is_alive() for worker in workers)
        assert reg.value("a_total") == threads * per
        assert reg.value("b_total") == threads * per
        assert (reg.snapshot()["summaries"]["s_seconds"]["count"]
                == threads * per)

    def test_series_roundtrip(self):
        name, labels = counters_mod.parse_series(
            counters_mod.series_name(
                "n_total", (("a", "1"), ("b", "x"))))
        assert name == "n_total"
        assert labels == {"a": "1", "b": "x"}

    def test_merge_snapshots_sums_across_pids(self):
        merged = counters_mod.merge_counter_snapshots([
            {"counters": {"a_total": 1, "b_total": 2}},
            {"counters": {"a_total": 3}},
        ])
        assert merged == {"a_total": 4, "b_total": 2}


# -- dispatch accounting -----------------------------------------------------


class TestDispatchAccounting:
    def test_fallback_histogram_on_known_fallback_scenario(self):
        # record_link_totals forces every kernel off the vector path
        # with a specific, enumerated reason.
        instance = grid_instance(3, 5)
        net = instance.build_network(fabric="vector")
        net.record_link_totals = True
        from repro.congest import kernels
        assert (kernels.vector_gate_reason(net)
                == REASON_RECORD_LINK_TOTALS)
        solve_rpaths(instance, fabric="vector")
        solve_rpaths(instance, fabric="fast")
        counters = counters_mod.registry.snapshot()["counters"]
        rows = tooling.dispatch_rows(counters)
        assert rows
        reasons = {r for _k, o, r, _c in rows if o == "fallback"}
        assert REASON_FABRIC in reasons
        assert telemetry.unknown_labels({"counters": counters}) == []

    def test_unknown_reason_flagged(self):
        counters = {
            'repro_kernel_dispatch_total{kernel="hop_bfs",'
            'outcome="fallback",reason="mystery-cause"}': 1.0,
            'repro_kernel_dispatch_total{kernel="not_a_kernel",'
            'outcome="vector"}': 1.0,
        }
        unknown = telemetry.unknown_labels({"counters": counters})
        assert any("mystery-cause" in u for u in unknown)
        assert any("not_a_kernel" in u for u in unknown)


# -- tooling: summary + diff -------------------------------------------------


def _span(name, wall, rounds=0, pid=1):
    return {"v": sink_mod.SCHEMA, "kind": "span", "name": name,
            "wall": wall, "rounds": rounds, "pid": pid}


class TestTooling:
    def test_summarize_aggregates_and_slowest(self):
        spans = [_span("phase/a", 0.2, 10), _span("phase/a", 0.3, 5),
                 _span("phase/b", 0.1, 7)]
        summary = tooling.summarize(spans, {}, top=2)
        agg = summary.aggregates["phase/a"]
        assert agg.count == 2
        assert agg.rounds == 15
        assert agg.wall == pytest.approx(0.5)
        assert [s["name"] for s in summary.slowest] == [
            "phase/a", "phase/a"]
        text = tooling.format_summary(summary)
        assert "phase/a" in text and "per-phase" in text

    def test_diff_regressions(self):
        old = tooling.summarize([_span("p", 1.0, 100)], {})
        new = tooling.summarize(
            [_span("p", 1.5, 100), _span("q", 0.1, 1)], {})
        diff = tooling.diff_summaries(old, new)
        assert diff.added == ["q"]
        assert [d.name for d in diff.regressions(0.25)] == ["p"]
        assert diff.regressions(0.6) == []
        text = tooling.format_diff(diff, threshold=0.25)
        assert "REGRESSION p" in text
        assert json.dumps(diff.as_json())  # JSON-safe

    def test_summary_as_json_schema(self):
        summary = tooling.summarize(
            [_span("phase/a", 0.2, 10)],
            {'repro_kernel_dispatch_total{kernel="hop_bfs",'
             'outcome="vector"}': 3.0})
        data = json.loads(json.dumps(summary.as_json()))
        assert data["phases"]["phase/a"]["rounds"] == 10
        assert data["fallbacks"][0]["kernel"] == "hop_bfs"
        assert data["unknown_labels"] == []


# -- satellites: ledger report, CLI surfaces ---------------------------------


class TestLedgerReportColumns:
    def test_report_includes_violations_and_max_link(self):
        ledger = RoundLedger()
        with ledger.phase("zz-probe"):
            ledger.charge_round(2, 6, 3, violations=1)
        text = ledger.report()
        header = text.splitlines()[0]
        assert "violations" in header
        assert "max link" in header
        row = [ln for ln in text.splitlines()
               if ln.startswith("zz-probe")][0]
        assert row.split()[-1] == "1"


class TestCliSurfaces:
    def test_suite_run_trace_and_durations(self, tmp_path, capsys):
        code = main([
            "suite", "run", "--smoke", "--scenario", "exact-grid",
            "--jobs", "1", "--trace", "--durations", "2",
            "--cache-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "slowest" in out
        assert "trace: " in out
        trace_dir = sink_mod.latest_trace_dir(tmp_path)
        assert trace_dir is not None

        code = main(["trace", "summary", str(trace_dir),
                     "--check-reasons", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "phases" in data and data["unknown_labels"] == []
        assert any(name.startswith("cell/") for name in data["phases"])

    def test_trace_diff_cli(self, tmp_path, capsys):
        old_file = tmp_path / "old" / "trace-1.jsonl"
        new_file = tmp_path / "new" / "trace-1.jsonl"
        for path, wall in ((old_file, 1.0), (new_file, 5.0)):
            path.parent.mkdir(parents=True)
            path.write_text(json.dumps(_span("p", wall, 10)) + "\n")
        code = main(["trace", "diff", str(old_file.parent),
                     str(new_file.parent)])
        out = capsys.readouterr().out
        assert code == 1  # 5x wall growth trips the default threshold
        assert "REGRESSION p" in out

    def test_trace_check_reasons_fails_on_unknown(self, tmp_path,
                                                  capsys):
        trace = tmp_path / "trace-9.jsonl"
        trace.write_text(json.dumps({
            "v": sink_mod.SCHEMA, "kind": "counters", "pid": 9,
            "seq": 1,
            "data": {"counters": {
                'repro_kernel_dispatch_total{kernel="hop_bfs",'
                'outcome="fallback",reason="mystery-cause"}': 1,
            }},
        }) + "\n")
        code = main(["trace", "summary", str(tmp_path),
                     "--check-reasons"])
        capsys.readouterr()
        assert code == 1

    def test_trace_check_reasons_sees_summaries(self, tmp_path, capsys):
        width = 'repro_executor_cell_seconds{scenario="exact-grid"}'
        for pid, summaries in (
                (7, {width: {"count": 2, "sum": 8, "min": 4, "max": 4}}),
                (8, {width: {"count": 1, "sum": 2, "min": 2, "max": 2},
                     'repro_pool_wait_seconds{site="nowhere"}': {
                         "count": 1, "sum": 0.5, "min": 0.5,
                         "max": 0.5}})):
            (tmp_path / f"trace-{pid}.jsonl").write_text(json.dumps({
                "v": sink_mod.SCHEMA, "kind": "counters", "pid": pid,
                "seq": 1, "data": {"summaries": summaries},
            }) + "\n")
        code = main(["trace", "summary", str(tmp_path),
                     "--check-reasons", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["unknown_labels"] == [
            "repro_pool_wait_seconds:site:<undeclared label>"]
        assert data["info"]["summaries"] == [
            width, 'repro_pool_wait_seconds{site="nowhere"}']

    def test_query_json(self, capsys):
        code = main(["query", "--family", "grid", "--n", "20",
                     "--check", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["check"] is True
        assert data["kind"] == "hit-path-edge"
        assert isinstance(data["length"], int)


# -- strict Prometheus text format -------------------------------------------

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE = re.compile(rf"({_NAME})(?:{{(.*)}})? (\S+)")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\.)*)"')
_SUFFIXES = {"counter": ("",), "gauge": ("",), "untyped": ("",),
             "summary": ("", "_sum", "_count"),
             "histogram": ("_bucket", "_sum", "_count")}


def parse_exposition(text):
    """Families of a text exposition; asserts what scrapers rely on.

    One ``# HELP`` and one ``# TYPE`` per family, both before its
    samples; no family repeated; every sample named by its family plus
    a suffix its type allows; well-formed labels and values; no
    duplicate series.
    """
    families, current, series = {}, None, set()
    for line in text.splitlines():
        if line.startswith("#"):
            _hash, keyword, name, rest = (line.split(" ", 3) + [""])[:4]
            assert keyword in ("HELP", "TYPE"), line
            assert re.fullmatch(_NAME, name), line
            if name != current:
                assert name not in families, f"{name} repeated"
                families[name] = {"samples": []}
                current = name
            family = families[name]
            assert keyword not in family, f"second {keyword}: {line}"
            assert not family["samples"], f"{keyword} after samples"
            if keyword == "TYPE":
                assert rest in _SUFFIXES, line
            family[keyword] = rest
            continue
        match = _SAMPLE.fullmatch(line)
        assert match, f"malformed sample: {line!r}"
        name, labels, value = match.groups()
        float(value)
        family = families.get(current)
        assert family and "HELP" in family and "TYPE" in family, line
        assert name[len(current):] in _SUFFIXES[family["TYPE"]] \
            and name.startswith(current), f"{name} in {current}"
        pairs = labels.split(",") if labels else []
        assert all(_LABEL.fullmatch(p) for p in pairs), line
        assert (name, labels) not in series, f"duplicate {line}"
        series.add((name, labels))
        family["samples"].append(line)
    return families


class TestExpositionFormat:
    def test_parser_rejects_what_scrapers_reject(self):
        good = "# HELP a_total A.\n# TYPE a_total counter\na_total 1\n"
        assert parse_exposition(good)["a_total"]["samples"]
        for bad in ("# TYPE a_total counter\na_total 1\n",
                    good + "# HELP a_total A.\n",
                    good.replace("a_total 1", "a_total_min 1"),
                    good + good):
            with pytest.raises(AssertionError):
                parse_exposition(bad)

    def test_service_and_daemon_expositions_are_strict(self):
        """Both serving paths scrape the same per-shard series, and
        each scrape parses strictly even when the process registry
        already holds series of the families it renders."""
        from repro.serve import (
            ServeDaemon,
            ShardedQueryService,
            generate_workload,
        )
        from repro.serve.shard import stat_names
        _record_every_declared_value()
        instances = [random_instance(16, seed=i, name=f"prom-{i}")
                     for i in range(3)]
        queries = [q for i, inst in enumerate(instances)
                   for q in generate_workload("mixed", inst, 6, seed=i)]
        service = ShardedQueryService(instances, shards=2,
                                      solver="centralized")
        service.warm()  # as a daemon worker does before its first batch
        daemon = ServeDaemon(instances, workers=2, solver="centralized")
        try:
            daemon.start()
            # One query per batch on both sides: an LRU hit counts
            # once per batch.
            for q in queries:
                assert (service.query(q.instance, q.s, q.t, q.edge).length
                        == daemon.query(q.instance, q.s, q.t, q.edge,
                                        timeout=60).length)
            schema.SERVE_REQUEST_SECONDS.observe(0.001)
            scrapes = [parse_exposition(service.exposition()),
                       parse_exposition(daemon.exposition())]
        finally:
            daemon.stop()
        request = scrapes[1]["repro_serve_request_seconds"]
        assert request["TYPE"] == "summary"
        assert request["HELP"] == schema.SERVE_REQUEST_SECONDS.help
        for families in scrapes:
            assert families["repro_serve_shard_total"]["TYPE"] == "counter"
            assert families["repro_serve_hot_oracles"]["TYPE"] == "gauge"
        for name in ("repro_serve_shard_total", "repro_serve_hot_oracles"):
            service_series, daemon_series = (
                sorted(families[name]["samples"]) for families in scrapes)
            assert service_series == daemon_series
        counted = {re.search(r'stat="(\w+)"', sample).group(1)
                   for sample in scrapes[1]["repro_serve_shard_total"][
                       "samples"] if 'shard="1"' in sample}
        assert counted == set(stat_names())
        assert 'repro_serve_inflight{shard="1"} 0' in (
            scrapes[1]["repro_serve_inflight"]["samples"])
        assert not any(name.startswith("repro_serve_shard_")
                       and name != "repro_serve_shard_total"
                       for families in scrapes for name in families)


class TestMetricTableDoc:
    def test_design_table_matches_declarations(self):
        design = (pathlib.Path(__file__).resolve().parents[1]
                  / "DESIGN.md").read_text()
        begin = "<!-- metric-table:begin -->\n"
        end = "\n<!-- metric-table:end -->"
        committed = design.split(begin, 1)[1].split(end, 1)[0]
        assert committed == schema.markdown_table(), (
            "DESIGN.md's metric table drifted from repro.telemetry."
            "schema; paste schema.markdown_table() between its markers")


# -- serve stats surface -----------------------------------------------------


class TestServeStats:
    def test_stats_and_exposition(self):
        from repro.serve import ShardedQueryService, generate_workload
        instances = [random_instance(16, seed=i) for i in range(2)]
        service = ShardedQueryService(instances, shards=2, capacity=1)
        queries = []
        for inst in instances:
            queries.extend(generate_workload("uniform", inst, 10,
                                             seed=1))
        service.serve(queries)
        stats = service.stats()
        assert stats["totals"]["queries"] == len(queries)
        assert len(stats["shards"]) == 2
        assert "counters" in stats
        assert json.dumps(stats)  # JSON-safe
        text = service.exposition()
        assert 'repro_serve_shard_total{shard="0",stat="queries"}' in text
        assert "# TYPE repro_serve_shard_total counter" in text


# -- metric schema: scale-out and serve-daemon label enums ------------------


def _record_every_declared_value():
    """One series per declared metric and closed-enum combination."""
    import itertools
    for metric in schema.METRICS.values():
        names = list(metric.labels)
        choices = [sorted(metric.legal(n) or {"x"}) for n in names]
        for values in itertools.product(*choices):
            labels = dict(zip(names, values))
            if metric.kind == "counter":
                metric.inc(**labels)
            elif metric.kind == "gauge":
                metric.set(1, **labels)
            else:
                metric.observe(1.0, **labels)


class TestScaleEnums:
    """The scale-out counters are a closed surface, dispatch-style."""

    def test_real_scaleout_run_emits_only_known_labels(self):
        pytest.importorskip("numpy")
        instance = random_instance(40, seed=23)
        solve_rpaths(instance, fabric="vector")
        snap = counters_mod.registry.snapshot()
        counters = snap["counters"]
        # The run actually exercised the surface being enum-checked.
        for metric in (schema.TOPOLOGY_EXPORT, schema.SENDPLAN_CACHE):
            assert any(k.startswith(metric.name) for k in counters)
        assert telemetry.unknown_labels(snap) == []

    def test_every_recording_helper_is_in_enum(self):
        _record_every_declared_value()
        snap = counters_mod.registry.snapshot()
        assert len({key.partition("{")[0] for section in snap.values()
                    for key in section}) == len(schema.METRICS)
        assert telemetry.unknown_labels(snap) == []

    def test_unknown_scale_labels_flagged(self):
        counters = {
            'repro_sendplan_cache_total{outcome="explode"}': 1.0,
            'repro_topology_export_total{array="somewhere",'
            'dtype="int32"}': 1.0,
            'repro_topology_export_total{array="keys",'
            'dtype="float64"}': 1.0,
            "repro_sendplan_cache_total": 1.0,  # missing label
            'repro_store_puts_total{shard="1"}': 1.0,
            "repro_made_up_total": 1.0,
        }
        unknown = telemetry.unknown_labels({
            "counters": counters,
            "summaries": {"repro_serve_queue_depth": {"count": 1}}})
        assert any("explode" in u for u in unknown)
        assert any("somewhere" in u for u in unknown)
        assert any("float64" in u for u in unknown)
        assert any("<missing>" in u for u in unknown)
        assert any("<undeclared label>" in u for u in unknown)
        assert "undeclared:repro_made_up_total" in unknown
        assert "repro_serve_queue_depth:recorded as summary" in unknown

    def test_gauges_surface_in_summary(self, tmp_path):
        telemetry.enable_tracing(tmp_path)
        try:
            schema.PEAK_RSS_BYTES.set(2.0 * (1 << 30))
            telemetry.flush()
        finally:
            telemetry.disable_tracing()
        summary = tooling.load_summary(tmp_path)
        assert summary.gauges[schema.PEAK_RSS_BYTES.name] == 2.0 * (1 << 30)
        rendered = tooling.format_summary(summary)
        assert "repro_peak_rss_bytes" in rendered
        assert "2048.0 MiB" in rendered
        assert "gauges" in summary.as_json()


class TestServingEnums:
    """The serve-daemon counters are a closed surface, dispatch-style."""

    def test_every_recording_helper_is_in_enum(self):
        for event in schema.SERVE_DAEMON_EVENTS.legal("event"):
            schema.SERVE_DAEMON_EVENTS.inc(event=event)
        for outcome in schema.SERVE_ADMISSION.legal("outcome"):
            schema.SERVE_ADMISSION.inc(outcome=outcome)
        snap = counters_mod.registry.snapshot()
        assert telemetry.unknown_labels(snap) == []

    def test_unknown_serving_labels_flagged(self):
        counters = {
            'repro_serve_daemon_events_total{event="imploded"}': 1.0,
            'repro_serve_admission_total{outcome="maybe"}': 2.0,
            "repro_serve_admission_total": 1.0,  # missing label
            'repro_serve_daemon_events_total{event="resubmit"}': 1.0,
        }
        unknown = telemetry.unknown_labels({"counters": counters})
        assert any("imploded" in u for u in unknown)
        assert any("maybe" in u for u in unknown)
        assert any("<missing>" in u for u in unknown)
        assert not any("resubmit" in u for u in unknown)

    def test_gauges_and_summary_record(self):
        schema.SERVE_QUEUE_DEPTH.set(7)
        schema.SERVE_INFLIGHT.set(12, shard="3")
        schema.SERVE_WORKERS_ALIVE.set(2)
        schema.SERVE_REQUEST_SECONDS.observe(0.004)
        snap = counters_mod.registry.snapshot()
        assert snap["gauges"]["repro_serve_queue_depth"] == 7
        assert snap["gauges"]['repro_serve_inflight{shard="3"}'] == 12
        assert snap["gauges"]["repro_serve_workers_alive"] == 2
        summary = snap["summaries"]["repro_serve_request_seconds"]
        assert summary["count"] >= 1
