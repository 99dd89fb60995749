"""Serve daemon: worker lifecycle, health, backpressure, identity.

The contract under test (ISSUE 9): long-lived worker processes own
their shards and warm once; stop is stop-flag + drain; health is
heartbeat-based (on the monotonic clock) with bounded restart and
spill re-warm; the front-end holds requests for a shard at its
in-flight cap in a bounded backlog and enforces per-request
deadlines; and every answer the daemon returns is
bit-identical to a direct :class:`ShardedQueryService` on the same
catalog, on every workload family.
"""

import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.graphs.generators import random_instance
from repro.runtime.store import ResultStore
from repro.serve import (
    OracleShard,
    Query,
    ServeDaemon,
    ServeFrontend,
    ShardedQueryService,
    WORKLOADS,
    centralized_truth,
    generate_workload,
    latency_summary_ms,
    percentile,
    run_load,
    verify_against_centralized,
)
from repro.serve import daemon as daemon_mod

# Timing knobs shared by every test.  A loaded CI runner stretches the
# *deadlines* (generous waits, long heartbeat grace) while keeping the
# *polling* tight, so slowness costs latency instead of flakes: the
# monitor still reacts in ~50ms on a healthy box, but a worker that
# takes seconds to respawn under load is never declared failed early.
WAIT_TIMEOUT = 30.0
MONITOR_INTERVAL = 0.05
HEARTBEAT_TIMEOUT = 10.0
QUERY_TIMEOUT = 60.0
#: A worker stall far shorter than HEARTBEAT_TIMEOUT: requests back up
#: behind it without the monitor restarting the worker.
STALL_SECONDS = 2.0


def _instances(count=3, n=20):
    return [random_instance(n, seed=s, name=f"daemon-test-{s}")
            for s in range(1, count + 1)]


def _daemon(insts, **kw):
    kw.setdefault("solver", "centralized")
    kw.setdefault("workers", min(2, len(insts)))
    kw.setdefault("monitor_interval", MONITOR_INTERVAL)
    kw.setdefault("heartbeat_timeout", HEARTBEAT_TIMEOUT)
    return ServeDaemon(insts, **kw)


def _wait_until(predicate, timeout=WAIT_TIMEOUT, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestLifecycle:
    def test_start_serve_drain_stop(self):
        insts = _instances()
        daemon = _daemon(insts)
        try:
            daemon.start()
            total = 0
            for inst in insts:
                edge = inst.path_edges()[0]
                answer = daemon.query(inst.name, inst.s, inst.t, edge,
                                      timeout=QUERY_TIMEOUT)
                direct = ShardedQueryService(
                    [inst], solver="centralized").query(
                        inst.name, inst.s, inst.t, edge)
                assert answer.length == direct.length
                total += 1
        finally:
            stats = daemon.stop()
        assert stats["totals"]["queries"] == total
        assert stats["restarts"] == 0
        assert json.dumps(stats)  # operator dump is JSON-safe

    def test_context_manager_and_idempotent_stop(self):
        insts = _instances(2)
        with _daemon(insts) as daemon:
            edge = insts[0].path_edges()[0]
            daemon.query(insts[0].name, insts[0].s, insts[0].t, edge,
                         timeout=QUERY_TIMEOUT)
        # __exit__ already stopped it; stop() again is a no-op.
        stats = daemon.stop()
        assert stats["totals"]["queries"] == 1

    def test_warm_builds_once_then_serves_hot(self):
        insts = _instances(2)
        daemon = _daemon(insts, workers=1)
        try:
            daemon.start()
            edge = insts[0].path_edges()[0]
            for _ in range(5):
                daemon.query(insts[0].name, insts[0].s, insts[0].t,
                             edge, timeout=QUERY_TIMEOUT)
            stats = daemon.stats()
        finally:
            daemon.stop()
        # Both instances were built exactly once, at warm time — the
        # queries themselves never triggered a build.
        assert stats["totals"]["oracle_builds"] == len(insts)

    def test_parent_runs_two_serve_threads(self):
        def serve_threads():
            return sorted(t.name for t in threading.enumerate()
                          if t.name.startswith("serve-"))

        insts = _instances(3)
        with _daemon(insts, workers=3) as daemon:
            frontend = ServeFrontend(daemon)
            for inst in insts:
                assert frontend.query(inst.name, inst.s, inst.t,
                                      inst.path_edges()[0]).ok
            running = serve_threads()
        assert running == ["serve-daemon-monitor", "serve-daemon-reader"]
        assert serve_threads() == []

    def test_submit_before_start_raises(self):
        daemon = _daemon(_instances(1))
        with pytest.raises(RuntimeError, match="not running"):
            daemon.query("daemon-test-1", 0, 1, (0, 1), timeout=1)

    def test_unknown_instance_raises(self):
        daemon = _daemon(_instances(1))
        with pytest.raises(KeyError, match="unknown instance"):
            daemon.shard_for_key("nope")

    def test_scrape_counts_answered_queries(self):
        """The workers' counts reach the parent's scrape as counters."""
        insts = _instances(3)
        queries = [q for i, inst in enumerate(insts)
                   for q in generate_workload("mixed", inst, 4, seed=i)]
        daemon = _daemon(insts, workers=2)
        try:
            daemon.start()
            for q in queries:
                daemon.query(q.instance, q.s, q.t, q.edge,
                             timeout=QUERY_TIMEOUT)
            text = daemon.exposition()
        finally:
            daemon.stop()
        assert "# TYPE repro_serve_shard_total counter" in text
        counted = [line.rsplit(" ", 1) for line in text.splitlines()
                   if line.startswith("repro_serve_shard_total{")
                   and 'stat="queries"' in line]
        assert {series.split('"')[1] for series, _ in counted} == {"0", "1"}
        assert sum(int(value) for _, value in counted) == len(queries)
        assert "repro_serve_shard_pid" not in text
        assert "repro_serve_workers_alive" in text


#: A 2-worker theorem-1 daemon under the start method named in argv[1]:
#: every path-edge answer must match the centralized truth.  Prints
#: whether this process had started a resource tracker once the
#: workers were warm.
_START_METHOD_SCRIPT = """
import multiprocessing, sys
from multiprocessing import resource_tracker
from repro.graphs.generators import random_instance
from repro.serve import ServeDaemon, centralized_truth

multiprocessing.set_start_method(sys.argv[1])
insts = [random_instance(16, seed=s, name=f"start-{s}") for s in (1, 2)]
with ServeDaemon(insts, workers=2) as daemon:
    tracker = resource_tracker._resource_tracker._pid
    for inst in insts:
        for edge in inst.path_edges():
            got = daemon.query(inst.name, inst.s, inst.t, edge, timeout=60)
            want = centralized_truth(inst, inst.s, inst.t, edge)
            assert got.length == want, (inst.name, edge, got.length, want)
print("tracker", "none" if tracker is None else "started")
"""


class TestStartMethods:
    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_daemon_runs_clean_under_each_start_method(self, method):
        """Under spawn and forkserver each worker's config crosses a
        pickle into a fresh interpreter, and the workers share the
        parent's resource tracker, which prints a traceback for any
        resource a worker unregisters behind the parent's back.  Under
        fork the daemon makes nothing the tracker would track, so the
        tracker is never started."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{method} is not available here")
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _START_METHOD_SCRIPT, method],
            capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert "Traceback" not in run.stderr, run.stderr
        if method == "fork":
            assert "tracker none" in run.stdout


class TestStartFollowsRestarts:
    """``start()`` waits on each worker's current generation: a worker
    that dies while warming and warms on its restart lets ``start()``
    return, and one that dies through its restart budget makes it
    raise at once.  Workers die by ``os._exit`` in a patched
    ``OracleShard.warm``, which only forked workers inherit."""

    #: Stands in for the two minutes ``start()`` allows a real warm.
    WARM_TIMEOUT = 6.0

    @pytest.fixture(autouse=True)
    def _forked_workers(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs the fork start method")
        monkeypatch.setattr(daemon_mod, "WARM_TIMEOUT", self.WARM_TIMEOUT)

    def test_returns_once_the_restarted_worker_warms(self, monkeypatch,
                                                      tmp_path):
        died = tmp_path / "died"
        warm = OracleShard.warm

        def die_once(shard):
            if not died.exists():
                died.touch()
                os._exit(3)
            warm(shard)

        monkeypatch.setattr(OracleShard, "warm", die_once)
        insts = _instances(1)
        daemon = _daemon(insts, workers=1, max_restarts=1)
        started = time.monotonic()
        try:
            daemon.start()
            took = time.monotonic() - started
            assert daemon._workers[0].restarts == 1
            inst = insts[0]
            edge = inst.path_edges()[0]
            answer = daemon.query(inst.name, inst.s, inst.t, edge,
                                  timeout=QUERY_TIMEOUT)
        finally:
            daemon.stop()
        assert took < self.WARM_TIMEOUT
        assert answer.length == centralized_truth(inst, inst.s, inst.t,
                                                  edge)

    def test_raises_once_the_restart_budget_is_spent(self, monkeypatch):
        monkeypatch.setattr(OracleShard, "warm",
                            lambda shard: os._exit(3))
        daemon = _daemon(_instances(1), workers=1, max_restarts=1)
        started = time.monotonic()
        with pytest.raises(RuntimeError,
                           match="worker 0 failed to warm: died 2 times"):
            daemon.start()
        assert time.monotonic() - started < self.WARM_TIMEOUT
        assert daemon._workers[0].failed


class TestHealth:
    def test_killed_worker_restarts_and_rewarms_from_spill(self, tmp_path):
        insts = _instances(2)
        store = ResultStore(tmp_path)
        daemon = _daemon(insts, workers=1, store=store,
                         max_restarts=2)
        try:
            daemon.start()
            worker = daemon._workers[0]
            assert worker.warm_stats["spill_saves"] == len(insts)
            first_pid = worker.pid
            edge = insts[0].path_edges()[0]
            before = daemon.query(insts[0].name, insts[0].s,
                                  insts[0].t, edge, timeout=QUERY_TIMEOUT)

            os.kill(first_pid, signal.SIGKILL)
            assert _wait_until(lambda: worker.restarts == 1)
            assert _wait_until(lambda: worker.pid != first_pid
                               and worker.ready.is_set())
            # The replacement re-warmed from the spill store instead
            # of rebuilding: loads, not builds.
            assert worker.warm_stats["spill_loads"] == len(insts)
            assert worker.warm_stats["oracle_builds"] == 0

            after = daemon.query(insts[0].name, insts[0].s,
                                 insts[0].t, edge, timeout=QUERY_TIMEOUT)
            assert after.length == before.length
        finally:
            stats = daemon.stop()
        assert stats["restarts"] == 1

    def test_query_submitted_while_dead_is_resubmitted(self):
        insts = _instances(1)
        daemon = _daemon(insts, workers=1)
        try:
            daemon.start()
            edge = insts[0].path_edges()[0]
            truth = daemon.query(insts[0].name, insts[0].s,
                                 insts[0].t, edge, timeout=QUERY_TIMEOUT)
            os.kill(daemon._workers[0].pid, signal.SIGKILL)
            # Submitted against the dead worker's queue; the monitor
            # must detect, respawn, and re-enqueue it.
            answer = daemon.query(insts[0].name, insts[0].s,
                                  insts[0].t, edge, timeout=QUERY_TIMEOUT)
            assert answer.length == truth.length
        finally:
            daemon.stop()

    def test_restart_budget_exhaustion_fails_pending_as_worker_lost(self):
        insts = _instances(1)
        daemon = _daemon(insts, workers=1,
                         max_restarts=0)
        try:
            daemon.start()
            worker = daemon._workers[0]
            os.kill(worker.pid, signal.SIGKILL)
            assert _wait_until(lambda: worker.failed)
            outcomes = []
            daemon.submit_batch(
                [Query(s=insts[0].s, t=insts[0].t,
                       edge=insts[0].path_edges()[0],
                       instance=insts[0].name)],
                lambda lengths, kinds, lags, error:
                outcomes.append(error))
            assert outcomes == ["worker-lost"]
        finally:
            daemon.stop()


class TestClock:
    def test_wall_clock_step_fires_no_timeout_or_restart(
            self, monkeypatch):
        """Deadlines, latencies and heartbeats run on the monotonic
        clock: a wall clock that jumps an hour while a request is out
        neither times the request out nor restarts the worker."""
        insts = _instances(1)
        daemon = _daemon(insts, workers=1)
        try:
            daemon.start()
            frontend = ServeFrontend(daemon,
                                     default_timeout=QUERY_TIMEOUT)
            try:
                inst = insts[0]
                # Hold the answer back across the jump and a few
                # monitor passes.
                daemon.inject_stall(0, 20 * MONITOR_INTERVAL)
                pending = frontend.submit(Query(
                    s=inst.s, t=inst.t, edge=inst.path_edges()[0],
                    instance=inst.name))
                wall = time.time
                monkeypatch.setattr(time, "time",
                                    lambda: wall() + 3600.0)
                result = pending.result()
                monkeypatch.undo()
                assert result.outcome == "ok"
                assert result.latency_seconds < QUERY_TIMEOUT
            finally:
                frontend.close()
            assert daemon.stats()["restarts"] == 0
        finally:
            daemon.stop()


class TestBackpressure:
    def test_saturated_queue_rejects_overloaded_then_recovers(self):
        insts = _instances(1)
        daemon = _daemon(insts, workers=1)
        try:
            daemon.start()
            frontend = ServeFrontend(daemon, max_queue=4,
                                     max_inflight=1,
                                     default_timeout=30.0)
            try:
                sid = daemon.shard_for_key(insts[0].name)
                edge = insts[0].path_edges()[0]

                def submit_one():
                    return frontend.submit(Query(
                        s=insts[0].s, t=insts[0].t, edge=edge,
                        instance=insts[0].name))

                # The worker reads the stall first, so nothing sent
                # after it is answered until the stall is over.
                stalled_at = time.monotonic()
                daemon.inject_stall(sid, STALL_SECONDS)
                # The first request takes the shard's one in-flight
                # slot; the next four are held at admission.
                held = [submit_one() for _ in range(5)]
                assert frontend.queue_depth() == 4

                rejected = submit_one()
                assert rejected.done
                result = rejected.result()
                assert result.outcome == "overloaded"
                assert result.answer is None
                # Every submit returned at once, inside the stall.
                assert time.monotonic() - stalled_at < STALL_SECONDS
                assert not any(p.done for p in held)

                # Once the stall ends, everything held at admission is
                # sent on and answers normally.
                results = [p.result() for p in held]
                assert all(r.ok for r in results)
                assert frontend.queue_depth() == 0
            finally:
                frontend.close()
        finally:
            daemon.stop()

    def test_expired_deadline_resolves_timeout(self):
        insts = _instances(1)
        daemon = _daemon(insts, workers=1)
        try:
            daemon.start()
            frontend = ServeFrontend(daemon)
            try:
                result = frontend.query(
                    insts[0].name, insts[0].s, insts[0].t,
                    insts[0].path_edges()[0], timeout=0.0)
                assert result.outcome == "timeout"
            finally:
                frontend.close()
        finally:
            daemon.stop()

    def test_daemon_not_started_resolves_error(self):
        insts = _instances(1)
        frontend = ServeFrontend(_daemon(insts, workers=1),
                                 max_inflight=1)
        inst = insts[0]
        for _ in range(2):  # the failed send frees its in-flight slot
            result = frontend.query(inst.name, inst.s, inst.t,
                                    inst.path_edges()[0])
            assert result.outcome == "error"
            assert "not running" in result.error
        assert frontend.queue_depth() == 0

    def test_closed_frontend_rejects_shutdown(self):
        insts = _instances(1)
        daemon = _daemon(insts, workers=1)
        try:
            daemon.start()
            frontend = ServeFrontend(daemon)
            frontend.close()
            result = frontend.query(
                insts[0].name, insts[0].s, insts[0].t,
                insts[0].path_edges()[0])
            assert result.outcome == "shutdown"
        finally:
            daemon.stop()


class TestBitIdentity:
    def test_every_workload_family_matches_direct_service(self):
        insts = _instances(3, n=20)
        direct = ShardedQueryService(insts, solver="centralized")
        daemon = _daemon(insts, workers=2)
        try:
            daemon.start()
            frontend = ServeFrontend(daemon, default_timeout=60.0)
            try:
                for kind in WORKLOADS:
                    queries = []
                    for i, inst in enumerate(insts):
                        queries.extend(generate_workload(
                            kind, inst, 8, seed=11 * (i + 1)))
                    pendings = [frontend.submit(q) for q in queries]
                    results = [p.result() for p in pendings]
                    assert all(r.ok for r in results), kind
                    for res in results:
                        q = res.query
                        truth = direct.query(q.instance, q.s, q.t,
                                             q.edge)
                        assert res.answer.length == truth.length, (
                            kind, q.label)
                    assert verify_against_centralized(
                        insts, [r.answer for r in results])
            finally:
                frontend.close()
        finally:
            daemon.stop()


class TestLoadgen:
    def test_percentile_interpolates(self):
        assert percentile([], 95) == 0.0
        assert percentile([7.0], 99) == 7.0
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 4.0
        assert percentile(samples, 50) == pytest.approx(2.5)
        summary = latency_summary_ms([0.001, 0.002, 0.003, 0.004])
        assert summary["p50"] == pytest.approx(2.5)
        assert summary["max"] == pytest.approx(4.0)

    def test_closed_loop_reports_all_ok(self):
        insts = _instances(2)
        daemon = _daemon(insts, workers=2)
        try:
            daemon.start()
            frontend = ServeFrontend(daemon, default_timeout=60.0)
            try:
                queries = []
                for i, inst in enumerate(insts):
                    queries.extend(generate_workload(
                        "mixed", inst, 15, seed=3 + i))
                results, report = run_load(frontend, queries,
                                           mode="closed",
                                           concurrency=3)
            finally:
                frontend.close()
        finally:
            daemon.stop()
        assert report.sent == len(queries)
        assert report.outcomes == {"ok": len(queries)}
        assert report.achieved_qps > 0
        assert report.latency_ms["p95"] >= report.latency_ms["p50"]
        assert json.dumps(report.as_json())

    def test_open_loop_requires_qps_and_paces(self):
        insts = _instances(1)
        daemon = _daemon(insts, workers=1)
        try:
            daemon.start()
            frontend = ServeFrontend(daemon, default_timeout=60.0)
            try:
                queries = generate_workload("uniform", insts[0], 10,
                                            seed=5)
                with pytest.raises(ValueError, match="qps"):
                    run_load(frontend, queries, mode="open")
                _results, report = run_load(frontend, queries,
                                            mode="open", qps=200.0)
            finally:
                frontend.close()
        finally:
            daemon.stop()
        assert report.ok == len(queries)
        # Open loop is paced: 10 queries at 200/s cannot finish
        # faster than the schedule allows.
        assert report.wall_seconds >= 9 / 200.0


class TestDynamicEpochs:
    """Live mutations against a running daemon (ISSUE 10)."""

    def _mutate(self, daemon, name, seed=2, count=4):
        from repro.dynamic import MutationStream
        stream = MutationStream(seed=seed)
        current = daemon.instance_for(name)
        result = daemon.apply_mutations(name,
                                        stream.burst(current, count))
        assert result.applied, "burst applied nothing"
        return result

    def test_mutation_bumps_epoch_and_fresh_answers_track_it(self):
        insts = _instances(1, n=16)
        daemon = _daemon(insts, workers=1)
        try:
            daemon.start()
            name = insts[0].name
            daemon.query(name, insts[0].s, insts[0].t,
                         insts[0].path_edges()[0],
                         timeout=QUERY_TIMEOUT)
            result = self._mutate(daemon, name)
            assert daemon.epoch_of(name) == result.epoch == 1
            new = daemon.instance_for(name)
            edge = new.path_edges()[0]
            answer = daemon.query(name, new.s, new.t, edge,
                                  timeout=QUERY_TIMEOUT)
            from repro.serve import centralized_truth
            assert answer.length == centralized_truth(
                new, new.s, new.t, edge)
            assert daemon.stats()["epochs"][name] == 1
        finally:
            daemon.stop()

    def test_stale_budget_serves_previous_epoch_during_rewarm(self):
        insts = _instances(1, n=16)
        # rebuild_delay wedges the re-warm long enough that a budgeted
        # query MUST take the stale path to answer quickly.
        daemon = _daemon(insts, workers=1, rebuild_delay=1.0)
        try:
            daemon.start()
            name = insts[0].name
            old = insts[0]
            old_edge = old.path_edges()[0]
            before = daemon.query(name, old.s, old.t, old_edge,
                                  timeout=QUERY_TIMEOUT)
            self._mutate(daemon, name)
            frontend = ServeFrontend(daemon,
                                     default_timeout=QUERY_TIMEOUT)
            try:
                start = time.time()
                res = frontend.query(name, old.s, old.t, old_edge,
                                     max_staleness=4)
                elapsed = time.time() - start
                assert res.outcome == "stale"
                assert res.lag == 1
                assert res.served
                # Previous-epoch oracle, previous-epoch answer — and
                # without waiting out the rebuild delay.
                assert res.answer.length == before.length
                assert elapsed < 1.0
                # Zero budget waits for the re-warm and gets fresh.
                new = daemon.instance_for(name)
                edge = new.path_edges()[0]
                fresh = frontend.query(name, new.s, new.t, edge,
                                       max_staleness=0)
                assert fresh.outcome == "ok"
                assert fresh.lag == 0
                from repro.serve import centralized_truth
                assert fresh.answer.length == centralized_truth(
                    new, new.s, new.t, edge)
            finally:
                frontend.close()
        finally:
            daemon.stop()

    def test_failed_background_rebuild_is_counted(self, monkeypatch):
        """A re-warm that raises lands in the shard stats (and the
        daemon totals); the fresh-demanding batch retries the build
        inline and reports the error instead of a wrong answer."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers must inherit the patched build")
        from repro.serve.oracle import ReplacementPathOracle
        build = ReplacementPathOracle.build.__func__

        def failing_build(cls, instance, *args, **kwargs):
            if instance.topology_version > 0:
                raise RuntimeError("injected rebuild failure")
            return build(cls, instance, *args, **kwargs)

        monkeypatch.setattr(ReplacementPathOracle, "build",
                            classmethod(failing_build))
        insts = _instances(1, n=16)
        daemon = _daemon(insts, workers=1)
        try:
            daemon.start()
            name = insts[0].name
            self._mutate(daemon, name)
            new = daemon.instance_for(name)
            with pytest.raises(RuntimeError,
                               match="injected rebuild failure"):
                daemon.query(name, new.s, new.t, new.path_edges()[0],
                             timeout=QUERY_TIMEOUT)
            assert daemon.stats()["totals"]["rebuild_failures"] == 1
        finally:
            daemon.stop()

    def test_restart_races_concurrent_invalidation(self):
        """Satellite: a worker killed right after an invalidation must
        re-warm against the NEW epoch (its config carries the mutated
        instance), resubmit pending requests exactly once, and answer
        them bit-identically to the new epoch's truth."""
        from repro.serve import centralized_truth
        insts = _instances(1, n=16)
        daemon = _daemon(insts, workers=1, max_restarts=2)
        try:
            daemon.start()
            name = insts[0].name
            daemon.query(name, insts[0].s, insts[0].t,
                         insts[0].path_edges()[0],
                         timeout=QUERY_TIMEOUT)
            self._mutate(daemon, name)
            worker = daemon._workers[0]
            first_pid = worker.pid
            new = daemon.instance_for(name)
            edge = new.path_edges()[0]

            os.kill(first_pid, signal.SIGKILL)
            # Submitted while (possibly) dead: the monitor respawns,
            # the replacement warms from the daemon's current catalog
            # (epoch 1, not the pre-mutation instance), and the
            # pending request is resubmitted against it.
            calls = []
            daemon.submit_batch(
                [Query(s=new.s, t=new.t, edge=edge, instance=name)],
                lambda lengths, kinds, lags, error:
                calls.append((lengths, error)))
            assert _wait_until(lambda: len(calls) >= 1)
            lengths, error = calls[0]
            assert error == ""
            assert lengths[0] == centralized_truth(new, new.s, new.t,
                                                   edge)
            assert _wait_until(lambda: worker.restarts == 1)
            # Resubmission is not duplication: exactly one callback.
            time.sleep(3 * MONITOR_INTERVAL)
            assert len(calls) == 1
            # A fresh post-restart query also tracks the new epoch.
            answer = daemon.query(name, new.s, new.t, edge,
                                  timeout=QUERY_TIMEOUT)
            assert answer.length == centralized_truth(new, new.s,
                                                      new.t, edge)
        finally:
            stats = daemon.stop()
        assert stats["epochs"][name] == 1


class TestTelemetry:
    def test_daemon_run_emits_only_known_labels(self):
        from repro.telemetry import counters as counters_mod
        from repro.telemetry import unknown_labels
        insts = _instances(1)
        daemon = _daemon(insts, workers=1)
        try:
            daemon.start()
            frontend = ServeFrontend(daemon)
            try:
                frontend.query(insts[0].name, insts[0].s, insts[0].t,
                               insts[0].path_edges()[0])
            finally:
                frontend.close()
        finally:
            daemon.stop()
        snap = counters_mod.registry.snapshot()
        counters = snap["counters"]
        assert any(k.startswith("repro_serve_daemon_events_total")
                   for k in counters)
        assert any(k.startswith("repro_serve_admission_total")
                   for k in counters)
        assert unknown_labels(snap) == []
