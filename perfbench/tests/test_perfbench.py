"""Tests of the benchmark's own logic (run: pytest perfbench/tests)."""

import importlib
import json
import multiprocessing
import os
import pathlib
import re
import time

import pytest

from perfbench import host, spec, stats
from perfbench.layers import (
    SOLVE_HOOKS,
    LayerClock,
    LostHook,
    StageStamps,
    oracle_query_hook,
    solve_ladder,
)
from perfbench.result import RunResult
from perfbench.serve import EpochLog, TruthChecker, Window, _window_median

ROOT = pathlib.Path(__file__).resolve().parents[2]


# -- percentiles and the sample-count rule -----------------------------------


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile([1, 2, 3, 4, 5], 25) == 2.0
    assert stats.percentile([10, 20], 95) == pytest.approx(19.5)
    assert stats.percentile([7], 95) == 7
    assert stats.percentile([3, 9, 1], 0) == 1
    assert stats.percentile([3, 9, 1], 100) == 9


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_sample_count_rule_needs_ten_samples_beyond():
    assert stats.supports(200, 95)
    assert not stats.supports(199, 95)
    assert stats.supports(100, 90)
    assert stats.supports(20, 50)
    assert not stats.supports(19, 50)


def test_tail_picks_highest_supported_percentile():
    assert stats.tail(list(range(200)))[0] == 95.0
    assert stats.tail(list(range(199)))[0] == 90.0
    assert stats.tail(list(range(40)))[0] == 75.0
    # a solve run's couple of dozen samples support no tail: median
    q, value = stats.tail([float(x) for x in range(25)])
    assert q == 50.0
    assert value == stats.median(range(25))


def test_chunk_rates_use_whole_chunks_only():
    durations = [1.0, 1.0, 0.5, 1.5, 4.0]
    assert stats.chunk_rates(durations, 2) == [1.0, 1.0]
    assert stats.chunk_rates(durations, 6) == []
    with pytest.raises(ValueError):
        stats.chunk_rates(durations, 0)


def test_quietest_keeps_quiet_windows_or_the_least_stolen_third():
    # most windows steal-free: every steal-free window is kept
    assert stats.quietest([0, 0, 0.03, 0, 0, 0.09]) == [0, 1, 3, 4]
    # a tick or two of steal still counts as quiet
    assert stats.quietest([0, 0.01, 0.02, 0.3, 0.3, 0.3, 0, 0.015, 0.5]) == [
        0, 1, 2, 6, 7]
    # steal everywhere: the least disturbed third (ties kept together)
    assert stats.quietest([0.05, 0.01, 0.07, 0.02, 0.09, 0.08]) == [1, 3]
    assert stats.quietest([0.04, 0.04, 0.04]) == [0, 1, 2]
    assert stats.quietest([]) == []


# -- host speed ---------------------------------------------------------------


def test_reference_time_scales_with_the_calibration():
    assert host.to_reference(2.0, host.REFERENCE_S) == pytest.approx(2.0)
    # a host twice as slow as the reference, to the program's sensitivity
    assert host.to_reference(2.0, 2 * host.REFERENCE_S) == pytest.approx(
        2.0 / 2 ** host.SENSITIVITY)
    assert host.to_reference(2.0, 2 * host.REFERENCE_S) < 2.0
    assert host.calibrate(repeats=1) > 0


def test_windows_read_latency_against_the_echo_probe():
    ref = host.REFERENCE_TRIP_S
    # the second window ran while a round trip took twice as long
    windows = [Window(0.0, 1.0, [ref] * 200, 0, False),
               Window(1.0, 2.0, [2 * ref] * 200, 0, False),
               Window(2.0, 3.0, [ref] * 200, 0, False)]
    latencies = {0: [1e-3] * 100, 1: [2e-3] * 100, 2: [3e-3] * 100}
    assert _window_median(windows, latencies, [0, 1], 50.0) == (
        pytest.approx(1e-3))
    assert _window_median(windows, latencies, [0, 1, 2], 95.0) == (
        pytest.approx(1e-3))
    # every percentile is read against the probe's median round trip: a
    # few stalled trips do not rescale the window
    stalled = Window(0.0, 1.0, [ref] * 90 + [20 * ref] * 10, 0, False)
    assert _window_median([stalled], {0: [1e-3] * 100}, [0], 95.0) == (
        pytest.approx(1e-3))
    assert stalled.busy == pytest.approx(1.0 - 290 * ref)


def test_echo_probe_times_round_trips_and_stops_its_helper():
    with host.EchoProbe() as probe:
        trips = [probe.round_trip() for _ in range(5)]
        helper = probe._proc
        assert helper.is_alive()
    assert len(trips) == 5 and all(t > 0 for t in trips)
    assert not helper.is_alive()


def test_stop_children_ends_every_child_and_the_resource_tracker():
    from multiprocessing import resource_tracker, shared_memory

    block = shared_memory.SharedMemory(create=True, size=16)
    try:
        # shared memory starts the tracker, which outlives its parent
        tracker = resource_tracker._resource_tracker._pid
        child = multiprocessing.get_context("fork").Process(
            target=time.sleep, args=(60,), daemon=True)
        child.start()
    finally:
        block.close()
        block.unlink()
    assert tracker in host._child_pids()
    host.stop_children(timeout=5.0)
    assert not child.is_alive()
    assert host._child_pids() == []
    with pytest.raises(ChildProcessError):  # ended and reaped
        os.waitpid(tracker, os.WNOHANG)


# -- outcome accounting -------------------------------------------------------


def test_tally_counts_refusals_and_timeouts_as_failed_not_wrong():
    tally = stats.Tally()
    tally.add("ok", correct=True)
    tally.add("stale", correct=True, lag=1)
    tally.add("overloaded")
    tally.add("timeout")
    tally.add("ok", correct=False, label="bad")
    assert tally.attempted == 5
    assert tally.ok == 2
    assert tally.fresh == 1
    assert tally.wrong == 1
    assert tally.failed == 3
    assert tally.ok_share == pytest.approx(0.4)
    assert tally.fresh_share == pytest.approx(0.2)
    assert tally.mismatches == ["bad"]


def test_empty_tally_shares_are_zero():
    tally = stats.Tally()
    assert tally.ok_share == 0.0 and tally.fresh_share == 0.0


def test_wrong_answer_makes_run_incorrect():
    tally = stats.Tally()
    tally.add("ok", correct=True)
    result = RunResult("solve-expander", 0, 1.0, False, tally)
    assert result.correct
    tally.add("ok", correct=False)
    assert not result.correct
    assert json.loads(result.result_line())["correct"] is False


# -- the correctness checker --------------------------------------------------


@pytest.fixture(scope="module")
def mutated():
    """An instance, a query, and a mutation that changes its answer."""
    from repro.dynamic.stream import Mutation, apply_mutations
    from repro.graphs.generators import random_instance
    from repro.serve import Query, centralized_truth
    from repro.telemetry.dynamic import MUT_FAIL

    for seed in range(20):
        inst = random_instance(24, seed=seed, name="checker")
        # an edge the graph does not have: the answer is d(s, t)
        query = Query(s=inst.s, t=inst.t, edge=(inst.n + 1, inst.n + 2),
                      instance=inst.name)
        before = centralized_truth(inst, query.s, query.t, query.edge)
        for edge in inst.path_edges():
            result = apply_mutations(inst, [Mutation(MUT_FAIL, edge)],
                                     record_telemetry=False)
            if not result.applied:
                continue
            after = centralized_truth(result.instance, query.s, query.t,
                                      query.edge)
            if after != before:
                return inst, result.instance, query, before, after
    raise AssertionError("no path edge failure changes d(s, t)")


def test_checker_accepts_truth_and_rejects_wrong_answer(mutated):
    inst, _new, query, before, _after = mutated
    checker = TruthChecker(EpochLog([inst]))
    assert checker.check(query, before, 0, 1.0, 2.0)
    assert not checker.check(query, before + 1, 0, 1.0, 2.0)


def test_checker_shifts_epoch_by_lag(mutated):
    inst, new, query, before, after = mutated
    log = EpochLog([inst])
    log.bump(inst.name, new, began=5.0, ended=5.1)
    checker = TruthChecker(log)
    # after the bump only the new epoch is current
    assert checker.check(query, after, 0, 6.0, 6.5)
    assert not checker.check(query, before, 0, 6.0, 6.5)
    # a stale answer one epoch behind must match the old topology
    assert checker.check(query, before, 1, 6.0, 6.5)
    assert not checker.check(query, after, 1, 6.0, 6.5)
    # a request spanning the bump may be answered by either epoch
    assert checker.check(query, before, 0, 4.0, 5.05)
    assert checker.check(query, after, 0, 4.0, 5.05)
    # but not by one that ended before it was submitted
    assert not checker.check(query, before, 0, 5.2, 5.3)


# -- traced-run wrappers ------------------------------------------------------


def _solve_targets():
    from repro.congest.dispatch import REGISTRY
    from repro.core import long_detour, rpaths
    from repro.graphs.instance import RPathsInstance
    functions = {
        "build_network": vars(RPathsInstance)["build_network"],
        "build_spanning_tree": rpaths.build_spanning_tree,
        "acquire_path_knowledge": rpaths.acquire_path_knowledge,
        "short_detour_lengths": rpaths.short_detour_lengths,
        "long_detour_lengths": rpaths.long_detour_lengths,
        "compute_landmark_distances":
            long_detour.compute_landmark_distances,
    }
    lanes = {}
    for name, prim in REGISTRY.items():
        for lane in ("vector", "message"):
            module, attr = prim.vector if lane == "vector" else prim.message
            lanes[(name, lane)] = getattr(importlib.import_module(module),
                                          attr)
    return functions, lanes


def test_solve_ladder_wrappers_time_layers_and_restore_originals():
    from repro.baselines.centralized import replacement_lengths
    from repro.congest.dispatch import REGISTRY
    from repro.core import rpaths
    from repro.graphs.generators import expander_instance

    functions, lanes = _solve_targets()
    clock = LayerClock()
    hooks = solve_ladder(clock, spec.KERNELS)
    inst = expander_instance(48, seed=5)
    # a traced run applies and restores the same hooks many times
    for _ in range(2):
        with hooks:
            assert hooks.active
            assert rpaths.acquire_path_knowledge is not functions[
                "acquire_path_knowledge"]
            report = rpaths.solve_rpaths(inst, fabric="vector",
                                         landmark_c=0.5)
        assert not hooks.active
        assert report.lengths == replacement_lengths(inst)
        after, _ = _solve_targets()
        assert after == functions
        for (name, lane), fn in lanes.items():
            assert REGISTRY[name].resolve(lane) is fn
    clock.require([layer for layer, *_ in SOLVE_HOOKS])
    assert clock.calls("core.knowledge") == 2
    assert clock.calls("kernel.multisource") >= 2
    assert clock.calls("kernel.fallback") == 0
    for name, (calls, wall, self_time) in clock.totals.items():
        assert 0 <= self_time <= wall + 1e-9, name
    # the long-detour phase contains the landmark distances
    assert clock.self_time("core.long_detour") < clock.wall(
        "core.long_detour")


def test_a_lost_hook_fails_instead_of_reading_zero(monkeypatch):
    from repro.congest.dispatch import REGISTRY
    from repro.core import rpaths

    # a renamed phase function
    monkeypatch.delattr(rpaths, "acquire_path_knowledge")
    with pytest.raises(LostHook, match="core.knowledge"):
        solve_ladder(LayerClock(), spec.KERNELS)
    monkeypatch.undo()
    # a primitive added to (or removed from) the registry
    with pytest.raises(LostHook, match="registry"):
        solve_ladder(LayerClock(), spec.KERNELS[:-1])
    monkeypatch.setitem(REGISTRY, "new_kernel", REGISTRY["hop_bfs"])
    with pytest.raises(LostHook, match="registry"):
        solve_ladder(LayerClock(), spec.KERNELS)
    # a hooked name the program no longer calls
    clock = LayerClock()
    clock.wrap("called", lambda: None)()
    clock.require(["called"])
    with pytest.raises(LostHook, match="never called: idle"):
        clock.require(["called", "idle"])


def test_nested_wrappers_charge_child_time_to_the_parent_only():
    clock = LayerClock()

    def inner():
        time.sleep(0.01)

    wrapped_inner = clock.wrap("inner", inner)

    def outer():
        wrapped_inner()
        time.sleep(0.005)

    clock.wrap("outer", outer)()
    assert clock.calls("inner") == clock.calls("outer") == 1
    assert clock.self_time("outer") == pytest.approx(
        clock.wall("outer") - clock.wall("inner"))
    assert clock.self_time("inner") == pytest.approx(clock.wall("inner"))


def test_oracle_query_hook_restores_the_class_attribute():
    from repro.serve import ReplacementPathOracle
    original = vars(ReplacementPathOracle)["query"]
    clock = LayerClock()
    with oracle_query_hook(clock):
        assert vars(ReplacementPathOracle)["query"] is not original
    assert vars(ReplacementPathOracle)["query"] is original


def test_stage_stamps_wrap_and_restore_submit_batch():
    from repro.serve import Query

    class FakeDaemon:
        def submit_batch(self, queries, callback, shard_id=None,
                         staleness=None):
            callback([1] * len(queries), ["hit"] * len(queries),
                     [0] * len(queries), "")
            return 7

    daemon = FakeDaemon()
    stamps = StageStamps(daemon)
    query = Query(s=0, t=1, edge=(0, 1), instance="x")
    seen = []
    with stamps.hooks:
        assert daemon.submit_batch(
            [query], lambda *args: seen.append(args)) == 7
    assert "submit_batch" not in vars(daemon)
    assert seen == [([1], ["hit"], [0], "")]
    entered, answered = stamps.take(query)
    assert entered is not None and entered <= answered
    assert stamps.batch_sizes == [1]
    assert stamps.take(query) == (None, None)


# -- the BENCHMARK.json format ------------------------------------------------


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_committed_benchmark_json_matches_spec():
    committed = (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    assert committed == spec.render_config()


def test_config_respects_the_format_limits():
    config = spec.config()
    assert set(config) == {"command", "paths", "run_seconds", "workloads",
                           "end_to_end", "per_layer"}
    assert 2 <= len(config["workloads"]) <= 8
    assert 1 <= len(config["end_to_end"]) <= 16
    assert 1 <= len(config["per_layer"]) <= 128
    assert 1 <= config["run_seconds"] <= 60
    names = [w["name"] for w in config["workloads"]]
    names += [m["name"] for m in config["end_to_end"]]
    names += [m["name"] for m in config["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in config["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in config["end_to_end"] + config["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower",
                                                         "higher")
    setup = next(m for m in config["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    for path in config["paths"]:
        assert (ROOT / path).is_dir()


def test_result_line_reports_exactly_the_declared_metrics():
    for trace, declared in ((False, spec.END_TO_END),
                            (True, spec.PER_LAYER)):
        result = RunResult("serve-closed", 1, 1.0, trace, stats.Tally())
        result.tally.add("ok", correct=True)
        line = json.loads(result.result_line())
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert list(line["metrics"]) == [m.name for m in declared]
