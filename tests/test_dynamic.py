"""Dynamic graphs under fault storms (ISSUE 10).

The contract under test: a seedable mutation stream whose applied
batches bump a topology-version epoch and re-derive P; incremental
invalidation that rotates only the mutated instance's oracle (with the
fallback memo carried forward iff no applied mutation could have
touched the row); topology-versioned spill keys that refuse to
resurrect into a newer epoch; degraded-mode stale serving; chaos-level
convergence; and closed telemetry enums for all of it.
"""

import json
import re
import threading

import pytest

from repro.dynamic import (
    Mutation,
    MutationStream,
    PROFILES,
    apply_mutations,
    run_chaos,
)
from repro.dynamic.stream import AppliedMutation
from repro.graphs.generators import random_instance
from repro.graphs.instance import RPathsInstance
from repro.runtime.store import ResultStore, cell_key
from repro.runtime.results import CellResult, CellSpec
from repro.serve import (
    Query,
    ReplacementPathOracle,
    ShardedQueryService,
    centralized_truth,
    spill_key,
)
from repro.serve.oracle import carry_fallback_memo
from repro.dynamic.stream import MUT_FAIL, MUT_HEAL, MUT_WEIGHT
from repro.telemetry import counters as counters_mod
from repro.telemetry import unknown_labels


def _instance(n=20, seed=0, name="dyn-test", weighted=False):
    return random_instance(n, seed=seed, name=name, weighted=weighted)


class TestMutationStream:
    def test_same_seed_is_bit_identical(self):
        def replay():
            inst = _instance()
            stream = MutationStream(seed=7)
            chain = []
            for _ in range(5):
                result = stream.step(inst, profile="burst", count=4)
                inst = result.instance
                chain.append((inst.topology_version,
                              tuple(inst.path),
                              tuple(sorted(inst.edges))))
            return chain

        assert replay() == replay()

    def test_every_profile_yields_valid_successors(self):
        for profile in PROFILES:
            inst = _instance(seed=3, weighted=(profile == "burst"))
            stream = MutationStream(seed=11)
            for step in range(3):
                kwargs = {"step": step} if profile == "maintenance" \
                    else {}
                result = stream.step(inst, profile=profile, **kwargs)
                inst = result.instance
                inst.validate()  # raises on any broken invariant
                assert inst.topology_version <= step + 1

    def test_disconnecting_failures_are_skipped(self):
        # A pure path graph: every edge is a bridge, so every failure
        # would disconnect s from t and must be refused.
        inst = RPathsInstance(
            n=7, edges=[(i, i + 1, 1) for i in range(6)],
            path=list(range(7)), name="bridge-path")
        inst.validate()
        batch = [Mutation(MUT_FAIL, e) for e in inst.path_edges()]
        result = apply_mutations(inst, batch)
        assert not result.applied
        assert {r for _m, r in result.skipped} == {"disconnects"}
        # Nothing applied: the instance (and its epoch) is unchanged.
        assert result.instance is inst
        assert result.epoch == 0

    def test_skip_reasons_cover_bad_input(self):
        inst = _instance()
        present = inst.path_edges()[0]
        edge_set = {(u, v) for u, v, _ in inst.edges}
        missing = next(
            (u, v) for u in range(inst.n) for v in range(inst.n)
            if u != v and (u, v) not in edge_set)
        batch = [
            Mutation(MUT_FAIL, missing),          # absent, in-range
            Mutation(MUT_HEAL, present),          # already present
            Mutation(MUT_WEIGHT, present, 3),     # unweighted graph
            Mutation(MUT_FAIL, (0, 0)),           # self-loop
            Mutation("explode", present),         # unknown kind
        ]
        result = apply_mutations(inst, batch)
        reasons = sorted(r for _m, r in result.skipped)
        assert reasons == sorted([
            "unknown-edge", "duplicate-edge", "unweighted",
            "invalid", "invalid"])

    def test_heal_restores_failed_edge_with_original_weight(self):
        inst = _instance(weighted=True)
        stream = MutationStream(seed=1)
        # Fail a non-bridge edge, then heal it via the stream's pool.
        for edge in [(u, v) for u, v, _ in inst.edges]:
            result = apply_mutations(inst,
                                     [Mutation(MUT_FAIL, edge)])
            if result.applied:
                break
        assert result.applied
        stream.note_applied(inst.name, result.applied)
        assert stream.failed_edges(inst.name) == [edge]
        healed = apply_mutations(
            result.instance,
            [Mutation(MUT_HEAL, edge,
                      result.applied[0].old_weight)])
        assert healed.applied
        assert healed.epoch == 2
        assert (sorted(healed.instance.edges)
                == sorted(inst.edges))

    def test_epoch_bumps_and_path_rederived(self):
        inst = _instance(seed=5)
        stream = MutationStream(seed=5)
        result = stream.step(inst, profile="storm", fraction=0.3)
        assert result.applied
        new = result.instance
        assert new.topology_version == 1
        assert new.versioned_key == f"{inst.name}@1"
        # P is a real shortest path of the mutated graph.
        dist = new.dijkstra(new.s)
        path_len = sum(w for (u, v, w) in new.path_edge_weights()) \
            if hasattr(new, "path_edge_weights") else None
        assert dist[new.t] < 10 ** 9
        assert len(new.path) >= 2
        new.validate()


class TestMemoCarry:
    def _seeded_oracles(self, inst, new, rows):
        old = ReplacementPathOracle.build(inst, solver="centralized")
        for s, edge in rows:
            old.query(s, inst.t, edge)  # populate the fallback memo
        fresh = ReplacementPathOracle.build(new, solver="centralized")
        return old, fresh

    def test_carried_rows_are_bit_identical_to_rebuild(self):
        inst = _instance(n=18, seed=2)
        stream = MutationStream(seed=9)
        result = stream.step(inst, profile="burst", count=3)
        assert result.applied
        new = result.instance
        rows = [(1, inst.path_edges()[0]),
                (2, inst.path_edges()[-1])]
        old, fresh = self._seeded_oracles(inst, new, rows)
        kept, dropped = carry_fallback_memo(old, fresh,
                                            result.applied)
        assert kept + dropped == len(old._fallback)
        # Soundness: every surviving row answers exactly like a
        # from-scratch solve on the NEW topology.
        for (s, edge), dist in fresh._fallback.items():
            want = new.dijkstra(s, avoid_edges=frozenset([edge]))
            assert list(dist) == list(want), (s, edge)

    def test_affected_rows_are_dropped(self):
        inst = _instance(n=18, seed=4)
        old = ReplacementPathOracle.build(inst, solver="centralized")
        # A non-canonical source routes through the fallback memo
        # ((s, t) == (inst.s, inst.t) is answered from the oracle).
        s = inst.path[1]
        avoid = inst.path_edges()[0]
        old.query(s, inst.t, avoid)
        assert old._fallback
        dist = next(iter(old._fallback.values()))
        # Fabricate a mutation that removes a TIGHT edge of that row:
        # find (u, v, w) on a shortest path (dist[u] + w == dist[v]).
        tight = None
        for u, v, w in inst.edges:
            if (u, v) != avoid and dist[u] + w == dist[v] \
                    and dist[u] < 10 ** 9:
                tight = AppliedMutation(MUT_FAIL, (u, v), w, w)
                break
        assert tight is not None
        result = apply_mutations(inst,
                                 [Mutation(MUT_FAIL, tight.edge)])
        if not result.applied:
            pytest.skip("tight edge is a bridge in this seed")
        fresh = ReplacementPathOracle.build(result.instance,
                                            solver="centralized")
        kept, dropped = carry_fallback_memo(old, fresh,
                                            result.applied)
        assert dropped >= 1


class TestIncrementalInvalidation:
    def test_only_mutated_instance_rotates(self):
        insts = [_instance(seed=i, name=f"inv-{i}") for i in range(3)]
        service = ShardedQueryService(insts, shards=2, capacity=4,
                                      solver="centralized")
        probes = [Query(s=i.s, t=i.t, edge=i.path_edges()[0],
                        instance=i.name) for i in insts]
        service.serve(probes)
        builds_before = service.serve([]).totals().oracle_builds
        assert builds_before == 3

        stream = MutationStream(seed=3)
        result = service.apply_mutations(
            "inv-0", stream.burst(insts[0], 4))
        assert result.applied

        current = {inst.name: inst for inst in insts}
        current["inv-0"] = result.instance
        probes = [Query(s=i.s, t=i.t, edge=i.path_edges()[0],
                        instance=i.name)
                  for i in current.values()]
        answers = service.serve(probes).answers
        totals = service.serve([]).totals()
        # Exactly one invalidation, exactly one extra build: the other
        # two oracles never moved.
        assert totals.invalidations == 1
        assert totals.oracle_builds == 4
        for answer in answers:
            inst = current[answer.query.instance]
            q = answer.query
            assert answer.length == centralized_truth(
                inst, q.s, q.t, q.edge)

    def test_stale_answers_carry_epoch_lag(self):
        inst = _instance(seed=6, name="lag-0")
        service = ShardedQueryService([inst], shards=1, capacity=2,
                                      solver="centralized")
        shard = service.shard_for("lag-0")
        probe = Query(s=inst.s, t=inst.t,
                      edge=inst.path_edges()[0], instance="lag-0")
        before = shard.answer_batch([probe])[0]
        stream = MutationStream(seed=6)
        result = service.apply_mutations(
            "lag-0", stream.burst(inst, 3))
        assert result.applied
        assert not shard.has_hot("lag-0")
        stale = shard.answer_stale([probe])
        assert stale is not None
        answers, lags = stale
        assert lags == [1]
        assert answers[0].length == before.length
        assert shard.stats.stale_answers == 1
        # Once the new epoch's planner is built, staleness is over.
        shard.planner_for("lag-0")
        assert shard.answer_stale([probe]) is None

    def test_spill_refuses_to_resurrect_across_epochs(self, tmp_path):
        store = ResultStore(tmp_path)
        inst = _instance(seed=8, name="spill-0")
        service = ShardedQueryService([inst], shards=1, capacity=2,
                                      store=store,
                                      solver="centralized")
        probe = Query(s=inst.s, t=inst.t,
                      edge=inst.path_edges()[0], instance="spill-0")
        service.serve([probe])  # builds + spills under epoch 0
        assert spill_key("spill-0", "centralized", 0) \
            != spill_key("spill-0", "centralized", 1)
        stream = MutationStream(seed=8)
        result = service.apply_mutations(
            "spill-0", stream.burst(inst, 3))
        assert result.applied
        # The epoch-0 snapshot must NOT satisfy an epoch-1 load.
        snap = store.get(spill_key("spill-0", "centralized", 0))
        assert snap is not None
        revived = ReplacementPathOracle.from_snapshot(
            result.instance, snap.metrics)
        assert revived is None


class TestStoreGC:
    def _plant(self, store, scenario, params, version=None):
        spec = CellSpec.make(scenario, params, 0)
        result = CellResult(scenario=scenario, params=dict(params),
                            seed=0,
                            key=cell_key(spec, version=version))
        store.put(result)
        return result.key

    def test_gc_prunes_exactly_the_garbage(self, tmp_path):
        store = ResultStore(tmp_path)
        live = self._plant(store, "serve-oracle",
                           {"instance": "a", "solver": "c",
                            "topology_version": 2})
        old_epoch = self._plant(store, "serve-oracle",
                                {"instance": "a", "solver": "c",
                                 "topology_version": 1})
        old_code = self._plant(store, "serve-oracle",
                               {"instance": "b", "solver": "c"},
                               version="0123456789abcdef")
        (store.objects_dir / "junk0000.json").write_text("{nope")

        dry = store.gc(dry_run=True)
        assert dry["scanned"] == 4
        assert dry["pruned"] == 3
        assert len(store) == 4  # dry run touched nothing

        report = store.gc()
        assert report["reasons"] == {"corrupt": 1,
                                     "superseded_code": 1,
                                     "superseded_topology": 1}
        assert len(store) == 1
        assert store.get(live) is not None
        assert store.get(old_epoch) is None
        assert store.get(old_code) is None

    def test_gc_on_empty_store_is_a_noop(self, tmp_path):
        report = ResultStore(tmp_path / "missing").gc()
        assert report["scanned"] == 0
        assert report["pruned"] == 0


class TestChaosConvergence:
    def test_short_storm_converges_bit_identically(self):
        insts = [_instance(n=16, seed=20 + i, name=f"chaos-{i}")
                 for i in range(2)]
        report = run_chaos(insts, duration=1.0, seed=1, workers=2,
                           solver="centralized", kills=1, stalls=1,
                           mutation_bursts=2, burst_size=3,
                           max_staleness=8)
        assert report.converged, report.as_json()
        assert report.verified > 0
        assert not report.mismatches
        assert report.mutation_batches == 2
        assert set(report.outcomes) <= {"ok", "stale"}
        assert json.dumps(report.as_json())


def _numbers(text):
    """Every decimal number written in ``text``."""
    return set(re.findall(r"\d+(?:\.\d+)?", text))


class TestCLI:
    def test_mutate_json_replays_deterministically(self, capsys):
        from repro.cli import main
        argv = ["mutate", "--n", "20", "--steps", "3",
                "--profile", "storm", "--fraction", "0.2", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["final_epoch"] >= 1
        assert len(first["steps"]) == 3
        assert not first["failures"]

    def test_mutate_text_prints_the_json_record(self, capsys):
        from repro.cli import main
        argv = ["mutate", "--n", "20", "--steps", "3", "--profile",
                "storm", "--fraction", "0.2", "--mutation-seed", "5"]
        assert main(argv + ["--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert _numbers(text) <= _numbers(json.dumps(record))
        assert (f"final: epoch {record['final_epoch']}, "
                f"m={record['final_m']} (was {record['m']}), "
                f"|P|={record['final_hop_count']} hops "
                f"(was {record['hop_count']})") in text
        assert text.count(" yes") + text.count(" no") == 3

    def test_chaos_text_prints_the_json_record(self):
        from repro.cli import _chaos_text
        from repro.dynamic.chaos import ChaosReport
        report = ChaosReport(
            duration=2.5127, queries_sent=131,
            outcomes={"ok": 120, "stale": 11},
            latency_ms={"p50": 0.81234, "p95": 3.25, "p99": 7.5,
                        "mean": 1.125, "max": 9.75},
            mutations_applied=17, mutation_batches=3, kills=1,
            stalls=2, restarts=4, epochs={"chaos-0": 6, "chaos-1": 8},
            verified=15, mismatches=["chaos-1 (0,5) e=(2,3): 8 != 7"])
        record = {**report.as_json(), "failures": ["chaos: diverged"]}
        text = _chaos_text(record)
        assert _numbers(text) <= _numbers(json.dumps(record))
        for figure in ("131 queries", "2.513s", "3 mutation batches",
                       "(17 applied)", "1 kills", "(4 restarts)",
                       "2 stalls", "15 fresh answers", "DIVERGED",
                       "8 != 7", "p50 0.8123ms", "p99 7.5ms"):
            assert figure in text, figure

    def test_chaos_text_prints_one_line_per_mismatch(self):
        from repro.cli import _chaos_text
        from repro.dynamic.chaos import ChaosReport
        mismatches = ["chaos-0 (1,4) e=(0,1): 5 != 6",
                      "chaos-0 (2,7) e=(3,4): INF != 9",
                      "chaos-1 (0,5) e=(2,3): 8 != 7"]
        report = ChaosReport(queries_sent=12, outcomes={"ok": 12},
                             verified=4, mismatches=mismatches)
        record = {**report.as_json(), "failures": []}
        lines = _chaos_text(record).splitlines()
        assert [line for line in lines if "mismatch:" in line] == [
            f"  mismatch: {m}" for m in mismatches]
        assert "DIVERGED" in lines[3]

    def test_chaos_text_of_a_converged_run_without_latency(self):
        # No query answered ok: the record has no latency, and the text
        # prints no latency line; nothing diverged, so no mismatch line.
        from repro.cli import _chaos_text
        from repro.dynamic.chaos import ChaosReport
        report = ChaosReport(duration=1.0, queries_sent=3,
                             outcomes={"stale": 3}, verified=2,
                             epochs={"chaos-0": 1})
        record = {**report.as_json(), "failures": []}
        text = _chaos_text(record)
        assert record["converged"] and record["latency_ms"] == {}
        assert "-> CONVERGED" in text
        assert "mismatch:" not in text
        assert "served latency" not in text
        assert len(text.splitlines()) == 4
        assert _numbers(text) <= _numbers(json.dumps(record))

    @pytest.mark.parametrize("as_json", [True, False],
                             ids=["json", "text"])
    def test_serve_load_chaos_prints_one_record(self, as_json, capsys,
                                                monkeypatch):
        # The verb builds one record from the storm's report and its
        # failures: --json dumps it, the text renders it, and each
        # failure goes to stderr.
        from repro import dynamic
        from repro.cli import _chaos_text, main
        from repro.dynamic.chaos import ChaosReport
        report = ChaosReport(
            duration=2.5, queries_sent=40, outcomes={"ok": 40},
            latency_ms={"p50": 1.25, "p95": 3.25, "p99": 4.5},
            mutation_batches=3, mutations_applied=12, kills=1, stalls=1,
            restarts=1, epochs={"serve-12-0": 4, "serve-12-1": 3},
            verified=6, mismatches=["serve-12-1 (0,3) e=(1,2): 5 != 4"])
        storms = []

        def storm(instances, **kwargs):
            storms.append(([inst.name for inst in instances], kwargs))
            return report

        monkeypatch.setattr(dynamic, "run_chaos", storm)
        argv = ["serve", "load", "--chaos", "--n", "12",
                "--instances", "2", "--max-p95-ms", "2"]
        assert main(argv + (["--json"] if as_json else [])) == 1
        out, err = capsys.readouterr()
        record = {**report.as_json(), "failures": [
            "chaos did not converge: serve-12-1 (0,3) e=(1,2): 5 != 4",
            "chaos: served p95 3.25ms > floor 2.00ms"]}
        if as_json:
            assert json.loads(out) == record
        else:
            assert out == _chaos_text(record) + "\n"
        for failure in record["failures"]:
            assert f"error: {failure}" in err
        [(names, kwargs)] = storms
        assert names == ["serve-12-0", "serve-12-1"]
        assert kwargs["max_staleness"] == 8

    def test_mutate_json_keeps_its_keys(self, capsys):
        # The record's keys are pinned: scripts read them under
        # --json, and the text form renders from the same record.
        from repro.cli import main
        assert main(["mutate", "--n", "16", "--steps", "2",
                     "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert set(record) == {
            "instance", "n", "m", "hop_count", "profile", "seed",
            "steps", "final_epoch", "final_m", "final_hop_count",
            "failures"}
        assert [row["step"] for row in record["steps"]] == [0, 1]
        for row in record["steps"]:
            assert set(row) == {"step", "epoch", "applied", "skipped",
                                "path_changed", "kinds", "skip_reasons"}

    def test_store_gc_cli_dry_run_then_prune(self, tmp_path, capsys):
        from repro.cli import main
        store = ResultStore(tmp_path)
        spec = CellSpec.make("serve-oracle",
                            {"instance": "x", "solver": "c"}, 0)
        store.put(CellResult(
            scenario="serve-oracle",
            params={"instance": "x", "solver": "c"}, seed=0,
            key=cell_key(spec, version="feedfacefeedface")))
        assert main(["store", "gc", "--cache-dir", str(tmp_path),
                     "--dry-run", "--json"]) == 0
        dry = json.loads(capsys.readouterr().out)
        assert dry["dry_run"] is True
        assert dry["pruned"] == 1
        assert len(store) == 1
        assert main(["store", "gc", "--cache-dir", str(tmp_path),
                     "--json"]) == 0
        real = json.loads(capsys.readouterr().out)
        assert real["pruned"] == 1
        assert len(store) == 0

    def test_query_timeout_degrades_off_main_thread(self, capsys):
        from repro.cli import main
        codes = []

        def run():
            codes.append(main(["query", "--n", "12", "--timeout", "5",
                               "--json"]))

        worker = threading.Thread(target=run)
        worker.start()
        worker.join()
        assert codes == [0]
        data = json.loads(capsys.readouterr().out)
        assert data["outcome"] == "timeout_unsupported"
        assert data["timeout_enforced"] is False
        assert data["kind"]  # the query itself was still answered

    def test_query_timeout_enforced_on_main_thread(self, capsys):
        from repro.cli import main
        assert main(["query", "--n", "12", "--timeout", "30",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["outcome"] == "ok"
        assert data["timeout_enforced"] is True


class TestTelemetryEnums:
    def test_dynamic_counters_stay_inside_closed_enums(self):
        inst = _instance(seed=12, weighted=True)
        stream = MutationStream(seed=12)
        current = inst
        for step in range(3):
            current = stream.step(current, profile="burst",
                                  count=4).instance
        service = ShardedQueryService([current], shards=1,
                                      solver="centralized")
        service.serve([Query(s=current.s, t=current.t,
                             edge=current.path_edges()[0],
                             instance=current.name)])
        service.apply_mutations(current.name,
                                stream.burst(current, 2))
        snap = counters_mod.registry.snapshot()
        assert any(k.startswith("repro_dynamic_") for k in snap["counters"])
        assert unknown_labels(snap) == []

    def test_ground_truth_helper_matches_centralized(self):
        """The serve tier's ground truth reads the current epoch."""
        from repro.baselines.centralized import replacement_lengths
        current = MutationStream(seed=14).step(
            _instance(seed=14), profile="burst", count=4).instance
        assert current.topology_version == 1
        assert [centralized_truth(current, current.s, current.t, edge)
                for edge in current.path_edges()] \
            == replacement_lengths(current)
