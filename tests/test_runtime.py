"""Tests for the repro.runtime subsystem: registry, executor, store."""

from __future__ import annotations

import json

import pytest

from repro.runtime import (
    CellResult,
    CellSpec,
    Claim,
    ClaimVerdict,
    ResultStore,
    Scenario,
    all_scenarios,
    cell_key,
    code_version,
    diff_results,
    execute_cell,
    expand_cells,
    format_suite_report,
    get_scenario,
    register,
    run_cells,
    run_suite,
    scenario_names,
    unregister,
)
from repro.runtime.registry import format_value
from repro.runtime.results import results_from_jsonl, results_to_jsonl


# -- registry ---------------------------------------------------------------

class TestRegistry:
    def test_catalog_size_and_coverage(self):
        names = scenario_names()
        assert len(names) >= 10
        for required in ("exact-chords", "apx-eps-sweep", "two-sisp",
                         "undirected-extension", "hst-sweep",
                         "lowerbound-hard", "fault-injection",
                         "topo-expander", "topo-powerlaw"):
            assert required in names

    def test_round_trip(self):
        for scen in all_scenarios():
            assert get_scenario(scen.name) is scen
            cells = scen.cells()
            assert cells
            smoke = scen.cells(smoke=True)
            assert smoke
            assert len(smoke) <= len(cells)
            for spec in cells:
                assert spec.scenario == scen.name

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="registered"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        scen = Scenario(
            name="tmp-dup", run=lambda p, s: {},
            params=[{}], seeds=[0])
        register(scen)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register(scen)
        finally:
            unregister("tmp-dup")

    def test_cell_spec_identity_is_param_order_independent(self):
        a = CellSpec.make("x", {"b": 2, "a": 1}, 0)
        b = CellSpec.make("x", {"a": 1, "b": 2}, 0)
        assert a == b
        assert a.identity() == b.identity()


# -- claims -----------------------------------------------------------------

def declared_bounds():
    for scen in all_scenarios():
        for claim in scen.claims:
            for side in ("low", "high"):
                if getattr(claim, side) is not None:
                    yield pytest.param(
                        scen, claim, side,
                        id=f"{scen.name}-{claim.text}-{side}")


def inside(claim):
    return claim.low if claim.low is not None else claim.high


class TestClaims:
    @pytest.mark.parametrize("scen, claim, side", list(declared_bounds()))
    def test_each_bound_holds_and_fails_its_claim_past_it(
            self, scen, claim, side):
        # No cell is solved: every claim of the scenario gets a value
        # inside its bounds, but ``claim`` gets the bound or just past.
        bound = getattr(claim, side)
        past = bound + (-1 if side == "low" else 1) * 1e-6 * max(
            abs(bound), 1)

        def verdicts(value):
            return [ClaimVerdict(scen.name, other, 0,
                                 value if other is claim else inside(other))
                    for other in scen.claims]

        assert [v.verdict for v in verdicts(bound)] == \
            ["ok"] * len(scen.claims)
        [failed] = [v for v in verdicts(past) if v.problem]
        assert failed.claim is claim
        assert failed.row() == [scen.name, claim.text, 0,
                                format_value(past), claim.bound,
                                "FAILED"]
        assert failed.problem == \
            f"{format_value(past)} outside {claim.bound}"

    def test_a_claim_needs_a_bound(self):
        with pytest.raises(ValueError, match="no bound"):
            Claim("unbounded", len)

    def test_failed_cells_leave_their_seed_unevaluated(self, tmp_path):
        def run(params, seed):
            if seed == 1:
                raise RuntimeError("boom")
            return {"rounds": params["x"], "correct": True}

        register(Scenario(
            name="tmp-claims", run=run, params=[{"x": 1}, {"x": 2}],
            seeds=[0, 1],
            claims=(Claim("most rounds", lambda cells: max(
                c["rounds"] for c in cells), high=1),)))
        try:
            report = run_suite(names=["tmp-claims"],
                               store=ResultStore(tmp_path), record=False)
            smoke = run_suite(names=["tmp-claims"], smoke=True,
                              store=ResultStore(tmp_path), record=False)
        finally:
            unregister("tmp-claims")
        assert [(v.seed, v.value, v.verdict) for v in report.claims] == \
            [(0, 2, "FAILED"), (1, None, "not evaluated")]
        assert report.failed_claims == report.claims[:1]
        assert "not evaluated" in format_suite_report(report)
        assert smoke.claims == []


# -- catalog cells ----------------------------------------------------------

class TestCatalogCells:
    def test_lowerbound_hard_times_the_reduction_of_its_own_instance(
            self):
        import random

        from repro.lowerbound import decide_disjointness_via_two_sisp
        k, d, p = 3, 2, 1
        result = execute_cell(CellSpec.make(
            "lowerbound-hard", {"k": k, "d": d, "p": p}, 0))
        # The cell draws M and x for Lemma 6.8, then the reduction's
        # inputs, from one seeded stream.
        rng = random.Random(0)
        bits = [rng.randint(0, 1) for _ in range(4 * k * k)]
        reduction = decide_disjointness_via_two_sisp(
            bits[2 * k * k:3 * k * k], bits[3 * k * k:], k, d=d, p=p,
            use_oracle_knowledge=True)
        assert reduction.n == result.metrics["n"]
        assert result.metrics["rounds"] == reduction.rounds

    def test_lowerbound_hard_reports_the_reductions_ledger(self):
        import random

        from repro.core.two_sisp import solve_two_sisp
        from repro.lowerbound import build_hard_instance
        from repro.lowerbound.reduction import bits_to_matrix
        k, d, p = 2, 2, 1
        metrics = execute_cell(CellSpec.make(
            "lowerbound-hard", {"k": k, "d": d, "p": p}, 0)).metrics
        rng = random.Random(0)
        bits = [rng.randint(0, 1) for _ in range(4 * k * k)]
        x, y = bits[2 * k * k:3 * k * k], bits[3 * k * k:]
        hard = build_hard_instance(k, d, p, bits_to_matrix(y, k), x)
        ledger = solve_two_sisp(
            hard.instance, landmarks=list(range(hard.n)),
            use_oracle_knowledge=True).rpaths.ledger
        assert metrics["messages"] > 0
        assert ([metrics[key] for key in (
            "rounds", "messages", "words", "max_link_words",
            "violations")] == [ledger.rounds, ledger.messages,
                               ledger.words, ledger.max_link_words,
                               ledger.violations])
        # The rounds and the verdict the cell reported before it
        # carried the totals.
        assert (metrics["rounds"], metrics["correct"]) == (3048, True)


# -- executor ---------------------------------------------------------------

def _cheap_spec():
    return CellSpec.make("exact-grid", {"rows": 3, "cols": 5}, 0)


class TestExecutor:
    def test_determinism_same_seed_identical_metrics(self):
        a = execute_cell(_cheap_spec())
        b = execute_cell(_cheap_spec())
        assert a.ok and b.ok
        assert a.metrics == b.metrics

    def test_error_cells_are_contained(self):
        register(Scenario(
            name="tmp-boom",
            run=lambda p, s: (_ for _ in ()).throw(RuntimeError("boom")),
            params=[{}], seeds=[0]))
        try:
            result = execute_cell(CellSpec.make("tmp-boom", {}, 0))
        finally:
            unregister("tmp-boom")
        assert result.status == "error"
        assert "boom" in result.error

    def test_timeout_yields_structured_result(self):
        def sleeper(params, seed):
            import time
            time.sleep(5)
            return {}

        register(Scenario(name="tmp-sleep", run=sleeper,
                          params=[{}], seeds=[0]))
        try:
            result = execute_cell(CellSpec.make("tmp-sleep", {}, 0),
                                  timeout=0.2)
        finally:
            unregister("tmp-sleep")
        assert result.status == "timeout"
        assert result.wall_time < 4

    def test_swallowed_deadline_still_reaches_the_caller(self):
        # A body (or a library it calls) that catches Exception also
        # catches the alarm's DeadlineExceeded; the deadline's exit
        # raises it again.
        import signal
        import time

        from repro.runtime.executor import DeadlineExceeded, deadline
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("needs SIGALRM")
        with pytest.raises(DeadlineExceeded):
            with deadline(0.01):
                try:
                    time.sleep(0.5)
                except Exception:
                    pass

    def test_truncated_lengths_fail_the_oracle(self):
        # A solver returning fewer lengths than P has edges must never
        # be certified (zip would otherwise pass vacuously).
        from repro.runtime.measure import lengths_match
        assert not lengths_match([3], [3, 4])
        assert not lengths_match([3.0], [3, 4], epsilon=0.5)
        assert lengths_match([3, 4], [3, 4])

    def test_parallel_matches_serial(self):
        specs = [
            CellSpec.make("exact-grid", {"rows": 3, "cols": 5}, 0),
            CellSpec.make("two-sisp",
                          {"family": "double-path", "size": 6}, 0),
        ]
        serial = run_cells(specs, jobs=1)
        parallel = run_cells(specs, jobs=2)
        assert [r.metrics for r in serial] == \
            [r.metrics for r in parallel]

    def test_every_registered_scenario_smokes(self):
        # The whole catalog at tiny n: must execute and verify.
        for result in run_cells(expand_cells(smoke=True), jobs=1,
                                timeout=120):
            assert result.ok, (result.scenario, result.error)
            assert result.correct is not False, result.scenario
            for required in ("rounds", "correct", "n"):
                assert required in result.metrics, result.scenario


# -- store ------------------------------------------------------------------

class TestStore:
    def test_cell_key_stability_and_sensitivity(self):
        spec = _cheap_spec()
        assert cell_key(spec) == cell_key(spec)
        assert cell_key(spec) != cell_key(
            CellSpec.make("exact-grid", {"rows": 3, "cols": 5}, 1))
        assert cell_key(spec, version="aaaa") != cell_key(
            spec, version="bbbb")
        assert len(code_version()) == 16

    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("0" * 64) is None
        result = execute_cell(_cheap_spec())
        result.key = cell_key(result.spec)
        store.put(result)
        cached = store.get(result.key)
        assert cached is not None
        assert cached.cached is True
        assert cached.metrics == result.metrics
        assert len(store) == 1

    def test_corrupt_object_is_a_cache_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        result = execute_cell(_cheap_spec())
        result.key = cell_key(result.spec)
        path = store.put(result)
        path.write_text("garbage{")
        assert store.get(result.key) is None
        assert not path.exists()  # dropped so the re-run heals it

    def test_jsonl_round_trip(self):
        result = execute_cell(_cheap_spec())
        [back] = results_from_jsonl(results_to_jsonl([result]))
        assert back.metrics == result.metrics
        assert back.scenario == result.scenario
        # Each serialized record is a single JSON line.
        assert "\n" not in result.to_json()
        json.loads(result.to_json())

    def test_suite_cache_hit_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        first = run_suite(names=["exact-grid"], smoke=True,
                          store=store, record=False)
        assert first.cache_misses == 1 and first.cache_hits == 0
        second = run_suite(names=["exact-grid"], smoke=True,
                           store=store, record=False)
        assert second.cache_hits == 1 and second.cache_misses == 0
        assert [r.metrics for r in first.results] == \
            [r.metrics for r in second.results]
        third = run_suite(names=["exact-grid"], smoke=True,
                          store=store, use_cache=False, record=False)
        assert third.cache_hits == 0

    def test_run_manifest_is_jsonl(self, tmp_path):
        store = ResultStore(tmp_path)
        report = run_suite(names=["exact-grid"], smoke=True,
                           store=store, label="t")
        assert report.manifest_path is not None
        loaded = ResultStore.load_run(report.manifest_path)
        assert [r.metrics for r in loaded] == \
            [r.metrics for r in report.results]


# -- diff -------------------------------------------------------------------

class TestDiff:
    def test_clean_diff(self):
        a = execute_cell(_cheap_spec())
        b = execute_cell(_cheap_spec())
        report = diff_results([a], [b])
        assert report.clean
        assert report.unchanged == 1

    def test_metric_change_detected(self):
        a = execute_cell(_cheap_spec())
        b = execute_cell(_cheap_spec())
        b.metrics["rounds"] = a.metrics["rounds"] + 7
        report = diff_results([a], [b])
        assert not report.clean
        [cell] = report.changed
        assert "rounds" in cell.changed
        assert cell.changed["rounds"][1] == a.metrics["rounds"] + 7

    def test_added_and_removed(self):
        a = execute_cell(_cheap_spec())
        other = CellResult(scenario="exact-grid",
                           params={"rows": 9, "cols": 9}, seed=3)
        report = diff_results([a], [other])
        assert report.removed and report.added

    def test_cells_match_with_their_fabric_set_aside(self):
        # Every fabric must give the same ledgers, so a --fabric fast
        # manifest diffs against the default one cell by cell.
        spec = _cheap_spec()
        vector = execute_cell(spec)
        fast = execute_cell(CellSpec.make(
            spec.scenario, {**spec.params_dict, "fabric": "fast"},
            spec.seed))
        assert fast.params["fabric"] == "fast"
        report = diff_results([vector], [fast])
        assert report.clean and report.unchanged == 1
        fast.metrics["rounds"] += 1
        report = diff_results([vector], [fast])
        assert [cell.identity for cell in report.changed] == [
            spec.identity()]
        assert report.changed[0].changed["rounds"] == (
            vector.metrics["rounds"], vector.metrics["rounds"] + 1)


# -- CLI --------------------------------------------------------------------

class TestSuiteCli:
    def test_list(self, capsys):
        from repro.cli import main
        assert main(["suite", "list"]) == 0
        out = capsys.readouterr().out
        assert "exact-chords" in out and "apx-eps-sweep" in out

    def test_run_and_diff(self, tmp_path, capsys):
        from repro.cli import main
        argv = ["suite", "run", "--smoke", "--scenario", "exact-grid",
                "--cache-dir", str(tmp_path), "--label", "a"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache hits: 0" in out and "misses: 1" in out
        assert main(argv[:-1] + ["b"]) == 0
        out = capsys.readouterr().out
        assert "cache hits: 1" in out
        runs = sorted((tmp_path / "runs").glob("*.jsonl"))
        assert len(runs) == 2
        assert main(["suite", "diff", str(runs[0]), str(runs[1])]) == 0
        assert "0 changed" in capsys.readouterr().out

    def test_no_cache_still_records_manifest(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["suite", "run", "--smoke", "--scenario",
                     "exact-grid", "--cache-dir", str(tmp_path),
                     "--no-cache"]) == 0
        assert not (tmp_path / "objects").exists()
        assert list((tmp_path / "runs").glob("*.jsonl"))

    def test_no_cache_no_record_writes_nothing(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["suite", "run", "--smoke", "--scenario",
                     "exact-grid", "--cache-dir", str(tmp_path),
                     "--no-cache", "--no-record"]) == 0
        assert not list(tmp_path.iterdir())

    def test_diff_rejects_malformed_manifest(self, tmp_path, capsys):
        from repro.cli import main
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"scenario": "x", truncated')
        with pytest.raises(SystemExit, match="cannot read"):
            main(["suite", "diff", str(bad), str(bad)])
