"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main

#: The source root a ``python -m repro`` subprocess imports from.
_SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.family == "random"
        assert args.n == 100
        assert args.epsilon is None

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--family", "torus"])


class TestSolveCommand:
    def test_unweighted_with_check(self, capsys):
        code = main(["solve", "--family", "grid", "--n", "24",
                     "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Theorem 1" in out
        assert "oracle check: OK" in out

    def test_breakdown_prints_ledger(self, capsys):
        code = main(["solve", "--family", "random", "--n", "40",
                     "--seed", "2", "--breakdown"])
        out = capsys.readouterr().out
        assert code == 0
        assert "short-detour(P4.1)" in out

    def test_too_small_instance_is_a_one_line_error(self):
        with pytest.raises(SystemExit, match="^error: random_instance"):
            main(["solve", "--n", "2"])

    def test_weighted_requires_epsilon(self):
        with pytest.raises(SystemExit):
            main(["solve", "--family", "random", "--n", "30",
                  "--weighted"])

    def test_weighted_with_epsilon(self, capsys):
        code = main(["solve", "--family", "random", "--n", "26",
                     "--weighted", "--epsilon", "0.5", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Theorem 3" in out
        assert "oracle check: OK" in out


class TestSuiteFabricFlag:
    def test_rejects_unknown_fabric(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["suite", "run", "--fabric", "quantum"])

    def test_run_with_vector_fabric(self, tmp_path, capsys):
        code = main(["suite", "run", "--smoke", "--jobs", "1",
                     "--scenario", "exact-grid", "--fabric", "vector",
                     "--cache-dir", str(tmp_path), "--no-record"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact-grid" in out

    def test_fabric_results_cache_separately(self, tmp_path, capsys):
        base = ["suite", "run", "--smoke", "--jobs", "1", "--scenario",
                "exact-grid", "--cache-dir", str(tmp_path),
                "--no-record"]
        assert main(base + ["--fabric", "fast"]) == 0
        capsys.readouterr()
        # Same fabric again: pure cache hits.  Different fabric: a miss
        # (the injected fabric key is part of the cell identity).
        assert main(base + ["--fabric", "fast"]) == 0
        assert "misses: 0" in capsys.readouterr().out
        assert main(base + ["--fabric", "vector"]) == 0
        assert "misses: 1" in capsys.readouterr().out


def _cheap_cell(params, seed):
    return {"n": 2, "rounds": params["x"], "correct": True}


class TestSuiteClaims:
    def test_broken_claim_fails_full_runs_not_smoke(self, tmp_path,
                                                    capsys):
        from repro.runtime import Claim, Scenario, register, unregister
        register(Scenario(
            name="tmp-cheap", run=_cheap_cell,
            params=[{"x": 1}, {"x": 2}], seeds=[0],
            claims=(Claim("rounds stay at most 1", lambda cells: max(
                c["rounds"] for c in cells), high=1),)))
        argv = ["suite", "run", "--scenario", "tmp-cheap", "--jobs",
                "1", "--cache-dir", str(tmp_path), "--no-record"]
        failed = ("CLAIM FAILED tmp-cheap seed=0: rounds stay at most "
                  "1: 2 outside (-inf, 1]")
        try:
            assert main(argv) == 1
            assert failed in capsys.readouterr().out
            # Cached cells count: the re-run is all hits, still checked.
            assert main(argv) == 1
            out = capsys.readouterr().out
            assert "misses: 0" in out and failed in out
            assert main(argv + ["--smoke"]) == 0
            assert "CLAIM" not in capsys.readouterr().out
        finally:
            unregister("tmp-cheap")


class TestOtherCommands:
    def test_compare(self, capsys):
        code = main(["compare", "--family", "grid", "--n", "20"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("theorem1", "mr24b", "trivial"):
            assert name in out

    def test_compare_all_exact_on_random(self, capsys):
        code = main(["compare", "--family", "random", "--n", "40",
                     "--seed", "3"])
        rows = [line.split() for line in
                capsys.readouterr().out.splitlines()[3:]]
        assert code == 0
        assert [(row[0], row[-1]) for row in rows] == [
            ("theorem1", "OK"), ("mr24b", "OK"), ("trivial", "OK")]

    def test_lower_bound(self, capsys):
        code = main(["lower-bound", "--k", "2", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Lemma 6.8 dichotomy holds: True" in out

    def test_lower_bound_runs_the_catalog_cell(self, capsys):
        """``--k/--d/--p`` reach the reduction demo, which draws what
        the ``lowerbound-hard`` cell draws for the same seed."""
        from repro.runtime.catalog import run_lowerbound_hard
        cell = run_lowerbound_hard({"k": 3, "d": 2, "p": 1}, 5)
        assert main(["lower-bound", "--k", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert (f"G(k=3, d=2, p=1): n={cell['n']}, "
                f"L_opt={cell['optimal_length']}") in out
        assert f" in {cell['rounds']} rounds (OK)" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        assert "PODC 2025" in capsys.readouterr().out


class TestQueryTimeout:
    def test_deadline_expiry_is_structured(self, capsys):
        import json
        import signal

        import pytest
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("needs SIGALRM")
        code = main(["query", "--n", "400", "--timeout", "0.01",
                     "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 2
        assert data["outcome"] == "timeout"
        assert data["timeout_seconds"] == 0.01
        assert "length" not in data

    def test_generous_deadline_answers_normally(self, capsys):
        import json
        code = main(["query", "--family", "grid", "--n", "20",
                     "--timeout", "60", "--check", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["outcome"] == "ok"
        assert data["check"] is True

    @pytest.mark.parametrize("seconds", ["-1", "0"])
    def test_non_positive_timeout_is_rejected(self, seconds):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "query", "--n", "12",
             "--timeout", seconds, "--json"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": _SRC})
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert proc.stderr == (f"error: --timeout must be positive, "
                               f"got {float(seconds):g}\n")

    @pytest.mark.parametrize("flag", ["--source", "--target"])
    def test_out_of_range_endpoint_is_rejected(self, flag):
        # Checked before the oracle build, with a one-line error.
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "query", "--n", "12",
             flag, "999", "--json"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": _SRC})
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert proc.stderr == f"error: {flag} 999 out of range for n=12\n"

    def test_rejected_deadline_installs_nothing(self):
        import signal

        from repro.runtime.executor import deadline
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("needs SIGALRM")
        before = signal.getsignal(signal.SIGALRM)
        with pytest.raises(ValueError, match="positive"):
            with deadline(-1):
                pass
        assert signal.getsignal(signal.SIGALRM) is before


class TestServeDaemonCommands:
    def test_serve_bench_reports_percentiles(self, capsys):
        import json
        code = main(["serve", "bench", "--n", "14", "--instances", "2",
                     "--queries", "24", "--workload", "uniform",
                     "--solver", "centralized", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        [record] = data["workloads"]
        latency = record["latency_ms"]
        assert latency["p50"] <= latency["p95"] <= latency["p99"]
        assert record["latency_sample"] == 24

    def test_serve_daemon_selfcheck(self, capsys):
        code = main(["serve", "daemon", "--n", "16", "--instances",
                     "2", "--workers", "1", "--solver", "centralized",
                     "--selfcheck", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "self-check: 12/12 ok" in out
        assert "daemon stopped (drained)" in out

    def test_serve_load_gates_pass(self, capsys, tmp_path):
        import json
        stats_path = tmp_path / "stats.json"
        code = main(["serve", "load", "--n", "16", "--instances", "2",
                     "--workers", "1", "--queries", "40",
                     "--workload", "mixed", "--solver", "centralized",
                     "--check", "--check-telemetry",
                     "--stats-json", str(stats_path), "--json"])
        out = capsys.readouterr().out
        data = json.loads(out[out.index("{"):])
        assert code == 0
        [row] = data["workloads"]
        assert row["mismatches"] == 0
        assert row["ok"] == row["sent"]
        assert row["latency_ms"]["p95"] >= row["latency_ms"]["p50"]
        assert data["failures"] == []
        stats = json.loads(stats_path.read_text())
        assert stats["totals"]["queries"] >= 40
        assert stats["load"]

    def test_serve_load_p95_floor_breach_fails(self, capsys):
        code = main(["serve", "load", "--n", "16", "--instances", "1",
                     "--workers", "1", "--queries", "10",
                     "--workload", "uniform", "--solver",
                     "centralized", "--max-p95-ms", "0.000001"])
        captured = capsys.readouterr()
        assert code == 1
        assert "p95" in captured.err
