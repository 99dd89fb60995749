"""Workload generators, the serve-* scenarios, and the serving CLI."""

import pytest

from repro.cli import main
from repro.runtime import CellSpec, execute_cell, scenario_names
from repro.serve import WORKLOADS, generate_workload
from repro.serve.workload import zipf_sources


class TestGenerators:
    @pytest.mark.parametrize("kind", sorted(WORKLOADS))
    def test_deterministic_and_sized(self, small_random, kind):
        a = generate_workload(kind, small_random, 50, seed=7)
        b = generate_workload(kind, small_random, 50, seed=7)
        c = generate_workload(kind, small_random, 50, seed=8)
        assert a == b
        assert len(a) == 50
        assert a != c  # another seed, another stream
        assert all(q.instance == small_random.name for q in a)

    def test_unknown_kind_raises(self, small_random):
        with pytest.raises(ValueError, match="unknown workload"):
            generate_workload("tsunami", small_random, 5)

    def test_uniform_is_all_own_pair(self, small_random):
        for q in generate_workload("uniform", small_random, 30,
                                   seed=1):
            assert (q.s, q.t) == (small_random.s, small_random.t)

    def test_zipf_sources_are_skewed(self, small_random):
        sources = zipf_sources(small_random, 400,
                               __import__("random").Random(3),
                               alpha=1.5)
        counts = sorted(
            (sources.count(v) for v in set(sources)), reverse=True)
        # The hottest source should dominate a uniform share.
        assert counts[0] > 400 / small_random.n * 3

    def test_adversarial_never_repeats_pairs_early(self, small_random):
        stream = generate_workload("adversarial", small_random, 60,
                                   seed=2)
        seen = set()
        for q in stream:
            assert (q.s, q.edge) not in seen
            seen.add((q.s, q.edge))
            assert q.s != small_random.s  # never an O(1) hit

    def test_mixed_read_fraction_bounds(self, small_random):
        with pytest.raises(ValueError):
            generate_workload("mixed", small_random, 10,
                              read_fraction=1.5)
        stream = generate_workload("mixed", small_random, 40, seed=3,
                                   read_fraction=0.5)
        reads = sum(1 for q in stream
                    if (q.s, q.t) == (small_random.s,
                                      small_random.t))
        assert reads == 20


class TestServeScenarios:
    def test_registered_in_catalog(self):
        names = scenario_names()
        for name in ("serve-uniform", "serve-zipf",
                     "serve-adversarial", "serve-mixed"):
            assert name in names

    @pytest.mark.parametrize("name,params", [
        ("serve-zipf", {"n": 20, "queries": 36, "alpha": 1.2}),
        ("serve-adversarial", {"n": 18, "queries": 30}),
    ])
    def test_cells_execute_and_verify(self, name, params):
        result = execute_cell(CellSpec.make(name, params, 0))
        assert result.ok, result.error
        assert result.metrics["correct"] is True
        assert result.metrics["queries"] > 0
        assert result.metrics["batch_solves"] > 0

    def test_uniform_cell_is_all_hits(self):
        result = execute_cell(CellSpec.make(
            "serve-uniform", {"n": 20, "queries": 30}, 0))
        assert result.ok and result.metrics["hit_ratio"] == 1.0
        assert result.metrics["batch_solves"] == 0


class TestServeCli:
    def test_query_path_edge(self, capsys):
        code = main(["query", "--family", "grid", "--n", "24",
                     "--fail-index", "1", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hit-path-edge" in out
        assert "oracle check: OK" in out

    def test_query_arbitrary_pair(self, capsys):
        code = main(["query", "--family", "random", "--n", "30",
                     "--source", "3", "--target", "7",
                     "--solver", "centralized", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fallback-solve" in out

    def test_query_explicit_edge(self, capsys):
        code = main(["query", "--family", "chords", "--n", "30",
                     "--edge", "0", "1", "--check"])
        assert code == 0
        assert "oracle check: OK" in capsys.readouterr().out

    def test_parser_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["serve", "load", "--workload", "tsunami"])
