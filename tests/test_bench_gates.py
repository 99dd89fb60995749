"""The CI bench gates' rules, on committed and nudged rows.

Each gate script in ``benchmarks/`` declares its checks as data
(``BENCH``) and ``benchmarks/_util.gate`` runs them.  These tests run
no measurement: they feed the gate the committed ``BENCH_*.json``
files, and rows nudged to either side of every declared bound.
"""

import importlib
import itertools
import json
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import _util  # noqa: E402

GATES = ("fabric", "solver", "serve", "scale", "dynamic", "telemetry")
COMMITTED = GATES[:-1]
STAMPED = ("serve", "dynamic")

#: Rows of families no committed file holds: the scale pytest entry's
#: cheap diet row, and the telemetry gate (it commits no baseline).
SYNTHETIC = {
    "diet-16384": {"ratio": 2.0},
    "disabled-overhead": {"instrumented": 1.0, "bypassed": 1.0,
                          "overhead": 0.0},
}


def bench(name):
    return importlib.import_module(f"bench_{name}").BENCH


def committed(name):
    return json.loads((BENCH_DIR / f"BENCH_{name}.json").read_text())


def modes(payload):
    """Run modes a committed file is compared in."""
    return (payload["quick"],) if "quick" in payload else (False, True)


def limit_of(check, base_row):
    """The value ``check`` holds the key to (None for "true")."""
    if check.kind == "true":
        return None
    if check.kind in _util.ABSOLUTE_KINDS:
        return check.bound
    if check.kind == "same":
        return base_row[check.key]
    tolerance = _util.TOLERANCE * (2 if check.doubled else 1)
    sign = -1 if check.kind == "higher" else 1
    return base_row[check.key] * (1 + sign * min(tolerance, 0.9))


def nudged(check, limit, past, step=1e-6):
    """Values just inside (``past`` False) or just past the limit; a
    "same" value is inside only at the limit, and past it either way."""
    if check.kind == "true":
        return [not past]
    delta = step * max(abs(limit), 1)
    if check.kind == "same":
        return [limit - delta, limit + delta] if past else []
    low = check.kind in ("floor", "higher")
    return [limit + (-1 if low == past else 1) * delta]


def declared():
    for name in GATES:
        for check in bench(name).checks:
            for family in check.families:
                yield pytest.param(
                    name, check, family,
                    id=f"{name}-{family}-{check.key}-{check.kind}"
                       f"{check.bound:g}")


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_baseline_passes_its_own_gate(name):
    payload = committed(name)
    for quick in modes(payload):
        assert _util.gate(bench(name).checks, payload["families"],
                          payload, quick) == []


@pytest.mark.parametrize("name", COMMITTED)
def test_record_has_the_committed_schema(name):
    payload = committed(name)
    record = _util.record(bench(name), payload["families"],
                          modes(payload)[0])
    assert list(record) == list(payload)
    assert ("quick" in record) == (name in STAMPED)


@pytest.mark.parametrize("name", COMMITTED)
def test_checks_name_families_the_bench_measures(name):
    known = set(committed(name)["families"]) | set(SYNTHETIC)
    for check in bench(name).checks:
        assert set(check.families) <= known, check


@pytest.mark.parametrize("name, check, family", list(declared()))
def test_each_bound_separates_inside_from_past(name, check, family):
    rows = committed(name)["families"] if name in COMMITTED else {}
    template = dict(rows.get(family) or SYNTHETIC[family])
    # The only condition a gate declares is on the row's CPU count.
    row = next(dict(template, cpus=cpus) for cpus in (1, 2, 3, 4)
               if check.applies(dict(template, cpus=cpus)))
    baseline = {"families": {family: row}}
    limit = limit_of(check, row)
    inside = nudged(check, limit, past=False)
    if limit is not None:
        inside.append(limit)  # the bound itself still holds
    for value in inside:
        assert _util.gate([check], {family: dict(
            row, **{check.key: value})}, baseline) == []
    for value in nudged(check, limit, past=True):
        problems = _util.gate([check], {family: dict(
            row, **{check.key: value})}, baseline)
        assert len(problems) == 1
        assert problems[0].startswith(f"{family}: {check.key} ")


def regressed(name, payload):
    """The committed rows with every baseline-ruled value moved 1%
    past its limit ("same" values 1% up; still inside every absolute
    bound)."""
    rows = {family: dict(row)
            for family, row in payload["families"].items()}
    count = 0
    for check in bench(name).checks:
        if check.kind not in _util.BASELINE_KINDS:
            continue
        for family in check.families:
            base = payload["families"][family]
            if not check.applies(base):
                continue
            low = check.kind == "higher"
            rows[family][check.key] = (limit_of(check, base)
                                       * (0.99 if low else 1.01))
            count += 1
    return rows, count


@pytest.mark.parametrize("name", STAMPED)
def test_other_mode_baseline_skips_ratio_checks(name):
    payload = committed(name)
    rows, count = regressed(name, payload)
    checks = bench(name).checks
    assert count and len(_util.gate(checks, rows, payload,
                                    payload["quick"])) == count
    assert _util.gate(checks, rows, payload,
                      not payload["quick"]) == []


def test_unstamped_solver_file_is_compared_in_every_mode():
    payload = committed("solver")
    assert "quick" not in payload
    rows, count = regressed("solver", payload)
    for quick in (False, True):
        problems = _util.gate(bench("solver").checks, rows, payload,
                              quick)
        assert count and len(problems) == count


@pytest.mark.parametrize("cpus, speedup, failing", [
    (1, 0.1, False), (2, 1.19, True), (2, 1.21, False),
    (3, 1.19, True), (4, 1.99, True), (4, 2.01, False),
])
def test_fanout_floor_follows_cpus(cpus, speedup, failing):
    rows = {"fanout-kbfs-32768": {"cpus": cpus,
                                  "speedup_fanout": speedup}}
    assert bool(_util.gate(bench("scale").checks, rows)) == failing


def test_fanout_baseline_needs_two_cpus_on_both_sides():
    family = "fanout-kbfs-32768"
    for run_cpus, base_cpus in itertools.product((1, 2, 4), repeat=2):
        # 2.5x holds every CPU floor, but is a collapse from 10x.
        rows = {family: {"cpus": run_cpus, "speedup_fanout": 2.5}}
        baseline = {"families": {family: {"cpus": base_cpus,
                                          "speedup_fanout": 10.0}}}
        problems = _util.gate(bench("scale").checks, rows, baseline)
        assert len(problems) == (run_cpus >= 2 and base_cpus >= 2)


@pytest.mark.parametrize("name", COMMITTED)
def test_missing_family_is_reported(name):
    payload = committed(name)
    for family in payload["families"]:
        rows = {other: row for other, row in payload["families"].items()
                if other != family}
        assert _util.gate(bench(name).checks, rows, payload,
                          modes(payload)[0]) == [
            f"{family}: family missing from this run"]
