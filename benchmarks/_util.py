"""The one harness of the CI bench gates.

The paper's experiments are catalog scenarios whose claims ``repro
suite run`` checks (DESIGN.md); the scripts here measure and gate
performance.  The gate benches (``bench_fabric``, ``bench_solver``,
``bench_serve``, ``bench_scale``, ``bench_dynamic``,
``bench_telemetry``) each declare one :class:`Bench`: a
``measure(quick) -> {family: row}`` callable, its report columns and
its :class:`Check` rules.  This module owns the rest: the GC guard,
the check engine, the report, the JSON record, the ``--quick`` /
``--json`` / ``--compare`` command line (``$REPRO_TRACE_DIR`` records
the run's spans for ``repro trace summary``) and the pytest-benchmark
entry.  The environment stamp is the repo benchmark's
(``perfbench.host.environment``, used read-only).  Importing this
module also puts the repository root and its ``src/`` on ``sys.path``,
so the gate scripts run without an install.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT, REPO_ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.host import environment  # noqa: E402

#: Relative regression a baseline rule allows.  Ratios, not absolute
#: rates, are compared: they are stable across runner hardware.
TOLERANCE = 0.25

Rows = Dict[str, dict]


def hard_instance(k: int, d: int, p: int):
    """The Section 6.3 lower-bound instance on a fixed input pair."""
    from repro.lowerbound import build_hard_instance

    matrix = [[(a + b) % 2 for b in range(k)] for a in range(k)]
    x_bits = [i % 2 for i in range(k * k)]
    return build_hard_instance(k, d, p, matrix, x_bits).instance


# -- the gate harness ---------------------------------------------------------


@contextmanager
def quiet_gc():
    """Collect up front, then keep the collector out of the timed region.

    Collection pauses land on whichever side happens to be running and
    were the dominant run-to-run noise on the large kernel workloads;
    pinning them outside the timer keeps best-of-N ratios stable
    enough for the gate tolerance.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


#: Absolute rules, and rules against the committed baseline.
ABSOLUTE_KINDS = ("floor", "ceiling", "true")
BASELINE_KINDS = ("higher", "lower", "same")


@dataclass(frozen=True)
class Check:
    """One gate rule on ``key`` of each named family's row.

    ``kind`` is ``"floor"`` or ``"ceiling"`` (at least / at most
    ``bound``), ``"true"``, or a rule against the committed baseline's
    value: ``"higher"`` (at least it less :data:`TOLERANCE`),
    ``"lower"`` (at most it plus :data:`TOLERANCE`) or ``"same"``
    (equal to it: the size of the workload a ratio was timed on, so a
    changed workload fails by name instead of as a ratio); ``doubled``
    doubles the tolerance, capped at 0.9, for the memory-bound timing
    ratios that are noisiest on shared runners.
    """

    kind: str
    families: Tuple[str, ...]
    key: str
    bound: float = 0.0
    doubled: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ABSOLUTE_KINDS + BASELINE_KINDS:
            raise ValueError(f"unknown check kind {self.kind!r}")

    def problem(self, family: str, row: dict,
                base: Optional[dict] = None) -> Optional[str]:
        """Why ``row`` breaks this rule (None when it holds)."""
        value = row[self.key]
        if self.kind == "true":
            return None if value else (
                f"{family}: {self.key} is {value!r}, not true")
        if self.kind == "same":
            old = base[self.key]
            return None if value == old else (
                f"{family}: {self.key} {value} differs from the "
                f"baseline {old}")
        low = self.kind in ("floor", "higher")
        if self.kind in ABSOLUTE_KINDS:
            limit, source = self.bound, f"the {self.kind}"
        else:
            tolerance = (min(2.0 * TOLERANCE, 0.9) if self.doubled
                         else TOLERANCE)
            old = base[self.key]
            limit = old * (1.0 - tolerance if low else 1.0 + tolerance)
            source = (f"baseline {old} {'-' if low else '+'} "
                      f"{tolerance:.0%}")
        if (value < limit) if low else (value > limit):
            return (f"{family}: {self.key} {value} is "
                    f"{'below' if low else 'above'} {limit:.4g} "
                    f"({source})")
        return None


def gate(checks: Sequence[Check], rows: Rows,
         baseline: Optional[dict] = None,
         quick: bool = False) -> List[str]:
    """Every problem of a run's ``rows`` (empty: the gate passes).

    Baseline rules compare against ``baseline`` unless it is stamped
    with the other mode (``quick``); every family such a baseline
    holds must then be in the run too.
    """
    committed: Rows = {}
    if baseline is not None and baseline.get("quick", quick) == quick:
        committed = baseline.get("families", {})
    problems = [f"{name}: family missing from this run"
                for name in committed if name not in rows]
    for check in checks:
        for family in check.families:
            row, base = rows.get(family), committed.get(family)
            if row is None or (check.kind in BASELINE_KINDS
                               and base is None):
                continue
            problem = check.problem(family, row, base)
            if problem:
                problems.append(problem)
    return problems


@dataclass(frozen=True)
class Bench:
    """One CI gate: what it measures, shows and checks."""

    name: str
    measure: Callable[[bool], Rows]
    title: str
    columns: Tuple[str, ...]
    checks: Tuple[Check, ...]
    #: Record the run's mode: a committed baseline of the other mode
    #: then skips its baseline rules.
    stamp_mode: bool = False


def render(bench: Bench, rows: Rows) -> str:
    from repro.analysis import format_records

    return format_records(
        [{"family": name, **row} for name, row in rows.items()],
        ("family",) + bench.columns, title=bench.title)


def record(bench: Bench, rows: Rows, quick: bool) -> dict:
    """The JSON a run writes and a later run compares against."""
    payload: Dict[str, object] = {"bench": bench.name}
    if bench.stamp_mode:
        payload["quick"] = quick
    payload.update(tolerance=TOLERANCE, environment=environment(),
                   families=rows)
    return payload


def main(bench: Bench, argv=None) -> int:
    """The gate's command line: measure, report, record, check."""
    parser = argparse.ArgumentParser(
        description=sys.modules[bench.measure.__module__].__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run")
    parser.add_argument("--json", type=pathlib.Path,
                        help="write the machine-readable report here")
    parser.add_argument("--compare", type=pathlib.Path,
                        help="committed baseline JSON to gate against")
    args = parser.parse_args(argv)

    from repro import telemetry

    traced = telemetry.maybe_enable_from_env()
    if traced:
        telemetry.write_meta(telemetry.trace_dir(), bench=bench.name,
                             quick=args.quick)
    rows = bench.measure(args.quick)
    if traced:
        print(f"trace: {telemetry.flush()}")
    print(render(bench, rows))
    if args.json is not None:
        args.json.write_text(json.dumps(
            record(bench, rows, args.quick), indent=2) + "\n")
        print(f"wrote {args.json}")

    baseline = None
    if args.compare is not None:
        baseline = json.loads(args.compare.read_text())
    problems = gate(bench.checks, rows, baseline, args.quick)
    for line in problems:
        print(f"GATE FAILED: {line}", file=sys.stderr)
    if problems:
        return 1
    print(f"{bench.name} gate ok"
          + (f" (vs {args.compare}, tolerance {TOLERANCE:.0%})"
             if args.compare else ""))
    return 0


def run_entry(benchmark, bench: Bench,
                measure: Optional[Callable[[], Rows]] = None) -> None:
    """pytest-benchmark entry: time the quick measurement (or
    ``measure``), print its report and assert the absolute rules."""
    rows = benchmark.pedantic(measure or (lambda: bench.measure(True)),
                              rounds=1, iterations=1)
    print(render(bench, rows))
    problems = gate(bench.checks, rows, quick=True)
    assert not problems, problems
