"""Suite orchestration: registry -> cache -> executor -> store -> claims.

:func:`run_suite` is the one entry point every harness uses (the
``repro suite`` CLI, CI's smoke and claims jobs): it expands the
requested scenarios into cells, serves what it can from the
content-addressed store, fans the rest out over the executor, persists
fresh results, checks each full-grid scenario's paper claims, and
writes a JSONL run manifest for later ``suite diff``.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .. import telemetry
from .executor import run_cells
from .registry import (
    Claim,
    Scenario,
    all_scenarios,
    format_value,
    get_scenario,
)
from .results import CellResult, CellSpec, canonical_params
from .store import ResultStore, cell_key, code_version


@dataclass(frozen=True)
class ClaimVerdict:
    """One claim on one seed: its value, or None when not evaluated."""

    scenario: str
    claim: Claim
    seed: int
    value: Optional[float] = None

    @property
    def problem(self) -> Optional[str]:
        return None if self.value is None else self.claim.problem(
            self.value)

    @property
    def verdict(self) -> str:
        if self.value is None:
            return "not evaluated"
        return "FAILED" if self.problem else "ok"

    def row(self) -> List[object]:
        value = "-" if self.value is None else format_value(self.value)
        return [self.scenario, self.claim.text, self.seed, value,
                self.claim.bound, self.verdict]


def evaluate_claims(scen: Scenario,
                    results: Sequence[CellResult]) -> List[ClaimVerdict]:
    """Every claim of ``scen`` on each seed's cells of its full grid.

    A seed whose cells did not all finish ok is not evaluated (the run
    already fails on those cells).
    """
    by_seed: Dict[int, List[CellResult]] = {}
    for result in results:
        by_seed.setdefault(result.seed, []).append(result)
    verdicts = []
    for claim in scen.claims:
        for seed in scen.seeds:
            cells = by_seed.get(seed, [])
            value = None
            if cells and all(cell.ok for cell in cells):
                value = claim.value(
                    [{**cell.params, **cell.metrics} for cell in cells])
            verdicts.append(ClaimVerdict(scen.name, claim, seed, value))
    return verdicts


@dataclass
class SuiteReport:
    """Outcome of one suite invocation."""

    results: List[CellResult]
    cache_hits: int
    cache_misses: int
    wall_time: float
    jobs: int
    manifest_path: Optional[pathlib.Path] = None
    code_version: str = ""
    trace_dir: Optional[pathlib.Path] = None
    claims: List[ClaimVerdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def all_correct(self) -> bool:
        return all(r.correct is not False for r in self.results)

    @property
    def failed_claims(self) -> List[ClaimVerdict]:
        return [v for v in self.claims if v.problem]

    def by_scenario(self) -> Dict[str, List[CellResult]]:
        out: Dict[str, List[CellResult]] = {}
        for result in self.results:
            out.setdefault(result.scenario, []).append(result)
        return out

    def summary_rows(self) -> List[List[object]]:
        """Per-scenario aggregate rows for the tables renderer."""
        rows: List[List[object]] = []
        for name, cells in sorted(self.by_scenario().items()):
            ok = sum(1 for c in cells if c.ok)
            correct = sum(1 for c in cells if c.correct is not False)
            cached = sum(1 for c in cells if c.cached)
            rounds = [c.metrics.get("rounds") for c in cells
                      if isinstance(c.metrics.get("rounds"), int)]
            # Fabric throughput over the scenario's freshly-executed
            # cells (cached cells carry their original wall time, which
            # says nothing about this run's fabric).
            fresh = [c for c in cells
                     if not c.cached and c.rounds_per_sec is not None]
            if fresh:
                total_rounds = sum(c.metrics["rounds"] for c in fresh)
                total_wall = sum(c.wall_time for c in fresh)
                rps = f"{total_rounds / total_wall:.0f}"
            else:
                rps = "-"
            rows.append([
                name,
                len(cells),
                f"{ok}/{len(cells)}",
                f"{correct}/{len(cells)}",
                cached,
                max(rounds) if rounds else "-",
                rps,
                f"{sum(c.wall_time for c in cells):.2f}s",
            ])
        return rows

    def duration_rows(self, top: int = 10) -> List[List[object]]:
        """The ``top`` slowest cells by wall time (slowest first)."""
        cells = sorted(self.results, key=lambda c: c.wall_time,
                       reverse=True)[:max(0, top)]
        return [
            [
                cell.scenario,
                canonical_params(cell.params),
                cell.seed,
                "cached" if cell.cached else cell.status,
                f"{cell.wall_time:.3f}s",
            ]
            for cell in cells
        ]


def _scenarios(names: Optional[Sequence[str]]) -> List[Scenario]:
    if names:
        return [get_scenario(name) for name in names]
    return all_scenarios()


def expand_cells(
    names: Optional[Sequence[str]] = None,
    smoke: bool = False,
    fabric: Optional[str] = None,
) -> List[CellSpec]:
    """All cells of the named scenarios (default: whole catalog).

    ``fabric`` injects a ``fabric`` key into every cell's parameter
    point, overriding the default engine (``DEFAULT_FABRIC``); it
    becomes part of the cell identity, so results for different
    fabrics occupy distinct slots in the content-addressed store.
    ``None`` leaves parameter points (and historical cache keys)
    untouched.
    """
    if fabric is not None:
        from ..congest.network import resolve_fabric
        fabric = resolve_fabric(fabric)
    specs: List[CellSpec] = []
    for scen in _scenarios(names):
        specs.extend(scen.cells(smoke=smoke))
    if fabric is not None:
        specs = [
            CellSpec.make(spec.scenario,
                          {**spec.params_dict, "fabric": fabric},
                          spec.seed)
            for spec in specs
        ]
    return specs


def run_suite(
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    smoke: bool = False,
    use_cache: bool = True,
    store: Optional[ResultStore] = None,
    timeout: Optional[float] = None,
    label: str = "suite",
    record: bool = True,
    progress: Optional[Callable[[CellResult], None]] = None,
    fabric: Optional[str] = None,
    trace: bool = False,
) -> SuiteReport:
    """Run (or serve from cache) every cell of the selected scenarios.

    ``fabric`` forces every cell onto one exchange engine (see
    :func:`expand_cells`); scenarios read it from their parameter
    point and thread it through to the solvers.  ``trace`` turns on
    span recording for the invocation and writes the JSONL trace
    artifact into a fresh ``traces/`` directory of the store
    (``SuiteReport.trace_dir``); worker processes inherit the sink via
    the environment and flush their own per-pid files.

    Unless ``smoke`` (one point per scenario fits no shape), every
    selected scenario's claims are evaluated over its cells, cached
    ones included, into ``SuiteReport.claims``.
    """
    start = time.perf_counter()
    store = store if store is not None else ResultStore()
    version = code_version()

    trace_sink: Optional[pathlib.Path] = None
    if trace:
        trace_sink = store.new_trace_dir(label)
        telemetry.enable_tracing(trace_sink)
        telemetry.write_meta(trace_sink, label=label,
                             scenarios=list(names) if names else "all",
                             smoke=smoke, fabric=fabric, jobs=jobs,
                             code_version=version)
    try:
        specs = expand_cells(names, smoke=smoke, fabric=fabric)
        keys = [cell_key(spec, version) for spec in specs]

        results: List[Optional[CellResult]] = [None] * len(specs)
        missing: List[int] = []
        with telemetry.span("suite/run", label=label, smoke=smoke,
                            fabric=fabric, cells=len(specs)):
            for idx, key in enumerate(keys):
                cached = store.get(key) if use_cache else None
                if cached is not None:
                    results[idx] = cached
                    if progress is not None:
                        progress(cached)
                else:
                    missing.append(idx)

            fresh = run_cells(
                [specs[idx] for idx in missing],
                jobs=jobs, timeout=timeout, progress=progress)
            for idx, result in zip(missing, fresh):
                result.key = keys[idx]
                results[idx] = result
                if use_cache and result.ok:
                    store.put(result)
    finally:
        if trace:
            telemetry.flush(trace_sink)
            telemetry.disable_tracing()

    final = [r for r in results if r is not None]
    report = SuiteReport(
        results=final,
        cache_hits=len(specs) - len(missing),
        cache_misses=len(missing),
        wall_time=time.perf_counter() - start,
        jobs=jobs,
        code_version=version,
        trace_dir=trace_sink,
    )
    if record:
        report.manifest_path = store.record_run(label, final)
    if not smoke:
        by_scenario = report.by_scenario()
        for scen in _scenarios(names):
            report.claims.extend(evaluate_claims(
                scen, by_scenario.get(scen.name, [])))
    return report


def format_suite_report(report: SuiteReport, title: str = "",
                        durations: int = 0) -> str:
    """Rendered per-scenario summary table plus the cache line.

    ``durations > 0`` appends a table of the N slowest cells; a run
    that evaluated claims appends their verdicts.
    """
    from ..analysis.tables import format_table

    table = format_table(
        ["scenario", "cells", "ok", "correct", "cached", "max rounds",
         "rounds/s", "wall"],
        report.summary_rows(),
        title=title or "suite results",
    )
    lines = [
        table,
        f"cells: {len(report.results)}  cache hits: "
        f"{report.cache_hits}  misses: {report.cache_misses}  "
        f"jobs: {report.jobs}  wall: {report.wall_time:.2f}s  "
        f"code: {report.code_version}",
    ]
    if report.claims:
        lines.append(format_table(
            ["scenario", "claim", "seed", "value", "bound", "verdict"],
            [verdict.row() for verdict in report.claims],
            title="paper claims"))
    if durations > 0 and report.results:
        lines.append(format_table(
            ["scenario", "params", "seed", "status", "wall"],
            report.duration_rows(durations),
            title=f"slowest {min(durations, len(report.results))} cells",
        ))
    if report.manifest_path is not None:
        lines.append(f"manifest: {report.manifest_path}")
    if report.trace_dir is not None:
        lines.append(f"trace: {report.trace_dir}")
    return "\n".join(lines)
