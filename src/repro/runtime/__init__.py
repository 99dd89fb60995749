"""repro.runtime — scenario registry, parallel executor, result cache.

The runtime turns ad-hoc benchmark loops into declarative experiments:

* :mod:`~repro.runtime.registry` — ``Scenario`` dataclasses, the
  ``@scenario`` decorator, and ``Claim``: a paper claim declared on
  the scenario that measures it; the standard catalog
  (:mod:`~repro.runtime.catalog`) registers one scenario per
  experimental regime.
* :mod:`~repro.runtime.executor` — fans scenario x seed cells out over
  a process pool with per-cell timeouts.
* :mod:`~repro.runtime.store` — content-addressed JSONL result store
  keyed by (scenario, params, seed, code version); re-runs are cache
  hits and regression diffs are :func:`diff_results`.
* :mod:`~repro.runtime.suite` — :func:`run_suite` wires the three
  together, checks every full-grid scenario's claims, and backs the
  ``repro suite`` CLI.

See DESIGN.md for the end-to-end walkthrough.
"""

from .measure import ALGORITHMS, Measurement, measure_algorithm
from .registry import (
    Claim,
    Scenario,
    all_scenarios,
    get_scenario,
    register,
    scenario,
    scenario_names,
    unregister,
)
from .results import CellResult, CellSpec
from .executor import default_jobs, execute_cell, run_cells
from .store import (
    DiffReport,
    ResultStore,
    cell_key,
    code_version,
    diff_results,
)
from .suite import (
    ClaimVerdict,
    SuiteReport,
    expand_cells,
    format_suite_report,
    run_suite,
)

__all__ = [
    "ALGORITHMS",
    "CellResult",
    "CellSpec",
    "Claim",
    "ClaimVerdict",
    "DiffReport",
    "Measurement",
    "ResultStore",
    "Scenario",
    "SuiteReport",
    "all_scenarios",
    "cell_key",
    "code_version",
    "default_jobs",
    "diff_results",
    "execute_cell",
    "expand_cells",
    "format_suite_report",
    "get_scenario",
    "measure_algorithm",
    "register",
    "run_cells",
    "run_suite",
    "scenario",
    "scenario_names",
    "unregister",
]
