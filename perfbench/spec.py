"""What the benchmark measures: workloads, sizes and metric declarations.

This module is the single source of truth for ``BENCHMARK.json``:
``python3 perfbench/run.py --all`` regenerates the file from
:func:`config`, and ``perfbench/tests`` checks that the committed copy
matches it.  Each metric is declared once, with its unit, its direction
and (end-to-end metrics only) the share of the parent's median by which
it may worsen before a change counts as a regression.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Seconds one run measures (the timed region, set-up excluded).
RUN_SECONDS = 15

#: Set-ups per run (solve, serve); ``setup_s`` reports their median.
SOLVE_SETUP_REPS = 3
SERVE_SETUP_REPS = 5

# -- solve workloads ----------------------------------------------------------

#: Instances per solve pool, solved in rotation.
POOL = 4
EXPANDER_N = 2048
EXPANDER_DEGREE = 4
LONGPATH_HOPS = 1024
SOLVE_FABRIC = "vector"
LANDMARK_C = 0.5

# -- serve workloads ----------------------------------------------------------

#: Instances in the served catalog, each ``random_instance(SERVE_N)``.
CATALOG = 4
SERVE_N = 64
#: ``repro serve daemon`` defaults, pinned so the workload does not
#: change with the host's CPU count.
SERVE_WORKERS = 2
SERVE_CAPACITY = 4
#: Closed-loop queries run through the front-end at the end of set-up.
WARMUP_QUERIES = 200
#: Length of the pre-generated closed-loop stream (cycled).
CLOSED_STREAM = 8000
#: Traced runs end with an open-loop mutation phase of this length
#: (at most a third of the run): offered rate (requests per second),
#: mutation schedule and staleness budget.
MUTATE_PHASE_S = 5.0
OPEN_RATE = 500
MUTATE_EVERY = 500
BURST_SIZE = 4
MAX_STALENESS = 1
#: The closed loop runs in whole windows of this length; between its
#: requests the echo probe times this many round trips per window,
#: evenly spaced.
WINDOW_S = 0.5
PROBE_TRIPS = 100

#: Requests timed in-process per traced run (the ladder's floor).
LADDER_QUERIES = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


WORKLOADS: Tuple[Workload, ...] = (
    Workload("solve-expander",
             "short path (h_st ~ 7): landmark k-source BFS and the |L|^2 "
             "pair broadcast carry the solve"),
    Workload("solve-longpath",
             "long path (h_st = 1024), where Theorem 1 beats MR24: the "
             "path-phase kernels carry the solve, k-source BFS is ~1%"),
    Workload("serve-closed",
             "closed loop of O(1) oracle hits through front-end and "
             "daemon: admission, dispatch, IPC and resolve dominate"),
)

END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("op_p50_ms", "ms", "lower", 0.25),
    Metric("op_tail_ms", "ms", "lower", 0.25),
    Metric("throughput_per_s", "1/s", "higher", 0.25),
    Metric("rounds", "rounds", "lower", 0.05),
    Metric("ok_share", "ratio", "higher", 0.01),
    Metric("peak_rss_mib", "MiB", "lower", 0.1),
)

#: The ten registered CONGEST primitives of ``repro.congest.dispatch``.
KERNELS: Tuple[str, ...] = (
    "hop_bfs", "multisource", "broadcast", "chain_flood", "dp_sweep",
    "path_sweeps", "spanning_tree", "n_shift", "landmark_completion",
    "pairwise_min_sum",
)

#: Solve-ladder layers timed by wrapping the names bound in
#: ``repro.core.rpaths`` / ``repro.core.long_detour`` (plus the CSR
#: export on ``RPathsInstance``).
CORE_LAYERS: Tuple[str, ...] = (
    "spanning_tree", "knowledge", "short_detour", "long_detour",
    "landmark_distances",
)

#: ``ServeDaemon.stats()["totals"]`` counters reported per run.
SERVE_COUNTERS: Tuple[str, ...] = (
    "oracle_builds", "batch_solves", "solves_saved", "memo_carried",
    "stale_answers", "lru_hits",
)


def _per_layer() -> Tuple[Metric, ...]:
    out: List[Metric] = [
        Metric("solve.rpaths_self_ms", "ms", "lower"),
        Metric("graphs.build_network_ms", "ms", "lower"),
    ]
    for layer in CORE_LAYERS:
        out.append(Metric(f"core.{layer}_ms", "ms", "lower"))
        out.append(Metric(f"core.{layer}_self_ms", "ms", "lower"))
    for kernel in KERNELS:
        out.append(Metric(f"kernel.{kernel}.ms", "ms", "lower"))
        out.append(Metric(f"kernel.{kernel}.calls", "count", "lower"))
    out += [
        Metric("kernel.fallback_calls", "count", "lower"),
        Metric("rounds.knowledge", "rounds", "lower"),
        Metric("rounds.short_detour", "rounds", "lower"),
        Metric("rounds.long_detour", "rounds", "lower"),
        Metric("serve.oracle.query_us", "us", "lower"),
        Metric("serve.shard.serve_us", "us", "lower"),
        Metric("serve.shard.serve_self_us", "us", "lower"),
        Metric("serve.frontend.admit_us", "us", "lower"),
        Metric("serve.frontend.dispatch_us", "us", "lower"),
        Metric("serve.daemon.roundtrip_us", "us", "lower"),
        Metric("serve.daemon.roundtrip_self_us", "us", "lower"),
        Metric("serve.frontend.resolve_us", "us", "lower"),
        Metric("serve.daemon.batch_size", "count", "higher"),
        Metric("serve.worker.answer_batch_us", "us", "lower"),
        Metric("dynamic.apply_mutations_ms", "ms", "lower"),
        Metric("serve.stale_window_ms", "ms", "lower"),
        Metric("serve.fresh_share", "ratio", "higher"),
    ]
    out += [Metric(f"serve.{name}", "count", "lower")
            for name in SERVE_COUNTERS]
    out += [
        Metric("loadgen.late_p95_ms", "ms", "lower"),
        Metric("trace.overhead_ms", "ms", "lower"),
        Metric("trace.overhead_share", "ratio", "lower"),
    ]
    return tuple(out)


PER_LAYER: Tuple[Metric, ...] = _per_layer()

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]


def units(metrics) -> Dict[str, str]:
    return {m.name: m.unit for m in metrics}


def config() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


def render_config() -> str:
    return json.dumps(config(), indent=2) + "\n"


def write_config(root: pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(root) / "BENCHMARK.json"
    path.write_text(render_config(), encoding="utf-8")
    return path
