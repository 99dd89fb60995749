"""Solve workloads: one closed-loop caller running ``solve_rpaths``.

Each op builds a fresh ``RPathsInstance`` from one pool instance's edge
list (taken in rotation, so every pass of the pool repeats identical
work) and solves it on the vector fabric.  Every op's lengths are
compared with the centralized replacement lengths, computed once per
pool instance outside every timed region.

Each op, and each step of a set-up, runs right after the host
calibration loop and is reported in reference-host time at the speed
measured just before it (see :mod:`perfbench.host`).
"""

from __future__ import annotations

import gc
import random
import time
from typing import Callable, Dict, List, Tuple

from . import spec, stats
from .host import (StealMeter, StepClock, calibrate, peak_rss_mib,
                   to_reference)
from .layers import FALLBACK_LAYER, SOLVE_HOOKS, LayerClock, solve_ladder
from .result import RunResult

#: Ledger phases behind the ``rounds.*`` per-layer counts.
PHASES = {
    "knowledge": "knowledge(L2.5)",
    "short_detour": "short-detour(P4.1)",
    "long_detour": "long-detour(P5.1)",
}


def _expander(seed: int):
    from repro.graphs.generators import expander_instance
    return expander_instance(spec.EXPANDER_N,
                             degree=spec.EXPANDER_DEGREE, seed=seed)


def _longpath(seed: int):
    from repro.graphs.generators import path_with_chords_instance
    return path_with_chords_instance(spec.LONGPATH_HOPS, seed=seed)


FAMILIES: Dict[str, Callable] = {
    "solve-expander": _expander,
    "solve-longpath": _longpath,
}

Spec = Tuple[int, list, list, str]


def _fresh(pool_spec: Spec):
    from repro.graphs.instance import RPathsInstance
    n, edges, path, name = pool_spec
    return RPathsInstance(n=n, edges=edges, path=path, name=name)


def _solve(pool_spec: Spec):
    from repro.core.rpaths import solve_rpaths
    return solve_rpaths(_fresh(pool_spec), fabric=spec.SOLVE_FABRIC,
                        landmark_c=spec.LANDMARK_C)


def _set_up(build: Callable, seeds: List[int]):
    """Generate the pool and solve each instance once (the warm-up),
    one calibrated step per instance and per solve."""
    clock = StepClock()
    pool = [clock.step(build, s) for s in seeds]
    specs = [(inst.n, inst.edges, inst.path, inst.name) for inst in pool]
    warm = [clock.step(_solve, s) for s in specs]
    return pool, specs, warm, clock


def run(workload: str, seed: int, seconds: float,
        trace: bool) -> RunResult:
    from repro.baselines.centralized import replacement_lengths

    build = FAMILIES[workload]
    rng = random.Random(f"perfbench/{workload}/{seed}")
    seeds = [rng.randrange(2 ** 31) for _ in range(spec.POOL)]
    setups: List[StepClock] = []
    for _ in range(spec.SOLVE_SETUP_REPS):
        pool, specs, warm, clock = _set_up(build, seeds)
        setups.append(clock)
    refs = [replacement_lengths(inst) for inst in pool]
    tally = stats.Tally()
    for i, report in enumerate(warm):
        if report.lengths != refs[i]:
            tally.wrong += 1
            tally.mismatches.append(f"warm-up {specs[i][3]}")

    gc.collect()

    clock = LayerClock()
    hooks = solve_ladder(clock, spec.KERNELS) if trace else None
    traced_solve = clock.wrap("solve.rpaths", _solve)
    walls: List[float] = []
    calibrations: List[float] = []
    traced: List[bool] = []
    rounds_by_op: List[int] = []
    phase_rounds: Dict[str, int] = {key: 0 for key in PHASES}
    traced_passes = 0
    steal = StealMeter()
    deadline = time.perf_counter() + seconds
    op = 0
    try:
        # Whole passes only, so every instance is solved equally often;
        # a traced run makes at least one wrapped pass.
        while (time.perf_counter() < deadline or op % spec.POOL
               or (trace and not traced_passes)):
            idx = op % spec.POOL
            # Traced runs alternate bare and wrapped passes.
            wrapped = trace and (op // spec.POOL) % 2 == 1
            if wrapped and idx == 0:
                hooks.apply()
                traced_passes += 1
            calibrations.append(calibrate())
            start = time.perf_counter()
            report = (traced_solve if wrapped else _solve)(specs[idx])
            walls.append(time.perf_counter() - start)
            if wrapped and idx == spec.POOL - 1:
                hooks.restore()
            traced.append(wrapped)
            rounds_by_op.append(report.rounds)
            if wrapped:
                for key, phase in PHASES.items():
                    phase_rounds[key] += report.phase_rounds(phase)
            tally.add("ok", correct=report.lengths == refs[idx],
                      label=specs[idx][3])
            op += 1
    finally:
        if hooks is not None:
            hooks.restore()
    noise = steal.read()
    noise["calibration_ms"] = round(stats.median(calibrations) * 1e3, 4)

    durations = [to_reference(w, c) for w, c in zip(walls, calibrations)]
    bare = [x for x, w in zip(durations, traced) if not w]
    q, tail_value = stats.tail(bare)
    # Bare passes are whole passes: every chunk is the same pool.
    rates = stats.chunk_rates(bare, spec.POOL)
    result = RunResult(workload=workload, seed=seed, seconds=seconds,
                       trace=trace, tally=tally)
    result.end_to_end = {
        "setup_s": stats.median([c.reference for c in setups]),
        "op_p50_ms": stats.median(bare) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "throughput_per_s": stats.median(rates),
        "rounds": sum(rounds_by_op[:spec.POOL]),
        "ok_share": tally.ok_share,
        "peak_rss_mib": peak_rss_mib(),
    }
    result.notes.update({
        "setup_wall_s": [round(c.wall, 4) for c in setups],
        "samples": len(bare),
        "op_ms": [round(x * 1e3, 1) for x in durations],
        "op_wall_ms": [round(x * 1e3, 1) for x in walls],
        "tail_percentile": q,
        "chunks": len(rates),
        "pool": [s[3] for s in specs],
        "pool_rounds": rounds_by_op[:spec.POOL],
        "noise": noise,
    })
    if trace:
        clock.require(["solve.rpaths"]
                      + [layer for layer, *_ in SOLVE_HOOKS])
        result.per_layer = _layers(clock, traced_passes, phase_rounds,
                                   durations, traced)
    return result


def _layers(clock: LayerClock, passes: int, phase_rounds: Dict[str, int],
            durations: List[float], traced: List[bool]) -> Dict[str, float]:
    solves = max(1, clock.calls("solve.rpaths"))
    per_solve = 1e3 / solves
    out: Dict[str, float] = {
        "solve.rpaths_self_ms": clock.self_time("solve.rpaths") * per_solve,
        "graphs.build_network_ms":
            clock.wall("graphs.build_network") * per_solve,
    }
    for layer in spec.CORE_LAYERS:
        name = f"core.{layer}"
        out[f"{name}_ms"] = clock.wall(name) * per_solve
        out[f"{name}_self_ms"] = clock.self_time(name) * per_solve
    passes = max(1, passes)
    for kernel in spec.KERNELS:
        name = f"kernel.{kernel}"
        out[f"{name}.ms"] = clock.wall(name) * per_solve
        out[f"{name}.calls"] = clock.calls(name) / passes
    out["kernel.fallback_calls"] = clock.calls(FALLBACK_LAYER) / passes
    for key, total in phase_rounds.items():
        out[f"rounds.{key}"] = total / passes
    wrapped = [x for x, w in zip(durations, traced) if w]
    bare = [x for x, w in zip(durations, traced) if not w]
    if wrapped and bare:
        overhead = stats.median(wrapped) - stats.median(bare)
        out["trace.overhead_ms"] = overhead * 1e3
        out["trace.overhead_share"] = overhead / stats.median(bare)
    return out
