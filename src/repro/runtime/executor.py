"""Parallel experiment execution over scenario cells.

Cells fan out over a :class:`concurrent.futures.ProcessPoolExecutor`
(the solvers are pure-Python CPU work, so threads would serialize on
the GIL).  Workers receive only ``(scenario name, params, seed)`` and
re-import the registry, which keeps the wire format trivially picklable
and guarantees a worker measures exactly what a serial run measures.

Per-cell timeouts are enforced *inside* the worker with ``SIGALRM``
where available (a timed-out cell yields a structured ``timeout``
result and the worker survives).  A parent-side
``future.result(timeout=...)`` backstop additionally marks cells whose
worker went silent; note that without ``SIGALRM`` the hung worker
process itself cannot be reclaimed (``Future.cancel`` cannot stop a
running call), so on such platforms pool shutdown may still wait on
it — queued cells are cancelled, results already collected are kept.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Callable, List, Optional, Sequence, Tuple

from .. import telemetry
from ..telemetry.schema import (
    EXECUTOR_CELL_SECONDS,
    EXECUTOR_CELLS,
    POOL_ITEMS,
    POOL_WAIT_SECONDS,
)
from .results import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_TIMEOUT,
    CellResult,
    CellSpec,
)

#: Extra parent-side grace on top of the worker-side alarm.
_PARENT_GRACE = 10.0

#: Failure kinds reported to :func:`pool_map` fallbacks.
POOL_TIMEOUT = "timeout"
POOL_CANCELLED = "cancelled"
POOL_ERROR = "error"

_HAS_ALARM = hasattr(signal, "SIGALRM")


class _CellTimeout(Exception):
    pass


def _alarm_handler(signum, frame):  # pragma: no cover - signal path
    raise _CellTimeout()


def default_jobs() -> int:
    """Worker count when the caller does not choose: one per CPU."""
    return max(1, os.cpu_count() or 1)


def execute_cell(spec: CellSpec,
                 timeout: Optional[float] = None) -> CellResult:
    """Run one cell to completion in the current process."""
    from .registry import get_scenario

    if timeout is not None and timeout <= 0:
        timeout = None  # non-positive means "no limit", not "cancel"
    # Worker processes opt into tracing through the inherited env var;
    # in-process runs are a no-op when tracing is already configured.
    telemetry.maybe_enable_from_env()
    start = time.perf_counter()
    old_handler = None
    old_timer = (0.0, 0.0)
    use_alarm = (timeout is not None and _HAS_ALARM)
    if use_alarm:
        try:
            old_handler = signal.signal(signal.SIGALRM, _alarm_handler)
            old_timer = signal.setitimer(signal.ITIMER_REAL, timeout)
        except ValueError:
            # Not in the main thread of this process: fall back to the
            # parent-side backstop.
            use_alarm = False
    try:
        with telemetry.span(f"cell/{spec.scenario}",
                            params=spec.params_dict, seed=spec.seed):
            scen = get_scenario(spec.scenario)
            metrics = scen.run_cell(spec.params_dict, spec.seed)
        status, error = STATUS_OK, ""
    except _CellTimeout:
        metrics, status = {}, STATUS_TIMEOUT
        error = f"cell exceeded {timeout:.1f}s"
    except Exception as exc:  # noqa: BLE001 - cell isolation boundary
        metrics, status = {}, STATUS_ERROR
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if use_alarm:
            # Restore any pre-existing watchdog (handler AND remaining
            # timer), not just cancel ours.
            signal.setitimer(signal.ITIMER_REAL, *old_timer)
            signal.signal(signal.SIGALRM, old_handler)
    wall = time.perf_counter() - start
    EXECUTOR_CELLS.inc(scenario=spec.scenario, status=status)
    EXECUTOR_CELL_SECONDS.observe(wall, scenario=spec.scenario)
    # Each flush appends this process's finished spans (and a counters
    # snapshot) to its per-pid sink file, so worker telemetry survives
    # pool teardown even when the process is later reused or killed.
    telemetry.flush()
    return CellResult(
        scenario=spec.scenario,
        params=spec.params_dict,
        seed=spec.seed,
        status=status,
        metrics=dict(metrics),
        wall_time=wall,
        error=error,
    )


def _worker(args: Tuple[CellSpec, Optional[float]]) -> CellResult:
    spec, timeout = args
    return execute_cell(spec, timeout=timeout)


def pool_map(
    worker: Callable,
    payloads: Sequence,
    jobs: int,
    backstop: Optional[float] = None,
    fallback: Optional[Callable[[object, str, str], object]] = None,
    progress: Optional[Callable[[object], None]] = None,
) -> List:
    """Ordered process-pool map — the machinery under :func:`run_cells`.

    ``worker`` must be a module-level picklable callable; results come
    back in input order.  ``backstop`` is the parent-side per-item
    ceiling: when it fires, queued items are cancelled (the running
    worker itself cannot be).  A failing item is replaced by
    ``fallback(payload, kind, message)`` with kind one of
    :data:`POOL_TIMEOUT` / :data:`POOL_CANCELLED` / :data:`POOL_ERROR`;
    with no fallback the exception propagates.

    The returned list always has ``len(payloads)`` entries, one per
    payload in order — a worker (or fallback) that returns ``None``
    keeps its slot.  Other subsystems reuse this for non-cell work
    (the sharded query service fans shard batches out through it, and
    the ``parallel=`` solve fan-out ships shared-topology jobs here).

    ``jobs <= 1`` runs every payload inline in this process — same
    fallback/progress/counter semantics, no pool, no pickling — so
    callers can thread a single ``jobs`` knob all the way down.
    """
    results: List[Optional[object]] = [None] * len(payloads)
    if jobs <= 1:
        for idx, payload in enumerate(payloads):
            outcome = "ok"
            wait_start = time.perf_counter()
            try:
                result = worker(payload)
            except Exception as exc:  # noqa: BLE001 - pool failure
                outcome = POOL_ERROR
                if fallback is None:
                    raise
                result = fallback(payload, POOL_ERROR,
                                  f"{type(exc).__name__}: {exc}")
            finally:
                POOL_ITEMS.inc(outcome=outcome)
                POOL_WAIT_SECONDS.observe(time.perf_counter() - wait_start)
            if progress is not None:
                progress(result)
            results[idx] = result
        return list(results)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {
            pool.submit(worker, payload): idx
            for idx, payload in enumerate(payloads)
        }
        for future, idx in futures.items():
            outcome = "ok"
            wait_start = time.perf_counter()
            try:
                result = future.result(timeout=backstop)
            except FutureTimeoutError:
                # Keep not-yet-started items from piling onto a stuck
                # pool; the running worker itself cannot be cancelled.
                pool.shutdown(wait=False, cancel_futures=True)
                outcome = POOL_TIMEOUT
                if fallback is None:
                    raise
                result = fallback(
                    payloads[idx], POOL_TIMEOUT,
                    f"worker exceeded {backstop:.1f}s backstop")
            except CancelledError:
                outcome = POOL_CANCELLED
                if fallback is None:
                    raise
                result = fallback(
                    payloads[idx], POOL_CANCELLED,
                    "cancelled after an earlier item exceeded the "
                    "parent backstop")
            except Exception as exc:  # noqa: BLE001 - pool failure
                outcome = POOL_ERROR
                if fallback is None:
                    raise
                result = fallback(payloads[idx], POOL_ERROR,
                                  f"{type(exc).__name__}: {exc}")
            finally:
                POOL_ITEMS.inc(outcome=outcome)
                POOL_WAIT_SECONDS.observe(time.perf_counter() - wait_start)
            if progress is not None:
                progress(result)
            results[idx] = result
    return list(results)


def run_cells(
    specs: Sequence[CellSpec],
    jobs: int = 1,
    timeout: Optional[float] = None,
    progress: Optional[Callable[[CellResult], None]] = None,
) -> List[CellResult]:
    """Execute ``specs``, ``jobs``-wide, preserving input order.

    ``jobs <= 1`` runs serially in-process (no pool overhead, easier
    debugging); otherwise cells are distributed over a process pool.
    ``progress`` is invoked once per cell as results are collected.
    A non-positive ``timeout`` disables the limit.
    """
    if timeout is not None and timeout <= 0:
        timeout = None
    if jobs <= 1:
        out = []
        for spec in specs:
            result = execute_cell(spec, timeout=timeout)
            if progress is not None:
                progress(result)
            out.append(result)
        return out

    backstop = None if timeout is None else timeout + _PARENT_GRACE

    def fallback(payload: Tuple[CellSpec, Optional[float]], kind: str,
                 message: str) -> CellResult:
        spec, _ = payload
        if kind == POOL_CANCELLED:
            message = ("cancelled after an earlier cell exceeded the "
                       "parent backstop")
        return CellResult(
            scenario=spec.scenario,
            params=spec.params_dict,
            seed=spec.seed,
            status=STATUS_TIMEOUT if kind == POOL_TIMEOUT
            else STATUS_ERROR,
            wall_time=(backstop or 0.0) if kind == POOL_TIMEOUT
            else 0.0,
            error=message,
        )

    return pool_map(
        _worker, [(spec, timeout) for spec in specs], jobs=jobs,
        backstop=backstop, fallback=fallback, progress=progress)
