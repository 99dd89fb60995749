"""Parallel experiment execution over scenario cells.

Cells fan out over a :class:`concurrent.futures.ProcessPoolExecutor`
(the solvers are pure-Python CPU work, so threads would serialize on
the GIL).  Workers receive only ``(scenario name, params, seed)`` and
re-import the registry, which keeps the wire format trivially picklable
and guarantees a worker measures exactly what a serial run measures.

Per-cell timeouts are enforced *inside* the worker with ``SIGALRM``
where available (:func:`deadline`, which ``repro query`` shares; a
timed-out cell yields a structured ``timeout`` result and the worker
survives).  A parent-side
``future.result(timeout=...)`` backstop additionally marks cells whose
worker went silent; note that without ``SIGALRM`` the hung worker
process itself cannot be reclaimed (``Future.cancel`` cannot stop a
running call), so on such platforms pool shutdown may still wait on
it — queued cells are cancelled, results already collected are kept.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence

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

_HAS_ALARM = hasattr(signal, "SIGALRM")


class DeadlineExceeded(Exception):
    """Raised in the main thread when a :func:`deadline` expires."""


@contextmanager
def deadline(seconds: Optional[float]) -> Iterator[bool]:
    """Raise :class:`DeadlineExceeded` into the body after ``seconds``.

    Installs a ``SIGALRM`` handler and a real-time timer, and on exit
    restores the previous handler *and* its remaining timer, so an
    outer watchdog keeps running.  The handler also records that it
    fired, and a body that swallowed the exception (an ``except
    Exception`` of its own, or one in a library it called) and ran to
    the end raises it again on exit: an expired deadline always
    reaches the caller.  ``SIGALRM`` exists only on POSIX and works
    only from the main thread; anywhere else, or with ``seconds``
    None, the body runs without a deadline.  Yields whether the
    deadline is enforced.  A ``seconds`` that is not positive raises
    ValueError before anything is installed.
    """
    if seconds is not None and not seconds > 0:
        raise ValueError(f"deadline must be positive, got {seconds}")
    enforced = (seconds is not None and _HAS_ALARM
                and threading.current_thread() is threading.main_thread())
    fired = []

    def on_alarm(signum, frame):  # pragma: no cover - signal path
        fired.append(signum)
        raise DeadlineExceeded()

    if enforced:
        old_handler = signal.signal(signal.SIGALRM, on_alarm)
        old_timer = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield enforced
    finally:
        if enforced:
            signal.setitimer(signal.ITIMER_REAL, *old_timer)
            signal.signal(signal.SIGALRM, old_handler)
    if fired:
        raise DeadlineExceeded()


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
    try:
        # Off the main thread the parent-side backstop is the only
        # limit.
        with deadline(timeout), telemetry.span(
                f"cell/{spec.scenario}", params=spec.params_dict,
                seed=spec.seed):
            scen = get_scenario(spec.scenario)
            metrics = scen.run_cell(spec.params_dict, spec.seed)
        status, error = STATUS_OK, ""
    except DeadlineExceeded:
        metrics, status = {}, STATUS_TIMEOUT
        error = f"cell exceeded {timeout:.1f}s"
    except Exception as exc:  # noqa: BLE001 - cell isolation boundary
        metrics, status = {}, STATUS_ERROR
        error = f"{type(exc).__name__}: {exc}"
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

    On the pool, a cell whose worker outlives the parent backstop
    (``timeout`` plus a grace) becomes a ``timeout`` result and cancels
    the cells still queued; each of those, and any cell the pool itself
    fails, becomes an ``error`` result in its own slot.
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

    def failed(spec: CellSpec, status: str, message: str,
               wall_time: float = 0.0) -> CellResult:
        return CellResult(scenario=spec.scenario, params=spec.params_dict,
                          seed=spec.seed, status=status,
                          wall_time=wall_time, error=message)

    out = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(execute_cell, spec, timeout)
                   for spec in specs]
        for spec, future in zip(specs, futures):
            outcome = "ok"
            wait_start = time.perf_counter()
            try:
                result = future.result(timeout=backstop)
            except FutureTimeoutError:
                # Keep not-yet-started cells from piling onto a stuck
                # pool; the running worker itself cannot be cancelled.
                pool.shutdown(wait=False, cancel_futures=True)
                outcome = "timeout"
                result = failed(
                    spec, STATUS_TIMEOUT,
                    f"worker exceeded {backstop:.1f}s backstop", backstop)
            except CancelledError:
                outcome = "cancelled"
                result = failed(
                    spec, STATUS_ERROR,
                    "cancelled after an earlier cell exceeded the parent "
                    "backstop")
            except Exception as exc:  # noqa: BLE001 - pool failure
                outcome = "error"
                result = failed(spec, STATUS_ERROR,
                                f"{type(exc).__name__}: {exc}")
            finally:
                POOL_ITEMS.inc(outcome=outcome)
                POOL_WAIT_SECONDS.observe(time.perf_counter() - wait_start)
            if progress is not None:
                progress(result)
            out.append(result)
    return out
