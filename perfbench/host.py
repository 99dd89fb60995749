"""Environment stamp, host speed, CPU steal over a run, and peak memory.

The benchmark reports times in *reference-host* units.  On a shared
VM the speed of single-threaded work drifts by 2x over minutes, with
no CPU steal to show for it (neighbours contend for the physical core,
its caches and memory bandwidth), and ``time.thread_time()`` follows
wall time to within 2% through those swings.  So every timed region is
paired with :func:`calibrate`, a fixed pure-Python loop that never
runs the program's code, and its wall time ``w`` is reported as
``w * (REFERENCE_S / calibration) ** SENSITIVITY``: what it would have
taken on a host where the loop takes ``REFERENCE_S``.  The serve
workload's requests are read against :class:`EchoProbe` round trips
instead.  Raw wall times stay in the run notes.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import platform
import resource
import signal
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Iterations of the calibration loop.
CALIBRATION_STEPS = 30_000

#: What one calibration loop takes on the reference host (a 2-vCPU
#: cloud VM at its usual speed).  Only ratios matter: a change of this
#: constant rescales every reported time by the same factor.
REFERENCE_S = 0.003

#: How strongly the program's time follows the loop's.  The log-log
#: slope of raw op time against calibration over 60 runs of the three
#: workloads was 0.73 (solve-expander), 0.84 (serve-closed) and 0.92
#: (solve-longpath): contention slows a tight interpreter loop more
#: than code that also waits on NumPy kernels and IPC.  Ten-run sets
#: put the best single exponent for both solve workloads near 0.9.
SENSITIVITY = 0.9


def environment() -> Dict[str, object]:
    """What a result depends on besides the code: CPUs and versions."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def calibrate(repeats: int = 2) -> float:
    """Best-of wall seconds of the fixed calibration loop, right now.

    The loop is interpreter work (integer arithmetic and a dict store
    per step), the kind that dominates the solver's Python around its
    kernels.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        table = {}
        for i in range(CALIBRATION_STEPS):
            acc += i & 7
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - start)
    return best


def to_reference(wall: float, calibration: float) -> float:
    """``wall`` seconds measured while the loop took ``calibration``
    seconds, expressed in reference-host seconds."""
    return wall * (REFERENCE_S / calibration) ** SENSITIVITY


class StepClock:
    """Set-up time, step by step: each step is timed at the host speed
    calibrated right before it, and the calibrations are not timed."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.reference = 0.0

    def step(self, fn: Callable, *args):
        speed = calibrate()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            took = time.perf_counter() - start
            self.wall += took
            self.reference += to_reference(took, speed)


#: The echo probe's median round trip on the reference host, timed
#: between closed-loop requests (the helper has gone idle by then; in
#: a back-to-back burst it stays awake and answers in about 45 us).
REFERENCE_TRIP_S = 120e-6


def to_reference_trips(value: float, trip: float) -> float:
    """A request time read against the echo probe's median round trip
    ``trip`` over the same window, in reference-host seconds."""
    return value * REFERENCE_TRIP_S / trip


def _echo(conn) -> None:
    while True:
        message = conn.recv()
        if message is None:
            return
        conn.send(message)


class EchoProbe:
    """Round trips of a small message to a helper process over a pipe.

    A serve request is a chain of thread and process wake-ups around
    little Python work, and on a shared VM the cost of a wake-up moves
    with the neighbours.  The probe pays the same kind of cost and none
    of the program's, so a request percentile read against the median
    of the probe's round trips, timed between the same requests, tracks
    the program rather than the host.
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_echo, args=(child,), daemon=True,
                                 name="perfbench-echo")
        self._proc.start()
        child.close()

    def round_trip(self) -> float:
        """Wall seconds of one round trip."""
        start = time.perf_counter()
        self._conn.send(0)
        self._conn.recv()
        return time.perf_counter() - start

    def close(self) -> None:
        try:
            self._conn.send(None)
        except OSError:
            pass
        self._proc.join(timeout=5)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()

    def __enter__(self) -> "EchoProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _reap(pid: int, deadline: float) -> bool:
    """Wait for child ``pid`` to end until ``deadline``; True once reaped
    (or when it is not this process's child to wait for)."""
    while True:
        try:
            done, _status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def _stop_resource_tracker(deadline: float) -> None:
    """End multiprocessing's resource tracker and wait for it.

    Shared memory and spawned processes start the tracker, a helper
    process that is made to outlive its parent: it exits only when the
    last copy of its pipe closes, and it ignores SIGINT and SIGTERM.
    Closing this process's end (every child that held a copy has ended
    by now) lets it finish its clean-up and exit.  The tracker's fields
    are private; where they differ, :func:`stop_children` kills it as
    any other child.
    """
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    lock = getattr(tracker, "_lock", None)
    if lock is None or not hasattr(tracker, "_pid"):
        return
    with lock:
        fd, pid = getattr(tracker, "_fd", None), tracker._pid
        tracker._fd = tracker._pid = None
    if fd is None:
        return
    os.close(fd)
    if pid is not None and not _reap(pid, deadline):
        os.kill(pid, signal.SIGKILL)
        _reap(pid, float("inf"))


def _child_pids() -> List[int]:
    """This process's live children, from procfs (empty without it)."""
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path, encoding="ascii") as fh:
                pids.update(int(p) for p in fh.read().split())
        except (OSError, ValueError):
            continue
    return sorted(pids)


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The daemon's workers and the echo probe's helper are stopped by
    their owners on every path out of a workload; this is the last line
    behind them.  It terminates any multiprocessing child still up, ends
    the resource tracker (see :func:`_stop_resource_tracker`), and kills
    whatever other child is left, waiting for each.
    """
    deadline = time.monotonic() + timeout
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=max(0.1, deadline - time.monotonic()))
        if child.is_alive():
            child.kill()
            child.join()
    _stop_resource_tracker(deadline)
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
        _reap(pid, float("inf"))


def exit_on_signals() -> None:
    """Make SIGTERM and SIGHUP leave this process through its ``finally``
    blocks, which stop the run's processes, instead of killing it on the
    spot.  Processes forked from it keep the default action."""
    owner = os.getpid()

    def leave(signum, _frame):
        if os.getpid() != owner:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, leave)


def _cpu_ticks() -> Optional[Tuple[int, int]]:
    """(steal, total) jiffies of the aggregate ``cpu`` line."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    values = [int(x) for x in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already folded into user time
    return steal, sum(values[:8])


class StealMeter:
    """CPU steal share from ``/proc/stat`` since the meter was made."""

    def __init__(self) -> None:
        self._start = _cpu_ticks()

    def read(self) -> Dict[str, object]:
        end = _cpu_ticks()
        if self._start is None or end is None:
            return {"steal_ticks": None, "steal_share": None}
        steal = end[0] - self._start[0]
        total = end[1] - self._start[1]
        return {"steal_ticks": steal, "total_ticks": total,
                "steal_share": round(steal / total, 5) if total else 0.0}

    def share(self) -> float:
        """The steal share so far (0.0 without procfs)."""
        return self.read()["steal_share"] or 0.0


def _hwm_kib(pid: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def peak_rss_mib(pids: Iterable[int] = ()) -> float:
    """Peak RSS of this process plus the given live processes, MiB."""
    own = _hwm_kib("self")
    if own is None:  # no procfs: ru_maxrss is KiB on Linux
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    total = own
    for pid in pids:
        total += _hwm_kib(str(pid)) or 0
    return total / 1024.0
