"""Process-local metrics registry: counters, gauges, summaries.

One global :class:`MetricsRegistry` (module-level :data:`registry`)
stores the named, labeled series every instrumented layer records.
What may be recorded — each metric's name, type, help text and label
enums — is declared once in :mod:`repro.telemetry.schema`, which also
renders the Prometheus exposition and checks snapshots.

The registry is **thread-safe**: counter and summary writes, and every
read, take one lock, so the serve daemon's dispatcher, collector,
monitor and client threads never lose an update; a gauge write is one
dict store, atomic under the GIL.  It is also **fork-safe**: series are
keyed by pid, and the first touch after a fork resets the inherited
state (and lock), so a ``run_cells`` worker never double-reports the
parent's counts (and the parent never sees a worker's — workers export
their own snapshot through the trace sink or their return values).

Exports: :meth:`MetricsRegistry.snapshot` (JSON-safe dict, used by the
trace sink and ``ShardedQueryService.stats()``) and
:meth:`MetricsRegistry.families` (what
:func:`repro.telemetry.schema.exposition` renders as Prometheus text).

The registry is always on — unlike spans there is no enable switch to
check, because the counted events (one per kernel dispatch, store
lookup, or cell) are orders of magnitude rarer than the work they
annotate.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Dict, Iterable, List, Tuple

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_name(name: str, labels: LabelItems) -> str:
    """Prometheus-style series key: ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


def parse_series(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`series_name` (for snapshot consumers)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: Dict[str, str] = {}
    for part in rest.rstrip("}").split(","):
        if not part:
            continue
        k, _, v = part.partition("=")
        labels[k] = v.strip('"')
    return name, labels


class MetricsRegistry:
    """Named, labeled counters / gauges / summaries for one process."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._lock = threading.Lock()
        #: (name, labels) -> numeric value.
        self._counters: Dict[Tuple[str, LabelItems], float] = {}
        self._gauges: Dict[Tuple[str, LabelItems], float] = {}
        #: (name, labels) -> [count, sum, min, max].
        self._summaries: Dict[Tuple[str, LabelItems], List[float]] = {}
        #: Bound counters whose ticks fold into ``_counters`` on read.
        self._bound: List["BoundCounter"] = []

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            # A parent thread may have held the lock across the fork.
            self._lock = threading.Lock()
            self._counters = {}
            self._gauges = {}
            self._summaries = {}
            for bound in self._bound:
                bound._restart()

    def _fold(self) -> None:
        """Move bound-counter ticks into the series (lock held)."""
        for bound in self._bound:
            fresh = bound._take()
            if fresh:
                key = bound._key
                self._counters[key] = self._counters.get(key, 0) + fresh

    # -- writing -------------------------------------------------------------

    def inc(self, name: str, amount: float = 1, **labels) -> None:
        key = (name, _label_items(labels))
        self._check_fork()
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, **labels) -> None:
        key = (name, _label_items(labels))
        self._check_fork()
        self._gauges[key] = value  # one store: no update to lose

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one sample into a count/sum/min/max summary."""
        key = (name, _label_items(labels))
        self._check_fork()
        with self._lock:
            entry = self._summaries.get(key)
            if entry is None:
                self._summaries[key] = [1, value, value, value]
                return
            entry[0] += 1
            entry[1] += value
            if value < entry[2]:
                entry[2] = value
            if value > entry[3]:
                entry[3] = value

    def reset(self) -> None:
        self._check_fork()
        with self._lock:
            self._fold()
            self._counters.clear()
            self._gauges.clear()
            self._summaries.clear()

    # -- reading -------------------------------------------------------------

    def value(self, name: str, **labels) -> float:
        self._check_fork()
        with self._lock:
            self._fold()
            return self._counters.get((name, _label_items(labels)), 0)

    def _sections(self):
        self._check_fork()
        with self._lock:
            self._fold()
            return (("counter", sorted(self._counters.items())),
                    ("gauge", sorted(self._gauges.items())),
                    ("summary", sorted((key, list(entry)) for key, entry
                                       in self._summaries.items())))

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe dump: ``{"counters": {...}, "gauges": {...},
        "summaries": {series: {count, sum, min, max}}}``."""
        (_, counters), (_, gauges), (_, summaries) = self._sections()
        return {
            "counters": {series_name(n, labels): v
                         for (n, labels), v in counters},
            "gauges": {series_name(n, labels): v
                       for (n, labels), v in gauges},
            "summaries": {
                series_name(n, labels): dict(zip(
                    ("count", "sum", "min", "max"), entry))
                for (n, labels), entry in summaries
            },
        }

    def copy(self) -> "MetricsRegistry":
        """A detached registry holding every current series (the serve
        scrape writes its per-shard rows into one)."""
        out = MetricsRegistry()
        (_, counters), (_, gauges), (_, summaries) = self._sections()
        out._counters, out._gauges, out._summaries = (
            dict(counters), dict(gauges), dict(summaries))
        return out

    def families(self) -> List[Tuple[str, str,
                                      List[Tuple[LabelItems, object]]]]:
        """``(kind, name, [(labels, value), ...])`` per metric, sorted;
        a summary's value is its ``[count, sum, min, max]``."""
        out: List[Tuple[str, str, List[Tuple[LabelItems, object]]]] = []
        for kind, items in self._sections():
            for (name, labels), value in items:
                if not out or out[-1][:2] != (kind, name):
                    out.append((kind, name, []))
                out[-1][2].append((labels, value))
        return out


class BoundCounter:
    """One pre-resolved counter series for per-query hot paths.

    :meth:`MetricsRegistry.inc` pays label normalization and the
    registry lock on every call — negligible per kernel dispatch or
    store lookup, but measurable on the oracle's O(1) hit, which answers
    in a few µs.  A bound counter freezes its ``(name, labels)`` key
    once and ticks an :func:`itertools.count`: ``inc()`` *is* the
    count's C-level ``__next__``, atomic under the GIL, so concurrent
    threads lose no ticks and no lock is taken.  The registry folds
    the ticks into the series whenever it is read and restarts them
    after a fork.  Bind at import time: the registry keeps every bound
    counter.
    """

    __slots__ = ("_key", "_ticks", "_folded", "inc")

    def __init__(self, reg: MetricsRegistry, name: str,
                 labels: Dict[str, str]) -> None:
        self._key = (name, _label_items(labels))
        self._restart()
        with reg._lock:
            reg._bound.append(self)

    def _restart(self) -> None:
        self._ticks = itertools.count()
        self._folded = 0
        self.inc = self._ticks.__next__

    def _take(self) -> int:
        """Ticks since the last take; reading consumes one tick."""
        seen = next(self._ticks)
        fresh, self._folded = seen - self._folded, seen + 1
        return fresh


#: The process registry every instrumented layer writes into.
registry = MetricsRegistry()

# Forked children reset the default registry eagerly, so the
# BoundCounter fast path may skip the per-call pid check.  (The lazy
# _check_fork in every registry method stays as the portable fallback
# — spawn-start children re-import this module fresh anyway.)
if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython/Unix
    os.register_at_fork(after_in_child=lambda: registry._check_fork())


def merge_counter_snapshots(snapshots: Iterable[Dict[str, object]],
                            ) -> Dict[str, float]:
    """Sum the ``counters`` sections of several snapshots.

    The trace tooling uses this to aggregate per-process counter events
    (one per worker) into one run-wide view.
    """
    total: Dict[str, float] = {}
    for snap in snapshots:
        counters = snap.get("counters", snap)
        if not isinstance(counters, dict):
            continue
        for key, value in counters.items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    return total


def merge_gauge_snapshots(snapshots: Iterable[Dict[str, object]],
                          ) -> Dict[str, float]:
    """Max-merge the ``gauges`` sections of several snapshots.

    Gauges are point-in-time levels, so summing across processes (the
    counter rule) would be meaningless; the run-wide view keeps each
    series' maximum — exactly right for high-water marks like
    :data:`repro.telemetry.schema.PEAK_RSS_BYTES` and a sane default for
    the rest.
    """
    merged: Dict[str, float] = {}
    for snap in snapshots:
        gauges = snap.get("gauges")
        if not isinstance(gauges, dict):
            continue
        for key, value in gauges.items():
            if isinstance(value, (int, float)):
                if key not in merged or value > merged[key]:
                    merged[key] = value
    return merged


def snapshot_counters() -> Dict[str, object]:
    """Snapshot of the default registry (convenience)."""
    return registry.snapshot()
