"""Open/closed-loop load generation against the serve front-end.

Drives the existing workload families (uniform / zipf / adversarial /
mixed, :mod:`repro.serve.workload`) through a
:class:`~repro.serve.frontend.ServeFrontend` and reports what an SLO
gate needs: sustained throughput, the admission-outcome histogram, and
p50/p95/p99 latency.

Two loop disciplines, because they answer different questions:

* **closed** — ``concurrency`` client threads, each submits one query
  and waits for its result before the next (optionally paced to an
  aggregate target QPS).  Latency here is service time; throughput is
  what the daemon sustains.
* **open** — a single pacer submits at the target QPS regardless of
  completions, then collects.  This is the discipline that actually
  exercises backpressure: when the service falls behind, the bounded
  admission backlog fills and submissions reject ``overloaded`` instead
  of stretching the latency tail unboundedly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .frontend import SERVED_OUTCOMES, ServeFrontend
from .queries import Query

__all__ = [
    "LoadReport", "latency_summary_ms", "percentile", "run_load",
]


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy-free), q in [0, 100]."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def latency_summary_ms(samples: Sequence[float]) -> Dict[str, float]:
    """{p50, p95, p99, mean, max} in milliseconds from second samples."""
    if not samples:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0,
                "mean": 0.0, "max": 0.0}
    return {
        "p50": percentile(samples, 50) * 1e3,
        "p95": percentile(samples, 95) * 1e3,
        "p99": percentile(samples, 99) * 1e3,
        "mean": (sum(samples) / len(samples)) * 1e3,
        "max": max(samples) * 1e3,
    }


@dataclass
class LoadReport:
    """One load run, JSON-safe via :meth:`as_json`."""

    mode: str
    sent: int = 0
    wall_seconds: float = 0.0
    achieved_qps: float = 0.0
    target_qps: Optional[float] = None
    concurrency: int = 1
    outcomes: Dict[str, int] = field(default_factory=dict)
    latency_ms: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> int:
        return self.outcomes.get("ok", 0)

    @property
    def stale(self) -> int:
        return self.outcomes.get("stale", 0)

    @property
    def served(self) -> int:
        """Requests that got an answer (fresh or within-budget stale)."""
        return self.ok + self.stale

    def as_json(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "sent": self.sent,
            "ok": self.ok,
            "stale": self.stale,
            "served": self.served,
            "outcomes": dict(sorted(self.outcomes.items())),
            "wall_seconds": round(self.wall_seconds, 6),
            "achieved_qps": round(self.achieved_qps, 3),
            "target_qps": self.target_qps,
            "concurrency": self.concurrency,
            "latency_ms": {k: round(v, 4)
                           for k, v in self.latency_ms.items()},
        }


def _run_closed(frontend: ServeFrontend, queries: Sequence[Query],
                concurrency: int, qps: Optional[float],
                timeout: Optional[float],
                max_staleness: Optional[int]) -> List["object"]:
    """Each thread: take next query, submit, wait, repeat."""
    results: List[object] = [None] * len(queries)
    cursor = iter(range(len(queries)))
    lock = threading.Lock()
    # Aggregate pacing: each thread owns every ``concurrency``-th slot
    # of a shared schedule, so target QPS holds across the fleet.
    interval = (concurrency / qps) if qps else 0.0
    start = time.monotonic()

    def client(worker_idx: int) -> None:
        next_at = start + (worker_idx / qps if qps else 0.0)
        while True:
            with lock:
                idx = next(cursor, None)
            if idx is None:
                return
            if interval:
                delay = next_at - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                next_at += interval
            results[idx] = frontend.submit(
                queries[idx], timeout=timeout,
                max_staleness=max_staleness).result()

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(concurrency)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def _run_open(frontend: ServeFrontend, queries: Sequence[Query],
              qps: float, timeout: Optional[float],
              max_staleness: Optional[int]) -> List["object"]:
    """Submit on schedule without waiting, then collect."""
    pendings = []
    start = time.monotonic()
    for i, query in enumerate(queries):
        target = start + i / qps
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        pendings.append(frontend.submit(query, timeout=timeout,
                                        max_staleness=max_staleness))
    return [p.result() for p in pendings]


def run_load(frontend: ServeFrontend, queries: Sequence[Query],
             mode: str = "closed", concurrency: int = 4,
             qps: Optional[float] = None,
             timeout: Optional[float] = None,
             max_staleness: Optional[int] = None,
             ) -> "tuple[List[object], LoadReport]":
    """Drive ``queries`` through ``frontend``; return (results, report).

    ``mode="open"`` requires ``qps``.  Latency percentiles cover only
    requests that completed with an answer (``ok`` or within-budget
    ``stale``) — rejected/timed-out requests show up in the outcome
    histogram instead, so shed load cannot flatter the latency
    numbers.  ``max_staleness`` forwards the per-request epoch budget
    (degraded-mode serving during fault storms).
    """
    queries = list(queries)
    if mode not in ("closed", "open"):
        raise ValueError(f"unknown load mode {mode!r}")
    if mode == "open" and not qps:
        raise ValueError("open-loop load needs a target qps")
    if concurrency < 1:
        raise ValueError("concurrency must be positive")
    start = time.monotonic()
    if mode == "closed":
        results = _run_closed(frontend, queries, concurrency, qps,
                              timeout, max_staleness)
    else:
        results = _run_open(frontend, queries, qps, timeout,
                            max_staleness)
    wall = max(time.monotonic() - start, 1e-9)
    outcomes: Dict[str, int] = {}
    served_latencies: List[float] = []
    for res in results:
        outcomes[res.outcome] = outcomes.get(res.outcome, 0) + 1
        if res.outcome in SERVED_OUTCOMES:
            served_latencies.append(res.latency_seconds)
    report = LoadReport(
        mode=mode, sent=len(queries), wall_seconds=wall,
        achieved_qps=len(served_latencies) / wall, target_qps=qps,
        concurrency=(concurrency if mode == "closed" else 1),
        outcomes=outcomes,
        latency_ms=latency_summary_ms(served_latencies))
    return results, report
