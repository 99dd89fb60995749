"""Chaos harness: storms, kills, and stalls against a live daemon.

:func:`run_chaos` stands up a :class:`~repro.serve.daemon.ServeDaemon`
+ :class:`~repro.serve.frontend.ServeFrontend` and then runs four
antagonists concurrently for the configured window:

* a **load thread** issuing retry-wrapped queries with a staleness
  budget (so storms degrade to ``stale`` answers instead of errors),
* a **mutator thread** applying seeded mutation bursts through
  :meth:`ServeDaemon.apply_mutations` (epoch bumps + incremental
  invalidation),
* a **killer thread** SIGKILLing random live workers (the monitor's
  restart path re-warms them against the *current* epoch), and
* a **staller thread** wedging worker serving loops via
  :meth:`ServeDaemon.inject_stall`.

After the window it **quiesces** — stops injecting, then demands a
fresh (``max_staleness=0``) answer for every path edge of every
instance — and verifies **bit-identical convergence**: each fresh
answer must equal a from-scratch solve of the final-epoch instance.
That is the robustness contract in one sentence: no sequence of
mutations, kills, and stalls may leave a quiesced daemon serving
anything but exactly what a cold solver would compute.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..graphs.instance import RPathsInstance
from ..serve.client import query_with_retry
from ..serve.daemon import ServeDaemon
from ..serve.frontend import ServeFrontend
from ..serve.loadgen import latency_summary_ms
from ..serve.oracle import centralized_truth
from ..serve.queries import Query
from .stream import MutationStream

#: How long each injected stall wedges a worker's serving loop.
STALL_SECONDS = 0.2
#: Budget for the post-storm fresh answers of every path edge.
QUIESCE_TIMEOUT = 60.0
#: The daemon's health settings: a heartbeat older than
#: ``HEARTBEAT_TIMEOUT`` (10x the stall) restarts the worker, checked
#: every ``MONITOR_INTERVAL``; workers poll their pipe (and stamp the
#: heartbeat) every ``POLL_SECONDS``.
HEARTBEAT_TIMEOUT = 2.0
MONITOR_INTERVAL = 0.1
POLL_SECONDS = 0.01


@dataclass
class ChaosReport:
    """One chaos run, JSON-safe via :meth:`as_json`."""

    duration: float = 0.0
    queries_sent: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    latency_ms: Dict[str, float] = field(default_factory=dict)
    mutations_applied: int = 0
    mutation_batches: int = 0
    kills: int = 0
    stalls: int = 0
    restarts: int = 0
    epochs: Dict[str, int] = field(default_factory=dict)
    verified: int = 0
    mismatches: List[str] = field(default_factory=list)
    failed_workers: int = 0

    @property
    def converged(self) -> bool:
        """Quiesced fresh answers were bit-identical to from-scratch
        solves and no worker burned through its restart budget."""
        return (not self.mismatches and self.failed_workers == 0
                and self.verified > 0)

    def as_json(self) -> Dict[str, object]:
        return {
            "duration": round(self.duration, 3),
            "queries_sent": self.queries_sent,
            "outcomes": dict(sorted(self.outcomes.items())),
            "latency_ms": {k: round(v, 4)
                           for k, v in self.latency_ms.items()},
            "mutations_applied": self.mutations_applied,
            "mutation_batches": self.mutation_batches,
            "kills": self.kills,
            "stalls": self.stalls,
            "restarts": self.restarts,
            "epochs": dict(sorted(self.epochs.items())),
            "verified": self.verified,
            "mismatches": list(self.mismatches),
            "failed_workers": self.failed_workers,
            "converged": self.converged,
        }


def _random_query(rng: random.Random,
                  instance: RPathsInstance) -> Query:
    """Mostly (S, T) path-edge queries (oracle hits), some arbitrary
    pairs (fallback path) — both must survive the storm."""
    edges = instance.path_edges()
    if rng.random() < 0.7 or instance.n < 4:
        edge = rng.choice(edges)
        return Query(s=instance.s, t=instance.t, edge=edge,
                     instance=instance.name)
    s = rng.randrange(instance.n)
    t = rng.randrange(instance.n)
    return Query(s=s, t=t, edge=rng.choice(edges),
                 instance=instance.name)


def run_chaos(instances: Sequence[RPathsInstance],
              duration: float = 3.0, seed: int = 0,
              workers: int = 2, solver: str = "centralized",
              store=None,
              kills: int = 1, stalls: int = 1,
              mutation_bursts: int = 3, burst_size: int = 4,
              max_staleness: int = 8,
              query_timeout: float = 30.0,
              rebuild_delay: float = 0.0) -> ChaosReport:
    """Concurrent storm + kill + stall chaos, then verified quiesce.

    Deterministic in its *injections* (seeded mutation stream, seeded
    query mix); timing interleavings naturally vary, which is the
    point — convergence must hold for all of them.
    """
    instances = [inst for inst in instances]
    if not instances:
        raise ValueError("chaos needs at least one instance")
    rng = random.Random(seed)
    stream = MutationStream(seed=seed)
    report = ChaosReport()
    daemon = ServeDaemon(
        instances, workers=workers, solver=solver, store=store,
        rebuild_delay=rebuild_delay,
        heartbeat_timeout=HEARTBEAT_TIMEOUT,
        monitor_interval=MONITOR_INTERVAL,
        poll_seconds=POLL_SECONDS,
        # The killer must never exhaust the budget: a permanently
        # failed worker is a convergence failure, not a chaos input.
        max_restarts=kills + 2)
    names = [inst.name for inst in instances]
    results: List[object] = []
    stop = threading.Event()

    def load_loop() -> None:
        qrng = random.Random(seed + 1)
        while not stop.is_set():
            name = qrng.choice(names)
            query = _random_query(qrng, daemon.instance_for(name))
            results.append(query_with_retry(
                frontend, query, timeout=query_timeout,
                max_staleness=max_staleness))

    def mutate_loop() -> None:
        interval = duration / (mutation_bursts + 1)
        for _ in range(mutation_bursts):
            if stop.wait(timeout=interval):
                return
            name = rng.choice(names)
            current = daemon.instance_for(name)
            batch = stream.burst(current, burst_size)
            result = daemon.apply_mutations(name, batch)
            stream.note_applied(name, result.applied)
            report.mutations_applied += len(result.applied)
            report.mutation_batches += 1

    def kill_loop() -> None:
        interval = duration / (kills + 1)
        for _ in range(kills):
            if stop.wait(timeout=interval):
                return
            rows = [r for r in daemon.worker_stats(timeout=1.0)
                    if r["alive"] and not r["failed"] and r["pid"]]
            if not rows:
                continue
            victim = rng.choice(rows)
            try:
                os.kill(int(victim["pid"]), signal.SIGKILL)
                report.kills += 1
            except (OSError, ProcessLookupError):
                pass

    def stall_loop() -> None:
        interval = duration / (stalls + 1)
        for _ in range(stalls):
            if stop.wait(timeout=interval):
                return
            sid = rng.randrange(daemon.workers)
            try:
                daemon.inject_stall(sid, STALL_SECONDS)
                report.stalls += 1
            except RuntimeError:
                return

    start = time.monotonic()
    with daemon:
        frontend = ServeFrontend(daemon,
                                 default_timeout=query_timeout)
        threads = [threading.Thread(target=fn, daemon=True,
                                    name=f"chaos-{fn.__name__}")
                   for fn in (load_loop, mutate_loop, kill_loop,
                              stall_loop)]
        for t in threads:
            t.start()
        time.sleep(duration)
        stop.set()
        for t in threads:
            t.join(timeout=query_timeout + 5.0)

        # -- quiesce + bit-identical convergence check -------------------
        deadline = time.monotonic() + QUIESCE_TIMEOUT
        for name in names:
            final = daemon.instance_for(name)
            truth_edges = final.path_edges()
            for edge in truth_edges:
                remaining = max(1.0, deadline - time.monotonic())
                res = frontend.query(
                    name, final.s, final.t, edge,
                    timeout=remaining, max_staleness=0)
                expected = centralized_truth(final, final.s,
                                             final.t, edge)
                report.verified += 1
                if not res.ok or res.answer.length != expected:
                    report.mismatches.append(
                        f"{name}@{final.topology_version} "
                        f"edge={edge}: got "
                        f"{res.answer.length if res.answer else None}"
                        f"/{res.outcome}, want {expected}")
            report.epochs[name] = final.topology_version
        stats = daemon.stats()
        report.restarts = int(stats["restarts"])
        report.failed_workers = sum(
            1 for row in stats["shards"] if row["failed"])
        frontend.close()

    report.duration = time.monotonic() - start
    report.queries_sent = len(results)
    outcomes: Dict[str, int] = {}
    served: List[float] = []
    for res in results:
        outcomes[res.outcome] = outcomes.get(res.outcome, 0) + 1
        if res.served:
            served.append(res.latency_seconds)
    report.outcomes = outcomes
    report.latency_ms = latency_summary_ms(served)
    return report
