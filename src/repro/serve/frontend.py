"""Threaded admission front-end over :class:`~repro.serve.daemon.ServeDaemon`.

The daemon answers batches; this layer turns it into a service with a
load-shedding contract:

* **Bounded admission queue** — :meth:`ServeFrontend.submit` either
  enqueues or rejects immediately with ``overloaded``.  Queueing
  without bound just converts overload into unbounded latency; a
  bounded queue converts it into an explicit, countable outcome the
  client can retry against.
* **Per-request deadline** — every request carries one (the default is
  configurable); :meth:`PendingQuery.result` returns a ``timeout``
  outcome when it expires, whether the request is still queued or
  already dispatched.
* **In-flight cap per shard** — the dispatcher thread groups admitted
  requests by the SHA-256 shard route and holds a shard's batch back
  while that worker already has ``max_inflight`` queries outstanding,
  so one hot shard queues at admission (visible, bounded) instead of
  deep inside a worker pipe (invisible).

Every request resolves to exactly one ``outcome`` of
:data:`repro.telemetry.schema.SERVE_ADMISSION`, and
latency is measured submit→resolve on the resolving thread, so
open-loop clients that collect results late still record true service
latency.
"""

from __future__ import annotations

import queue as _thread_queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..telemetry.schema import (
    DYNAMIC_EPOCH_LAG,
    SERVE_ADMISSION,
    SERVE_QUEUE_DEPTH,
    SERVE_REQUEST_SECONDS,
)
from .daemon import ServeDaemon
from .queries import Query, QueryAnswer

#: Default per-request deadline (seconds).
DEFAULT_TIMEOUT = 30.0

#: Outcomes that carry an answer a client can use: ``stale`` is a
#: previous-epoch answer within the request's staleness budget.
SERVED_OUTCOMES = frozenset(("ok", "stale"))

#: Per-outcome admission counters, pre-bound: every request resolves
#: once, so these tick on the request path without the registry lock.
_ADMITTED = {outcome: SERVE_ADMISSION.bind(outcome=outcome)
             for outcome in SERVE_ADMISSION.legal("outcome")}


class PendingQuery:
    """One admitted request: resolves exactly once to an outcome."""

    __slots__ = ("query", "deadline", "submitted", "resolved_at",
                 "outcome", "answer", "error", "max_staleness", "lag",
                 "_event", "_lock")

    def __init__(self, query: Query, timeout: float,
                 max_staleness: int = 0) -> None:
        self.query = query
        self.submitted = time.time()
        self.deadline = self.submitted + timeout
        self.resolved_at: Optional[float] = None
        self.outcome: Optional[str] = None
        self.answer: Optional[QueryAnswer] = None
        self.error = ""
        #: Epoch budget: answers up to this many topology epochs
        #: behind are acceptable (resolved as ``stale``, with the
        #: answer attached).  0 demands fresh.
        self.max_staleness = int(max_staleness)
        self.lag = 0
        self._event = threading.Event()
        self._lock = threading.Lock()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def resolve(self, outcome: str, answer: Optional[QueryAnswer] = None,
                error: str = "", lag: int = 0) -> bool:
        """First resolution wins; later ones (e.g. a worker answer
        landing after the deadline fired) are dropped."""
        with self._lock:
            if self._event.is_set():
                return False
            self.outcome = outcome
            self.answer = answer
            self.error = error
            self.lag = int(lag)
            self.resolved_at = time.time()
            self._event.set()
        _ADMITTED[outcome].inc()
        SERVE_REQUEST_SECONDS.observe(self.latency_seconds)
        if outcome in SERVED_OUTCOMES:
            DYNAMIC_EPOCH_LAG.set(self.lag)
        return True

    @property
    def latency_seconds(self) -> float:
        end = self.resolved_at if self.resolved_at else time.time()
        return end - self.submitted

    def result(self, timeout: Optional[float] = None) -> "ServeResult":
        """Block until resolved or the request deadline, whichever is
        first; an expired deadline resolves the request as timeout."""
        if timeout is None:
            timeout = max(0.0, self.deadline - time.time())
        if not self._event.wait(timeout=timeout):
            self.resolve("timeout")
        return ServeResult(query=self.query, outcome=self.outcome,
                           answer=self.answer,
                           latency_seconds=self.latency_seconds,
                           error=self.error, lag=self.lag)


@dataclass(frozen=True)
class ServeResult:
    """What a client gets back for one query."""

    query: Query
    outcome: str
    answer: Optional[QueryAnswer]
    latency_seconds: float
    error: str = ""
    #: Epochs behind the current topology (0 = fresh; positive only
    #: for ``stale`` outcomes, bounded by the request's budget).
    lag: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    @property
    def served(self) -> bool:
        """An answer arrived (fresh or within-budget stale)."""
        return self.outcome in SERVED_OUTCOMES


class ServeFrontend:
    """Multiplex concurrent clients onto daemon workers.

    One dispatcher thread drains the admission queue, groups by shard,
    and submits batches of up to ``max_batch`` to
    :meth:`ServeDaemon.submit_batch`, respecting ``max_inflight``
    queries outstanding per shard.  Answers resolve on the daemon's
    collector thread.
    """

    def __init__(self, daemon: ServeDaemon, max_queue: int = 256,
                 default_timeout: float = DEFAULT_TIMEOUT,
                 max_batch: int = 32,
                 max_inflight: int = 64,
                 default_staleness: int = 0) -> None:
        if max_queue < 1 or max_batch < 1 or max_inflight < 1:
            raise ValueError("front-end bounds must be positive")
        if default_staleness < 0:
            raise ValueError("staleness budget cannot be negative")
        self.daemon = daemon
        self.default_timeout = default_timeout
        self.max_batch = max_batch
        self.max_inflight = max_inflight
        self.default_staleness = default_staleness
        self._queue: "_thread_queue.Queue[Optional[PendingQuery]]" = (
            _thread_queue.Queue(maxsize=max_queue))
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-frontend-dispatch",
            daemon=True)
        self._dispatcher.start()

    # -- client API ---------------------------------------------------------

    def submit(self, query: Query,
               timeout: Optional[float] = None,
               max_staleness: Optional[int] = None) -> PendingQuery:
        """Admit or reject one query; never blocks on a full queue."""
        pending = PendingQuery(
            query, self.default_timeout if timeout is None else timeout,
            max_staleness=(self.default_staleness
                           if max_staleness is None else max_staleness))
        if self._closed:
            pending.resolve("shutdown")
            return pending
        try:
            self._queue.put_nowait(pending)
        except _thread_queue.Full:
            pending.resolve("overloaded")
            return pending
        SERVE_QUEUE_DEPTH.set(self._queue.qsize())
        return pending

    def query(self, instance_key: str, s: int, t: int,
              edge: Tuple[int, int],
              timeout: Optional[float] = None,
              max_staleness: Optional[int] = None) -> ServeResult:
        """Synchronous submit + wait."""
        q = Query(s=s, t=t, edge=(int(edge[0]), int(edge[1])),
                  instance=instance_key)
        return self.submit(q, timeout=timeout,
                           max_staleness=max_staleness).result()

    def close(self) -> None:
        """Stop admitting; resolve everything still queued as shutdown."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)  # wake the dispatcher
        self._dispatcher.join(timeout=5.0)
        while True:
            try:
                pending = self._queue.get_nowait()
            except _thread_queue.Empty:
                break
            if pending is not None:
                pending.resolve("shutdown")
        SERVE_QUEUE_DEPTH.set(0)

    def __enter__(self) -> "ServeFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatcher ---------------------------------------------------------

    def _take_batch(self) -> List[PendingQuery]:
        """Block for one request, then drain opportunistically."""
        batch: List[PendingQuery] = []
        try:
            first = self._queue.get(timeout=0.1)
        except _thread_queue.Empty:
            return batch
        if first is not None:
            batch.append(first)
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except _thread_queue.Empty:
                break
            if item is not None:
                batch.append(item)
        SERVE_QUEUE_DEPTH.set(self._queue.qsize())
        return batch

    def _dispatch_group(self, shard_id: int,
                        group: List[PendingQuery]) -> None:
        # Deadline-expired requests resolve here instead of occupying
        # worker capacity; a deadline hit while we wait on the
        # in-flight cap counts the same way.
        live = [p for p in group if not p.done]
        expired = [p for p in live if time.time() >= p.deadline]
        for p in expired:
            p.resolve("timeout")
        live = [p for p in live if not p.done]
        if not live:
            return
        while (not self._closed
               and self.daemon.inflight(shard_id) >= self.max_inflight):
            time.sleep(0.002)  # backpressure: hold at admission
            now = time.time()
            for p in live:
                if not p.done and now >= p.deadline:
                    p.resolve("timeout")
            live = [p for p in live if not p.done]
            if not live:
                return
        if self._closed:
            for p in live:
                p.resolve("shutdown")
            return

        group_now = list(live)

        def callback(lengths, kinds, lags, error):
            if error:
                # The daemon's own errors name their outcome; anything
                # else is a worker exception.
                outcome = (error if error in ("shutdown", "worker-lost")
                           else "error")
                for p in group_now:
                    p.resolve(outcome, error=error)
                return
            for p, length, kind, lag in zip(group_now, lengths,
                                            kinds, lags):
                p.resolve("stale" if lag > 0 else "ok",
                          QueryAnswer(p.query, length, kind), lag=lag)

        self.daemon.submit_batch(
            [p.query for p in group_now], callback,
            shard_id=shard_id,
            staleness=[p.max_staleness for p in group_now])

    def _dispatch_loop(self) -> None:
        while not self._closed:
            batch = self._take_batch()
            if not batch:
                continue
            groups: Dict[int, List[PendingQuery]] = {}
            for pending in batch:
                try:
                    sid = self.daemon.shard_for_key(
                        pending.query.instance)
                except KeyError as exc:
                    pending.resolve("error", error=str(exc))
                    continue
                groups.setdefault(sid, []).append(pending)
            for sid in sorted(groups):
                self._dispatch_group(sid, groups[sid])

    # -- observability -------------------------------------------------------

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def stats(self) -> Dict[str, object]:
        return {
            "queue_depth": self.queue_depth(),
            "max_queue": self._queue.maxsize,
            "max_batch": self.max_batch,
            "max_inflight": self.max_inflight,
            "default_timeout": self.default_timeout,
            "closed": self._closed,
        }


def run_queries(frontend: ServeFrontend, queries: Sequence[Query],
                timeout: Optional[float] = None,
                max_staleness: Optional[int] = None,
                ) -> List[ServeResult]:
    """Submit everything, then collect — the simple pipelined client."""
    pendings = [frontend.submit(q, timeout=timeout,
                                max_staleness=max_staleness)
                for q in queries]
    return [p.result() for p in pendings]
