"""Admission front-end over :class:`~repro.serve.daemon.ServeDaemon`.

The daemon answers batches; this layer turns it into a service with a
load-shedding contract:

* **Route on submit** — :meth:`ServeFrontend.submit` routes a request
  by its SHA-256 shard and, while that shard has fewer than
  ``max_inflight`` queries out, sends it to the worker on the client's
  own thread (:meth:`ServeDaemon.submit_batch`).
* **Bounded per-shard backlog** — a request whose shard is at its cap
  waits in that shard's FIFO backlog, so one hot shard queues at
  admission (visible, bounded) instead of deep inside a worker pipe
  (invisible), and never holds up another shard.  The answer that
  frees capacity sends the backlog on as one batch.  All backlogs
  together hold at most ``max_queue`` requests; past that a request
  resolves ``overloaded`` at once.  Queueing without bound just
  converts overload into unbounded latency; a bound converts it into
  an explicit, countable outcome the client can retry against.
* **Per-request deadline** — every request carries one (the default is
  configurable); :meth:`PendingQuery.result` returns a ``timeout``
  outcome when it expires, whether the request is still held or
  already sent.  A request held past its deadline is never sent.

Every request resolves to exactly one ``outcome`` of
:data:`repro.telemetry.schema.SERVE_ADMISSION`, and latency is
measured submit→resolve on the resolving thread with a monotonic
clock, so open-loop clients that collect results late still record
true service latency and a wall-clock step changes nothing.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

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
        self.submitted = time.monotonic()
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
            self.resolved_at = time.monotonic()
            self._event.set()
        _ADMITTED[outcome].inc()
        SERVE_REQUEST_SECONDS.observe(self.latency_seconds)
        if outcome in SERVED_OUTCOMES:
            DYNAMIC_EPOCH_LAG.set(self.lag)
        return True

    @property
    def latency_seconds(self) -> float:
        end = (time.monotonic() if self.resolved_at is None
               else self.resolved_at)
        return end - self.submitted

    def result(self, timeout: Optional[float] = None) -> "ServeResult":
        """Block until resolved or the request deadline, whichever is
        first; an expired deadline resolves the request as timeout."""
        if timeout is None:
            timeout = max(0.0, self.deadline - time.monotonic())
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

    No thread of its own: a request goes out on the submitting
    client's thread while fewer than ``max_inflight`` of this
    front-end's queries to its shard are unanswered, and otherwise
    waits in the shard's backlog until an answer callback (on the
    daemon's reader thread) frees capacity and sends the backlog on.
    """

    def __init__(self, daemon: ServeDaemon, max_queue: int = 256,
                 default_timeout: float = DEFAULT_TIMEOUT,
                 max_inflight: int = 64) -> None:
        if max_queue < 1 or max_inflight < 1:
            raise ValueError("front-end bounds must be positive")
        self.daemon = daemon
        self.default_timeout = default_timeout
        self.max_queue = max_queue
        self.max_inflight = max_inflight
        self._lock = threading.Lock()
        #: shard -> requests held at admission, oldest first.
        self._backlog: Dict[int, Deque[PendingQuery]] = defaultdict(deque)
        #: shard -> queries sent to its worker and not yet answered.
        self._out: Dict[int, int] = defaultdict(int)
        #: Shards whose backlog a thread is sending on: an answer that
        #: arrives meanwhile (even synchronously, inside that send)
        #: leaves the freed capacity to it instead of recursing.
        self._flushing: Set[int] = set()
        self._held = 0
        self._closed = False

    # -- client API ---------------------------------------------------------

    def submit(self, query: Query,
               timeout: Optional[float] = None,
               max_staleness: Optional[int] = None) -> PendingQuery:
        """Send, hold or reject one query; never blocks on a capped
        shard or a full backlog.  ``max_staleness`` defaults to 0
        (fresh answers only)."""
        pending = PendingQuery(
            query, self.default_timeout if timeout is None else timeout,
            max_staleness=max_staleness or 0)
        try:
            sid = self.daemon.shard_for_key(query.instance)
        except KeyError as exc:
            pending.resolve("error", error=str(exc))
            return pending
        with self._lock:
            if self._closed:
                outcome = "shutdown"
            elif time.monotonic() >= pending.deadline:
                outcome = "timeout"  # expired on arrival: never sent
            elif self._backlog[sid] or self._out[sid] >= self.max_inflight:
                if self._held < self.max_queue:
                    self._backlog[sid].append(pending)
                    self._held += 1
                    SERVE_QUEUE_DEPTH.set(self._held)
                    return pending
                outcome = "overloaded"
            else:
                self._out[sid] += 1
                outcome = None
        if outcome is None:
            self._send(sid, [pending])
        else:
            pending.resolve(outcome)
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
        """Stop admitting; resolve every held request as shutdown
        (requests already sent still get their answers)."""
        with self._lock:
            self._closed = True
            held = [p for backlog in self._backlog.values()
                    for p in backlog]
            self._backlog.clear()
            self._held = 0
        for pending in held:
            pending.resolve("shutdown")
        SERVE_QUEUE_DEPTH.set(0)

    def __enter__(self) -> "ServeFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- sending --------------------------------------------------------------

    def _send(self, sid: int, batch: List[PendingQuery]) -> None:
        """Hand one batch, whose in-flight slots are already taken, to
        the daemon; its answer frees them and flushes the backlog."""

        def callback(lengths, kinds, lags, error):
            if error:
                # The daemon's own errors name their outcome; anything
                # else is a worker exception.
                outcome = (error if error in ("shutdown", "worker-lost")
                           else "error")
                for p in batch:
                    p.resolve(outcome, error=error)
            else:
                for p, length, kind, lag in zip(batch, lengths, kinds,
                                                lags):
                    p.resolve("stale" if lag > 0 else "ok",
                              QueryAnswer(p.query, length, kind), lag=lag)
            self._release(sid, len(batch))

        try:
            self.daemon.submit_batch(
                [p.query for p in batch], callback, shard_id=sid,
                staleness=[p.max_staleness for p in batch])
        except RuntimeError as exc:  # the daemon is not running
            callback(None, None, None, str(exc))

    def _release(self, sid: int, count: int) -> None:
        """Free ``count`` in-flight slots of shard ``sid`` and send its
        backlog on, one batch per pass, until the backlog is empty or
        the shard is at its cap again."""
        with self._lock:
            self._out[sid] -= count
            if sid in self._flushing:
                return
            self._flushing.add(sid)
        while True:
            with self._lock:
                batch = self._take(sid)
                if not batch:
                    self._flushing.discard(sid)
                    return
            self._send(sid, batch)

    def _take(self, sid: int) -> List[PendingQuery]:
        """Pop the oldest held requests of shard ``sid`` that fit its
        free slots and take the slots; a request past its deadline
        resolves ``timeout`` instead (caller holds the lock)."""
        backlog = self._backlog[sid]
        batch: List[PendingQuery] = []
        now = time.monotonic()
        while backlog and self._out[sid] + len(batch) < self.max_inflight:
            pending = backlog.popleft()
            self._held -= 1
            if now >= pending.deadline:
                pending.resolve("timeout")
            elif not pending.done:
                batch.append(pending)
        self._out[sid] += len(batch)
        SERVE_QUEUE_DEPTH.set(self._held)
        return batch

    # -- observability -------------------------------------------------------

    def queue_depth(self) -> int:
        """Requests held at admission, over every shard."""
        return self._held
