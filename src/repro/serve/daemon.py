"""Long-lived shard workers — the serve daemon's process tier.

:class:`~repro.serve.shard.ShardedQueryService` is a library object
that answers in the caller's process.  The daemon spreads the same
shards over processes: **worker processes own their shards for the
life of the service**.  Each worker

* builds or spill-loads its oracles **once** at startup
  (:meth:`~repro.serve.shard.OracleShard.warm`, ResultStore spill
  intact), building each instance's CSR topology itself from the
  edges its :class:`WorkerConfig` ships, and
* then serves request batches from the warm LRU over one duplex
  ``multiprocessing.Pipe``.

Lifecycle is stop-flag + drain (the Morelia threaded-streaming idiom:
a shared flag the worker polls between pipe reads): ``stop
(drain=True)`` sets the flag, the worker finishes everything already
sent, reports its lifetime stats, and exits.  Health is
heartbeat-based — each worker stamps a shared monotonic timestamp
between batches; the parent's monitor thread declares a worker dead
when the process exits or the stamp goes stale, and restarts it
(bounded by ``max_restarts``) on a **fresh pipe**, re-warming from the
spill store and re-sending every outstanding request (queries are
pure, so the occasional duplicate answer is dropped by request id).

No parent thread exists per worker.  Requests go out on the caller's
thread, under a per-worker lock, and one reader thread waits on every
worker's pipe (:func:`multiprocessing.connection.wait`) and runs the
answer callbacks.  The parent closes its copy of a worker's end once
the worker has started, so that pipe ends in EOF when the worker
exits and a send to a dead worker raises instead of queueing.

Every transition is counted in
:data:`repro.telemetry.schema.SERVE_DAEMON_EVENTS`; the admission
path in front of this tier is
:class:`repro.serve.frontend.ServeFrontend`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from multiprocessing import connection as _connection
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..congest.kernels import numpy_or_none
from ..dynamic import stream as _stream
from ..graphs.instance import RPathsInstance
from ..runtime.store import ResultStore
from ..telemetry import counters as _counters
from ..telemetry.schema import (
    SERVE_DAEMON_EVENTS,
    SERVE_INFLIGHT,
    SERVE_WORKERS_ALIVE,
)
from .queries import Query, QueryAnswer
from .shard import (
    OracleShard,
    ShardStats,
    route_instances,
    shard_exposition,
)

#: Request message kinds (worker side).
_MSG_BATCH = "batch"
_MSG_STATS = "stats"
#: Topology epoch bump: (kind, instance key, new instance, applied).
_MSG_INVALIDATE = "invalidate"
#: Chaos injection: (kind, seconds) — the worker sleeps in its serving
#: loop without stamping its heartbeat, simulating a wedged worker.
_MSG_STALL = "stall"

#: Seconds :meth:`ServeDaemon.start` waits for every worker to warm.
WARM_TIMEOUT = 120.0

#: Reply message kinds (parent side).
_RSP_READY = "ready"
_RSP_ANSWER = "answer"
_RSP_STATS = "stats"
_RSP_FINAL = "final"

#: Answer callback: (lengths, kinds, lags, error) — lengths/kinds/lags
#: are None exactly when error is non-empty.  ``lags[i]`` is how many
#: topology epochs behind the current instance answer ``i`` is
#: (0 = fresh; positive = degraded-mode answer from a previous-epoch
#: oracle within the request's staleness budget).
AnswerCallback = Callable[[Optional[List[int]], Optional[List[str]],
                           Optional[List[int]], str], None]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to rebuild its shard.

    Instances ship cache-free (:func:`_portable_instance`).
    """

    shard_id: int
    instances: Tuple[RPathsInstance, ...]
    capacity: int = 4
    store_root: Optional[str] = None
    solver: str = "theorem1"
    build_seed: int = 0
    #: Pipe-poll interval — also the heartbeat cadence while idle.
    poll_seconds: float = 0.05
    #: Artificial delay before an invalidated oracle's background
    #: rebuild starts — a test/chaos knob that widens the degraded
    #: window so stale serving is deterministically observable.
    rebuild_delay: float = 0.0


def _portable_instance(instance: RPathsInstance) -> RPathsInstance:
    """A cache-free copy that pickles small (no CSR/NumPy state)."""
    return RPathsInstance(
        n=instance.n, edges=list(instance.edges),
        path=list(instance.path), weighted=instance.weighted,
        name=instance.name,
        topology_version=instance.topology_version)


def _worker_main(config: WorkerConfig, conn, stop_flag,
                 heartbeat) -> None:
    """One worker process: warm once, serve until stopped.

    The loop stamps ``heartbeat`` between pipe reads; with the stop
    flag set it keeps answering until nothing is left to read
    (drain), then reports lifetime stats and exits.
    """
    telemetry.maybe_enable_from_env()
    sid = config.shard_id
    heartbeat.value = time.monotonic()
    try:
        store = (None if config.store_root is None
                 else ResultStore(config.store_root))
        shard = OracleShard(
            shard_id=sid, capacity=config.capacity, store=store,
            solver=config.solver, build_seed=config.build_seed)
        for inst in config.instances:
            shard.add_instance(inst)
        with telemetry.span("serve/daemon-warm", shard=sid,
                            instances=len(config.instances)):
            shard.warm()  # the whole point: built once, served warm
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        conn.send((_RSP_READY, os.getpid(), {},
                   f"{type(exc).__name__}: {exc}"))
        return
    conn.send((_RSP_READY, os.getpid(), shard.stats.as_metrics(), ""))

    #: key -> Event set once the post-invalidation rebuild finishes.
    rebuild_events: Dict[str, threading.Event] = {}

    def start_rebuild(key: str) -> None:
        event = threading.Event()
        rebuild_events[key] = event

        def run() -> None:
            try:
                if config.rebuild_delay > 0:
                    time.sleep(config.rebuild_delay)
                shard.planner_for(key)
            except Exception:  # noqa: BLE001 - counted; the next
                # fresh-demanding batch retries the build inline.
                shard._count(rebuild_failures=1)
            finally:
                event.set()

        threading.Thread(target=run, daemon=True,
                         name=f"serve-rebuild-{sid}-{key}").start()

    def answer_with_staleness(queries: List[Query],
                              staleness: List[int],
                              ) -> Tuple[List[int], List[str],
                                         List[int]]:
        """Per-instance split: fresh when hot, stale within budget
        while the rebuild runs, otherwise wait for fresh."""
        groups: "OrderedDict[str, List[int]]" = OrderedDict()
        for idx, q in enumerate(queries):
            groups.setdefault(q.instance, []).append(idx)
        lengths = [0] * len(queries)
        kinds = [""] * len(queries)
        lags = [0] * len(queries)
        for key, indices in groups.items():
            sub = [queries[i] for i in indices]
            if not shard.has_hot(key):
                budget = min(staleness[i] for i in indices)
                prev = shard.previous_for(key)
                if prev is not None and budget > 0:
                    lag = shard.current_epoch(key) - prev[0]
                    if 0 < lag <= budget:
                        stale = shard.answer_stale(sub)
                        if stale is not None:
                            answers, sub_lags = stale
                            for i, a, lg in zip(indices, answers,
                                                sub_lags):
                                lengths[i] = a.length
                                kinds[i] = a.kind
                                lags[i] = lg
                            continue
                event = rebuild_events.get(key)
                if event is not None:
                    # Fresh demanded mid-rebuild: wait it out,
                    # stamping the heartbeat so the monitor stays calm.
                    while not event.wait(timeout=config.poll_seconds):
                        heartbeat.value = time.monotonic()
            answers = shard.answer_batch(sub)
            for i, a in zip(indices, answers):
                lengths[i] = a.length
                kinds[i] = a.kind
        return lengths, kinds, lags

    try:
        while True:
            heartbeat.value = time.monotonic()
            if not conn.poll(config.poll_seconds):
                if stop_flag.is_set():
                    break  # stop requested and the pipe is drained
                continue
            item = conn.recv()
            kind = item[0]
            if kind == _MSG_STATS:
                conn.send((_RSP_STATS, item[1], shard.stats.as_metrics(),
                           len(shard._planners)))
                continue
            if kind == _MSG_INVALIDATE:
                _kind, key, new_instance, applied = item
                try:
                    shard.invalidate(key, new_instance, list(applied))
                    start_rebuild(key)
                except KeyError:
                    pass  # not this worker's instance: stale route
                continue
            if kind == _MSG_STALL:
                time.sleep(float(item[1]))  # chaos: wedge the loop
                continue
            _kind, req_id, queries, staleness = item
            try:
                lengths, kinds, lags = answer_with_staleness(
                    list(queries), list(staleness))
                reply = (_RSP_ANSWER, req_id, lengths, kinds, lags, "")
            except Exception as exc:  # noqa: BLE001 - per-request
                reply = (_RSP_ANSWER, req_id, None, None, None,
                         f"{type(exc).__name__}: {exc}")
            conn.send(reply)
    finally:
        conn.send((_RSP_FINAL, shard.stats.as_metrics()))
        telemetry.flush()


@dataclass
class _Worker:
    """Parent-side handle for one worker process."""

    config: WorkerConfig
    process: object = None
    #: Parent end of the current generation's pipe.
    conn: object = None
    #: Serializes sends on ``conn`` and its replacement at restart.
    lock: threading.Lock = field(default_factory=threading.Lock)
    stop_flag: object = None
    heartbeat: object = None
    #: Set once the current generation reports back from its warm.
    ready: threading.Event = field(default_factory=threading.Event)
    #: The last warm's error ("" once a generation warms cleanly).
    ready_error: str = ""
    warm_stats: Dict[str, int] = field(default_factory=dict)
    final_stats: Optional[Dict[str, int]] = None
    pid: int = 0
    restarts: int = 0
    failed: bool = False


class ServeDaemon:
    """Own a fleet of long-lived shard workers and route to them.

    Instances are placed by
    :func:`~repro.serve.shard.route_instances`, as in
    :class:`~repro.serve.shard.ShardedQueryService`, one worker per
    shard.  :meth:`submit_batch` is asynchronous (answers arrive on
    the reader thread's callback); :meth:`query` is the synchronous
    convenience the CLI self-check and tests use.  Admission control,
    deadlines, and backpressure live one layer up in
    :class:`~repro.serve.frontend.ServeFrontend`.
    """

    def __init__(self, instances: Sequence[RPathsInstance],
                 workers: Optional[int] = None, capacity: int = 4,
                 store: Optional[ResultStore] = None,
                 solver: str = "theorem1",
                 build_seed: int = 0,
                 poll_seconds: float = 0.05,
                 heartbeat_timeout: float = 5.0,
                 monitor_interval: float = 0.25,
                 max_restarts: int = 2,
                 rebuild_delay: float = 0.0) -> None:
        self._route, self._instances = route_instances(instances, workers)
        self.store = store
        self.heartbeat_timeout = heartbeat_timeout
        self.monitor_interval = monitor_interval
        self.max_restarts = max_restarts
        import multiprocessing as mp
        self._ctx = mp.get_context()
        self._workers: Dict[int, _Worker] = {}
        for sid, insts in enumerate(self._instances):
            self._workers[sid] = _Worker(config=WorkerConfig(
                shard_id=sid,
                instances=tuple(_portable_instance(i) for i in insts),
                capacity=capacity,
                store_root=(None if store is None
                            else str(store.root)),
                solver=solver, build_seed=build_seed,
                poll_seconds=poll_seconds,
                rebuild_delay=rebuild_delay))
        self._req_ids = itertools.count(1)
        self._lock = threading.Lock()
        #: Serializes topology mutations (epoch bumps are ordered).
        self._mutate_lock = threading.Lock()
        #: req_id -> (shard_id, queries, staleness, callback);
        #: resubmitted on a worker restart, resolved exactly once by
        #: the reader.
        self._pending: Dict[int, Tuple[int, Tuple[Query, ...],
                                       Tuple[int, ...],
                                       AnswerCallback]] = {}
        self._inflight: Dict[int, int] = {
            sid: 0 for sid in self._workers}
        self._stats_waiters: Dict[int, Tuple[threading.Event, list]] = {}
        #: Parent pipe end -> its worker, for every pipe not yet at EOF
        #: (a restarted worker's old pipe stays until read to the end).
        self._conns: Dict[object, _Worker] = {}
        self._running = False
        self._stopping = False
        #: Notified whenever a worker reports ready or fails for good.
        self._warmed = threading.Condition()
        #: Set by stop(): ends the monitor's wait at once.
        self._halt = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._reader: Optional[threading.Thread] = None
        #: Written to whenever ``_conns`` changes, so the reader
        #: re-reads the set it waits on.
        self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)

    # -- routing ------------------------------------------------------------

    @property
    def workers(self) -> int:
        return len(self._workers)

    @property
    def instance_keys(self) -> List[str]:
        return sorted(self._route)

    def shard_for_key(self, instance_key: str) -> int:
        return self._route[instance_key]

    def inflight(self, shard_id: int) -> int:
        """Queries dispatched to ``shard_id`` and not yet answered."""
        with self._lock:
            return self._inflight.get(shard_id, 0)

    def instance_for(self, instance_key: str) -> RPathsInstance:
        """The parent's authoritative (current-epoch) instance."""
        sid = self.shard_for_key(instance_key)
        for inst in self._instances[sid]:
            if inst.name == instance_key:
                return inst
        raise KeyError(instance_key)

    def epoch_of(self, instance_key: str) -> int:
        return self.instance_for(instance_key).topology_version

    # -- dynamic topology ----------------------------------------------------

    def apply_mutations(self, instance_key: str,
                        mutations: Sequence["_stream.Mutation"],
                        ) -> "_stream.MutationResult":
        """Mutate one live instance and invalidate its worker.

        The parent is authoritative for epochs: it applies the batch
        (cheap — one SSSP), swaps the instance into the owning
        worker's config (so a *restart* warms against the new epoch,
        not the old one), and sends the worker an invalidate message
        that rotates its hot oracle and kicks the background re-warm.
        """
        sid = self.shard_for_key(instance_key)
        worker = self._workers[sid]
        with self._mutate_lock:
            current = self.instance_for(instance_key)
            result = _stream.apply_mutations(current, mutations)
            if not result.applied:
                return result
            insts = self._instances[sid]
            for i, inst in enumerate(insts):
                if inst.name == instance_key:
                    insts[i] = result.instance
            portable = _portable_instance(result.instance)
            worker.config = replace(worker.config, instances=tuple(
                portable if inst.name == instance_key else inst
                for inst in worker.config.instances))
        if (self._running and not self._stopping
                and worker.process is not None and not worker.failed):
            # A dead worker misses this; its restart warms from the
            # config swapped in above.
            self._send(worker, (_MSG_INVALIDATE, instance_key,
                                portable, tuple(result.applied)))
        return result

    def inject_stall(self, shard_id: int, seconds: float) -> None:
        """Chaos hook: wedge one worker's serving loop for
        ``seconds`` without heartbeats (long stalls trip the monitor,
        short ones just back requests up — both on purpose)."""
        worker = self._workers[shard_id]
        if worker.process is None:
            raise RuntimeError("daemon is not running (call start())")
        self._send(worker, (_MSG_STALL, float(seconds)))

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        parent_end, child_end = self._ctx.Pipe()
        # Swapped in first, so the reader ignores whatever lifecycle
        # news the replaced generation left unread; sends made before
        # the worker starts wait in the pipe.
        with worker.lock:
            worker.conn = parent_end
        worker.stop_flag = self._ctx.Event()
        worker.heartbeat = self._ctx.Value("d", time.monotonic())
        worker.ready.clear()
        worker.process = self._ctx.Process(
            target=_worker_main,
            args=(worker.config, child_end, worker.stop_flag,
                  worker.heartbeat),
            daemon=True)
        worker.process.start()
        # The worker now holds the only copy of its end: the pipe reads
        # EOF once the worker exits, and a send to a dead worker raises.
        child_end.close()
        with self._lock:
            self._conns[parent_end] = worker
        self._wake_w.send_bytes(b"")
        SERVE_DAEMON_EVENTS.inc(event="worker-start")

    def start(self) -> "ServeDaemon":
        """Spawn + warm every worker.

        Returns once the current generation of every worker is warm.
        Raises as soon as a worker fails to warm (its warm raised, or
        it died through its restart budget), and when a worker is not
        warm within :data:`WARM_TIMEOUT`.
        """
        if self._running:
            return self
        SERVE_DAEMON_EVENTS.inc(event="start")
        # Forked workers (and their restarts) inherit NumPy from here
        # instead of each importing it (~170 ms on a 2-vCPU VM) on its
        # first vector kernel call.
        numpy_or_none()
        self._running = True  # the reader returns once this is unset
        self._reader = threading.Thread(
            target=self._read_loop, name="serve-daemon-reader",
            daemon=True)
        self._reader.start()
        for worker in self._workers.values():
            self._spawn(worker)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="serve-daemon-monitor",
            daemon=True)
        self._monitor.start()
        with self._warmed:
            self._warmed.wait_for(self._warm_settled, timeout=WARM_TIMEOUT)
        for sid, worker in self._workers.items():
            if worker.failed or worker.ready_error:
                error = (worker.ready_error
                         or f"died {worker.restarts + 1} times")
                self.stop(drain=False)
                raise RuntimeError(f"worker {sid} failed to warm: {error}")
        for sid, worker in self._workers.items():
            if not worker.ready.is_set():
                self.stop(drain=False)
                raise RuntimeError(f"worker {sid} did not warm within "
                                   f"{WARM_TIMEOUT:.0f}s")
        SERVE_WORKERS_ALIVE.set(len(self._workers))
        return self

    def _warm_settled(self) -> bool:
        """Every worker's current generation has reported back from its
        warm, or some worker failed to warm."""
        workers = self._workers.values()
        return (all(w.ready.is_set() for w in workers)
                or any(w.failed or w.ready_error for w in workers))

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self, drain: bool = True,
             timeout: float = 30.0) -> Dict[str, object]:
        """Stop every worker and return the final stats snapshot.

        ``drain=True`` (the default) lets workers finish everything
        already sent before exiting; ``drain=False`` terminates
        them.  Unanswered requests are resolved with a ``shutdown``
        error either way.  Idempotent.
        """
        if not self._running:
            return self.stats()
        self._stopping = True
        self._halt.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)  # no restart races the stop
        SERVE_DAEMON_EVENTS.inc(event="drain" if drain else "stop")
        deadline = time.monotonic() + timeout
        for worker in self._workers.values():
            if worker.process is None:
                continue
            if drain and not worker.failed:
                worker.stop_flag.set()
            else:
                worker.process.terminate()
        for worker in self._workers.values():
            if worker.process is None:
                continue
            worker.process.join(
                timeout=max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():  # drain overran: force it
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            SERVE_DAEMON_EVENTS.inc(event="worker-exit")
        # Every worker has exited, so each pipe ends in EOF after its
        # final message: the reader reads them all to the end and
        # returns.
        self._running = False
        self._wake_w.send_bytes(b"")
        self._reader.join(timeout=max(0.1, deadline - time.monotonic()))
        with self._lock:
            leftovers = list(self._pending.items())
            self._pending.clear()
            for sid in self._inflight:
                self._inflight[sid] = 0
        for _req_id, entry in leftovers:
            entry[3](None, None, None, "shutdown")
        SERVE_WORKERS_ALIVE.set(0)
        if drain:
            SERVE_DAEMON_EVENTS.inc(event="stop")
        return self.stats()

    # -- submission ---------------------------------------------------------

    def submit_batch(self, queries: Sequence[Query],
                     callback: AnswerCallback,
                     shard_id: Optional[int] = None,
                     staleness: Optional[Sequence[int]] = None) -> int:
        """Send one single-shard batch on the caller's thread; the
        reader thread invokes ``callback`` exactly once when the answer
        (or error) arrives.  With the shard's worker failed for good or
        the daemon stopping, ``callback`` runs before this returns.

        All queries must route to the same shard.  ``staleness[i]`` is
        query i's
        epoch budget: the worker may answer from an oracle up to that
        many epochs behind while the fresh one re-warms (0, the
        default, demands fresh).  Returns the request id.
        """
        queries = tuple(queries)
        if not queries:
            raise ValueError("empty batch")
        if staleness is None:
            staleness = (0,) * len(queries)
        else:
            staleness = tuple(int(x) for x in staleness)
            if len(staleness) != len(queries):
                raise ValueError("one staleness budget per query")
        if shard_id is None:
            shard_id = self.shard_for_key(queries[0].instance)
        for q in queries:
            if self.shard_for_key(q.instance) != shard_id:
                raise ValueError(
                    f"query {q.label} does not route to shard "
                    f"{shard_id}")
        worker = self._workers[shard_id]
        if worker.process is None:
            raise RuntimeError("daemon is not running (call start())")
        req_id = next(self._req_ids)
        if worker.failed or self._stopping:
            callback(None, None, None,
                     "worker-lost" if worker.failed else "shutdown")
            return req_id
        with self._lock:
            self._pending[req_id] = (shard_id, queries, staleness,
                                     callback)
            self._inflight[shard_id] += len(queries)
            SERVE_INFLIGHT.set(self._inflight[shard_id],
                               shard=str(shard_id))
        self._send(worker, (_MSG_BATCH, req_id, queries, staleness))
        return req_id

    def query(self, instance_key: str, s: int, t: int,
              edge: Tuple[int, int],
              timeout: Optional[float] = None,
              max_staleness: int = 0) -> QueryAnswer:
        """Synchronous single query (batch of one) through a worker."""
        q = Query(s=s, t=t, edge=(int(edge[0]), int(edge[1])),
                  instance=instance_key)
        done = threading.Event()
        box: List[object] = [None, None]

        def callback(lengths, kinds, lags, error):
            box[0], box[1] = (lengths, kinds), error
            done.set()

        self.submit_batch([q], callback,
                          staleness=(int(max_staleness),))
        if not done.wait(timeout=timeout):
            raise TimeoutError(
                f"no answer for {q.label} within {timeout}s")
        if box[1]:
            raise RuntimeError(f"worker error: {box[1]}")
        (lengths, kinds) = box[0]
        return QueryAnswer(q, lengths[0], kinds[0])

    # -- transport: sends, the reader and the monitor ------------------------

    def _send(self, worker: _Worker, msg) -> bool:
        """Send on the worker's current pipe.  False when the worker is
        dead: its restart re-sends every request still pending."""
        with worker.lock:
            try:
                worker.conn.send(msg)
            except OSError:
                return False
        return True

    def _resolve(self, req_id: int, lengths, kinds, lags,
                 error: str) -> None:
        with self._lock:
            entry = self._pending.pop(req_id, None)
            if entry is None:
                return  # duplicate after a restart resubmit: dropped
            shard_id, queries, _staleness, callback = entry
            self._inflight[shard_id] = max(
                0, self._inflight[shard_id] - len(queries))
            SERVE_INFLIGHT.set(self._inflight[shard_id],
                               shard=str(shard_id))
        callback(lengths, kinds, lags, error)

    def _handle_reply(self, worker: _Worker, conn, msg) -> None:
        kind = msg[0]
        if kind == _RSP_ANSWER:
            _kind, req_id, lengths, kinds, lags, error = msg
            self._resolve(req_id, lengths, kinds, lags, error)
        elif kind == _RSP_STATS:
            _kind, token, stats, hot = msg
            waiter = self._stats_waiters.pop(token, None)
            if waiter is not None:
                event, box = waiter
                box.append((stats, hot))
                event.set()
        elif conn is not worker.conn:
            return  # lifecycle news from a replaced generation
        elif kind == _RSP_READY:
            _kind, pid, warm_stats, error = msg
            worker.pid = pid
            worker.warm_stats = dict(warm_stats)
            with self._warmed:
                worker.ready_error = error
                worker.ready.set()
                self._warmed.notify_all()
            if not error:
                SERVE_DAEMON_EVENTS.inc(event="worker-ready")
        elif kind == _RSP_FINAL:
            worker.final_stats = dict(msg[1])

    def _read_loop(self) -> None:
        """Route every worker's replies; returns once stop() has begun
        and every pipe has been read to EOF."""
        while True:
            with self._lock:
                conns = list(self._conns)
                if not conns and not self._running:
                    return
            for conn in _connection.wait(conns + [self._wake_r]):
                if conn is self._wake_r:
                    conn.recv_bytes()
                    continue
                worker = self._conns[conn]
                try:
                    msg = conn.recv()
                except (EOFError, OSError):  # the worker has exited
                    with worker.lock:
                        conn.close()
                    with self._lock:
                        del self._conns[conn]
                    continue
                self._handle_reply(worker, conn, msg)

    def _monitor_loop(self) -> None:
        while not self._halt.wait(self.monitor_interval):
            alive = 0
            for sid, worker in self._workers.items():
                if worker.failed or worker.process is None:
                    continue
                stale = (worker.ready.is_set()
                         and not worker.ready_error
                         and (time.monotonic() - worker.heartbeat.value
                              > self.heartbeat_timeout))
                if worker.process.is_alive() and not stale:
                    alive += 1
                    continue
                SERVE_DAEMON_EVENTS.inc(event="worker-dead")
                self._restart(sid, worker)
                if not worker.failed:
                    alive += 1
            SERVE_WORKERS_ALIVE.set(alive)

    def _restart(self, sid: int, worker: _Worker) -> None:
        """Replace a dead worker; re-warm, then resubmit outstanding.

        The fresh process gets a fresh pipe; every pending request for
        the shard is re-sent on it — workers answer by request id, so
        a duplicate (one the dead worker answered but the reader had
        not yet read) resolves once and the second answer is dropped.
        """
        if worker.process is not None and worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5.0)
        if worker.restarts >= self.max_restarts:
            with self._warmed:
                worker.failed = True
                self._warmed.notify_all()
            with self._lock:
                lost = [(req_id, entry)
                        for req_id, entry in self._pending.items()
                        if entry[0] == sid]
                for req_id, _entry in lost:
                    del self._pending[req_id]
                self._inflight[sid] = 0
                SERVE_INFLIGHT.set(0, shard=str(sid))
            for _req_id, entry in lost:
                entry[3](None, None, None, "worker-lost")
            return
        worker.restarts += 1
        SERVE_DAEMON_EVENTS.inc(event="worker-restart")
        # The restart warms from worker.config, which apply_mutations
        # keeps at the current epoch — so pending requests resubmit
        # against the *new* topology even when the kill raced an
        # invalidate message the dead worker never consumed.
        self._spawn(worker)
        with self._lock:
            outstanding = [
                (req_id, entry[1], entry[2])
                for req_id, entry in sorted(self._pending.items())
                if entry[0] == sid
            ]
        for req_id, queries, staleness in outstanding:
            SERVE_DAEMON_EVENTS.inc(event="resubmit")
            self._send(worker, (_MSG_BATCH, req_id, queries, staleness))

    # -- observability -------------------------------------------------------

    def worker_stats(self, timeout: float = 5.0) -> List[Dict[str, object]]:
        """Live per-worker shard stats, scraped over the pipes."""
        out: List[Dict[str, object]] = []
        for sid, worker in sorted(self._workers.items()):
            row: Dict[str, object] = {
                "shard_id": sid,
                "pid": worker.pid,
                "alive": bool(worker.process is not None
                              and worker.process.is_alive()),
                "failed": worker.failed,
                "restarts": worker.restarts,
                "instances": len(worker.config.instances),
                "inflight": self.inflight(sid),
            }
            stats: Optional[Dict[str, int]] = worker.final_stats
            if (stats is None and self._running and not worker.failed
                    and row["alive"]):
                token = next(self._req_ids)
                event = threading.Event()
                box: list = []
                self._stats_waiters[token] = (event, box)
                if (self._send(worker, (_MSG_STATS, token))
                        and event.wait(timeout=timeout) and box):
                    stats, hot = box[0]
                    row["hot_oracles"] = hot
                else:
                    self._stats_waiters.pop(token, None)
            if stats is None:
                stats = worker.warm_stats
            row.update(stats)
            out.append(row)
        return out

    def stats(self) -> Dict[str, object]:
        """JSON-safe daemon snapshot, shaped like
        :meth:`ShardedQueryService.stats`: per-shard rows, merged
        totals, and the process counter registry (which carries the
        admission / lifecycle / gauge series)."""
        shards = self.worker_stats()
        totals = ShardStats(shard_id=-1)
        for row in shards:
            known = {k: int(row[k])
                     for k in ShardStats(shard_id=0).as_metrics()
                     if k in row}
            totals.merge(ShardStats(shard_id=row["shard_id"],
                                    **known))
        return {
            "workers": self.workers,
            "running": self._running,
            "restarts": sum(w.restarts
                            for w in self._workers.values()),
            "epochs": {key: self.epoch_of(key)
                       for key in self.instance_keys},
            "shards": shards,
            "totals": totals.as_metrics(),
            "counters": _counters.snapshot_counters(),
        }

    def exposition(self) -> str:
        """Prometheus text exposition: registry + per-shard stats."""
        return shard_exposition(self.worker_stats())
