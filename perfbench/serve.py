"""The serve workload: the daemon behind its front-end.

``serve-closed`` runs one client thread that submits a query and waits
for it before the next.  A traced run ends with a mutation phase: an
open-loop sender where slot ``k`` is due ``k / OPEN_RATE`` seconds after
the phase starts, every request is timed from its due slot, and every
``MUTATE_EVERY``-th slot (slot 0 included) first applies a seeded
mutation burst to the next instance, so the seed fixes how mutations
and queries interleave.

Every answer, the set-up's warm-up queries included, is checked after
the timed region against ``repro.serve.centralized_truth`` on an epoch
that was current between the request's submit and its resolve, shifted
back by the answer's lag.  Latency and throughput are reported in
reference-host time (see :mod:`perfbench.host`).
"""

from __future__ import annotations

import collections
import os
import pathlib
import random
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from . import spec, stats
from .host import (EchoProbe, StealMeter, StepClock, peak_rss_mib,
                   to_reference_trips)
from .layers import LayerClock, LostHook, StageStamps, oracle_query_hook
from .result import RunResult

INF_TIME = float("inf")

#: Oracle build seed (the ``repro serve daemon`` default).
BUILD_SEED = 0

#: Where a traced run's daemon workers flush their spans (inside the
#: checkout; removed once read).
SCRATCH = pathlib.Path(__file__).resolve().parent.parent / ".perfbench-out"


class EpochLog:
    """Which topology epoch of each instance was current, and when.

    An epoch bump is only known to land somewhere inside the
    ``apply_mutations`` call, so the old epoch stays current until the
    call returned and the new one is current from when it began.
    """

    def __init__(self, instances) -> None:
        self._spans: Dict[str, List[list]] = {}
        self._instances: Dict[Tuple[str, int], object] = {}
        for inst in instances:
            self._spans[inst.name] = [
                [inst.topology_version, -INF_TIME, INF_TIME]]
            self._instances[(inst.name, inst.topology_version)] = inst

    def bump(self, name: str, instance, began: float,
             ended: float) -> None:
        spans = self._spans[name]
        spans[-1][2] = ended
        spans.append([instance.topology_version, began, INF_TIME])
        self._instances[(name, instance.topology_version)] = instance

    def current(self, name: str, submitted: float,
                resolved: float) -> List[int]:
        return [epoch for epoch, lo, hi in self._spans[name]
                if lo <= resolved and hi >= submitted]

    def instance(self, name: str, epoch: int):
        return self._instances.get((name, epoch))


class TruthChecker:
    """Centralized truth per (instance, epoch, s, t, edge), memoized."""

    def __init__(self, log: EpochLog) -> None:
        self.log = log
        self._memo: Dict[tuple, int] = {}

    def truth(self, name: str, epoch: int, s: int, t: int,
              edge) -> Optional[int]:
        key = (name, epoch, s, t, edge)
        if key not in self._memo:
            from repro.serve import centralized_truth
            instance = self.log.instance(name, epoch)
            if instance is None:
                return None
            self._memo[key] = centralized_truth(instance, s, t, edge)
        return self._memo[key]

    def check(self, query, length: int, lag: int, submitted: float,
              resolved: float) -> bool:
        for epoch in self.log.current(query.instance, submitted,
                                      resolved):
            want = self.truth(query.instance, epoch - lag, query.s,
                              query.t, query.edge)
            if want is not None and want == length:
                return True
        return False


class Record:
    """One timed request, as the client saw it."""

    __slots__ = ("query", "outcome", "length", "lag", "submitted",
                 "admitted", "resolved", "due", "wrapped", "entered",
                 "answered", "window")

    def __init__(self, query, result, submitted: float, admitted: float,
                 resolved: float, due: float, wrapped: bool,
                 stamps: Tuple[Optional[float], Optional[float]],
                 window: int = 0) -> None:
        self.query = query
        self.outcome = result.outcome
        self.length = (result.answer.length
                       if result.answer is not None else None)
        self.lag = result.lag
        self.submitted = submitted
        self.admitted = admitted
        self.resolved = resolved
        self.due = due
        self.wrapped = wrapped
        self.entered, self.answered = stamps
        self.window = window

    @property
    def latency(self) -> float:
        return self.resolved - self.due


def _balanced_name(seed: int, shard: int) -> str:
    """A catalog name that routes to ``shard``: the daemon places
    instances by a hash of their name, and an uneven split would change
    the workload's shape from one seed to the next."""
    from repro.serve import shard_of
    k = 0
    while True:
        name = f"serve-{spec.SERVE_N}-{seed}-{k}"
        if shard_of(name, spec.SERVE_WORKERS) == shard:
            return name
        k += 1


def _catalog(seeds: List[int]):
    from repro.graphs.generators import random_instance
    return [random_instance(spec.SERVE_N, seed=s,
                            name=_balanced_name(s, i % spec.SERVE_WORKERS))
            for i, s in enumerate(seeds)]


def _stream(catalog, kind: str, per_instance: int, seed: int):
    from repro.serve import generate_workload
    rng = random.Random(seed)
    queries = []
    for inst in catalog:
        queries.extend(generate_workload(kind, inst, per_instance,
                                         seed=rng.randrange(2 ** 31)))
    rng.shuffle(queries)
    return queries


class Mutator:
    """The open loop's writer: one seeded burst per call, round-robin."""

    def __init__(self, daemon, seed: int, log: EpochLog) -> None:
        from repro.dynamic.stream import MutationStream
        self.daemon = daemon
        self.log = log
        self.stream = MutationStream(seed=seed)
        self.keys = list(daemon.instance_keys)
        self.calls = 0
        self.durations: List[float] = []
        #: (instance key, new epoch, when the bump call returned)
        self.bumps: List[Tuple[str, int, float]] = []

    def step(self) -> None:
        key = self.keys[self.calls % len(self.keys)]
        self.calls += 1
        batch = self.stream.burst(self.daemon.instance_for(key),
                                  spec.BURST_SIZE)
        began = time.perf_counter()
        result = self.daemon.apply_mutations(key, batch)
        ended = time.perf_counter()
        self.durations.append(ended - began)
        self.stream.note_applied(key, result.applied)
        if result.applied:
            self.log.bump(key, result.instance, began, ended)
            self.bumps.append((key, result.instance.topology_version,
                               ended))


class Window:
    """One measurement window of the closed loop."""

    __slots__ = ("start", "end", "trips", "steal", "wrapped")

    def __init__(self, start: float, end: float, trips: List[float],
                 steal: float, wrapped: bool) -> None:
        self.start = start
        self.end = end
        #: the echo probe's round trips, timed between the window's
        #: requests
        self.trips = trips
        #: share of the host's CPU time stolen during the window
        self.steal = steal
        self.wrapped = wrapped

    @property
    def busy(self) -> float:
        """Seconds the window spent on requests (its probe trips out)."""
        return self.end - self.start - sum(self.trips)


def _closed_loop(frontend, stream, seconds: float, probe: EchoProbe,
                 hooks, stamps: Optional[StageStamps],
                 ) -> Tuple[List[Record], List[Window]]:
    """One client: submit, wait, repeat, in whole windows of WINDOW_S.

    Between requests the probe times a round trip every
    WINDOW_S / PROBE_TRIPS seconds, so its trips see the same host as
    the requests around them.  A traced run wraps every other window
    (``hooks``).  Each record carries the index of its window.
    """
    records: List[Record] = []
    windows: List[Window] = []
    count = max(2, round(seconds / spec.WINDOW_S))
    every = spec.WINDOW_S / spec.PROBE_TRIPS
    k = 0
    try:
        while len(windows) < count:
            wrapped = hooks is not None and len(windows) % 2 == 1
            if hooks is not None:
                (hooks.apply if wrapped else hooks.restore)()
            trips: List[float] = []
            steal = StealMeter()
            start = time.perf_counter()
            close, probe_due = start + spec.WINDOW_S, start
            while True:
                submitted = time.perf_counter()
                if submitted >= close:
                    break
                if submitted >= probe_due:
                    trips.append(probe.round_trip())
                    probe_due = submitted + every
                    continue
                query = stream[k % len(stream)]
                pending = frontend.submit(query)
                admitted = time.perf_counter()
                result = pending.result()
                resolved = time.perf_counter()
                taken = stamps.take(query) if stamps else (None, None)
                records.append(Record(query, result, submitted, admitted,
                                      resolved, submitted, wrapped, taken,
                                      len(windows)))
                k += 1
            windows.append(Window(start, submitted, trips, steal.share(),
                                  wrapped))
    finally:
        if hooks is not None:
            hooks.restore()
    return records, windows


def _open_loop(frontend, stream, seconds: float,
               mutator: Mutator) -> Tuple[List[Record], List[float]]:
    """Send on schedule from this thread; a collector thread waits for
    the results in order and stamps each as its ``result()`` returns."""
    slots = int(round(spec.OPEN_RATE * seconds))
    pending: "collections.deque" = collections.deque()
    cond = threading.Condition()
    state = {"done": False}
    records: List[Record] = []
    late: List[float] = []

    def collect() -> None:
        while True:
            with cond:
                while not pending and not state["done"]:
                    cond.wait()
                if not pending:
                    return
                item = pending.popleft()
            query, handle, due, submitted, admitted = item
            result = handle.result()
            resolved = time.perf_counter()
            records.append(Record(query, result, submitted, admitted,
                                  resolved, due, False, (None, None)))

    collector = threading.Thread(target=collect, daemon=True,
                                 name="perfbench-collector")
    collector.start()
    start = time.perf_counter() + 0.01
    try:
        for k in range(slots):
            due = start + k / spec.OPEN_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if k % spec.MUTATE_EVERY == 0:
                mutator.step()
            submitted = time.perf_counter()
            late.append(submitted - due)
            query = stream[k]
            handle = frontend.submit(query,
                                     max_staleness=spec.MAX_STALENESS)
            admitted = time.perf_counter()
            with cond:
                pending.append((query, handle, due, submitted, admitted))
                cond.notify()
    finally:
        with cond:
            state["done"] = True
            cond.notify()
        collector.join()
    return records, late


def _start_daemon(catalog, trace_dir: Optional[pathlib.Path]):
    from repro.serve import ServeDaemon, ServeFrontend
    daemon = ServeDaemon(catalog, workers=spec.SERVE_WORKERS,
                         capacity=spec.SERVE_CAPACITY,
                         build_seed=BUILD_SEED)
    if trace_dir is not None:
        # Workers enable span tracing from the environment they are
        # forked with; the benchmark process itself stays untraced.
        os.environ["REPRO_TRACE_DIR"] = str(trace_dir)
    try:
        daemon.start()
    finally:
        if trace_dir is not None:
            os.environ.pop("REPRO_TRACE_DIR", None)
    return daemon, ServeFrontend(daemon)


def _warm_up(frontend, queries) -> List[tuple]:
    """Closed-loop warm-up queries; checked later, outside set-up."""
    answers = []
    for query in queries:
        submitted = time.perf_counter()
        result = frontend.submit(query).result()
        answers.append((query, result, submitted, time.perf_counter()))
    return answers


def _ladder(catalog, queries, checker: TruthChecker,
            tally: stats.Tally) -> Dict[str, float]:
    """The in-process floor of the query ladder: ``oracle.query`` and
    ``ShardedQueryService.serve([q])`` on the run's own stream."""
    from repro.serve import ShardedQueryService
    service = ShardedQueryService(catalog, shards=spec.SERVE_WORKERS,
                                  capacity=spec.SERVE_CAPACITY,
                                  build_seed=BUILD_SEED)
    service.warm()
    clock = LayerClock()
    clock.keep_samples("serve.oracle.query", "serve.shard.serve")
    serve = clock.wrap("serve.shard.serve", service.serve)
    with oracle_query_hook(clock):
        for query in queries:
            answer = serve([query]).answers[0]
            if checker.truth(query.instance, 0, query.s, query.t,
                             query.edge) != answer.length:
                tally.wrong += 1
                tally.mismatches.append(f"in-process {query.label}")
    clock.require(["serve.shard.serve", "serve.oracle.query"])
    return {
        "serve.oracle.query_us":
            stats.median(clock.samples["serve.oracle.query"]) * 1e6,
        "serve.shard.serve_us":
            stats.median(clock.samples["serve.shard.serve"]) * 1e6,
        "serve.shard.serve_self_us":
            stats.median(clock.self_samples["serve.shard.serve"]) * 1e6,
    }


def _worker_spans(trace_dir: pathlib.Path, since: float) -> List[float]:
    """Wall seconds of the workers' ``serve/answer-batch`` spans."""
    from repro.telemetry.sink import read_trace
    try:
        spans, _counters, _info = read_trace(trace_dir)
    except FileNotFoundError:
        return []
    return [float(s["wall"]) for s in spans
            if s.get("name") == "serve/answer-batch"
            and float(s.get("start", 0.0)) >= since]


def run(workload: str, seed: int, seconds: float,
        trace: bool) -> RunResult:
    rng = random.Random(f"perfbench/{workload}/{seed}")
    seeds = [rng.randrange(2 ** 31) for _ in range(spec.CATALOG)]
    stream_seed = rng.randrange(2 ** 31)
    mixed_seed = rng.randrange(2 ** 31)
    mutation_seed = rng.randrange(2 ** 31)
    # A traced run ends with the mutation phase (the dynamic layer).
    phase_s = min(spec.MUTATE_PHASE_S, seconds / 3) if trace else 0.0
    # The client's side, outside every timed region: its own copy of
    # the catalog, the query streams and the reference answers.
    base = _catalog(seeds)
    stream = _stream(base, "uniform",
                     -(-(spec.WARMUP_QUERIES + spec.CLOSED_STREAM)
                       // spec.CATALOG), stream_seed)
    warm, stream = stream[:spec.WARMUP_QUERIES], stream[spec.WARMUP_QUERIES:]
    mixed = _stream(base, "mixed",
                    -(-int(spec.OPEN_RATE * phase_s) // spec.CATALOG),
                    mixed_seed) if trace else []
    log = EpochLog(base)
    checker = TruthChecker(log)
    trace_dir = None
    if trace:
        SCRATCH.mkdir(exist_ok=True)
        trace_dir = pathlib.Path(tempfile.mkdtemp(prefix="trace-",
                                                  dir=SCRATCH))
    tally = stats.Tally()
    setups: List[StepClock] = []
    warm_answers: List[tuple] = []
    daemon = frontend = None
    phase: List[Record] = []
    late: List[float] = []
    mutator = None
    probe = EchoProbe()
    try:
        for _ in range(spec.SERVE_SETUP_REPS):
            if daemon is not None:
                frontend.close()
                daemon.stop()
            clock = StepClock()
            daemon, frontend = clock.step(
                lambda: _start_daemon(_catalog(seeds), trace_dir))
            step = spec.WARMUP_QUERIES // 4
            for lo in range(0, len(warm), step):
                warm_answers += clock.step(_warm_up, frontend,
                                           warm[lo:lo + step])
            setups.append(clock)
        rounds = daemon.stats()["totals"]["rounds"]
        layers: Dict[str, float] = {}
        if trace:
            layers.update(_ladder(base, stream[:spec.LADDER_QUERIES],
                                  checker, tally))
        stamps = StageStamps(daemon) if trace else None
        before = daemon.stats()["totals"]
        wall_start = time.time()
        steal = StealMeter()
        records, windows = _closed_loop(
            frontend, stream, seconds - phase_s, probe,
            stamps.hooks if stamps else None, stamps)
        closed = daemon.stats()["totals"]
        if trace:
            mutator = Mutator(daemon, mutation_seed, log)
            phase, late = _open_loop(frontend, mixed, phase_s, mutator)
        noise = steal.read()
        snapshot = daemon.stats()
        pids = [row["pid"] for row in snapshot["shards"]
                if row.get("alive")]
        rss = peak_rss_mib(pids)
        frontend.close()
        daemon.stop()
        daemon = None
        answer_batch = (_worker_spans(trace_dir, wall_start)
                        if trace_dir is not None else [])
    finally:
        probe.close()
        if daemon is not None:
            frontend.close()
            daemon.stop()
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)
            try:
                SCRATCH.rmdir()
            except OSError:  # another run's trace is still there
                pass

    for query, result, submitted, resolved in warm_answers:
        if result.outcome not in stats.ANSWERED or not checker.check(
                query, result.answer.length, result.lag, submitted,
                resolved):
            tally.wrong += 1
            tally.mismatches.append(f"warm-up {query.label}")
    phase_tally = stats.Tally()
    for group, tallies in ((records, (tally,)),
                           (phase, (tally, phase_tally))):
        for rec in group:
            correct = None
            if rec.outcome in stats.ANSWERED:
                correct = checker.check(rec.query, rec.length, rec.lag,
                                        rec.submitted, rec.resolved)
            for t in tallies:
                t.add(rec.outcome, correct=correct, lag=rec.lag,
                      label=rec.query.label)

    # The run is measured on its least stolen windows.  Each window's
    # latency percentiles are read against the same percentile of the
    # probe's round trips before it, and the run reports the median
    # window: one stalled window moves it little.
    latencies: Dict[int, List[float]] = collections.defaultdict(list)
    for r in records:
        latencies[r.window].append(r.latency)
    unwrapped = [i for i, w in enumerate(windows) if not w.wrapped]
    bare = [unwrapped[j] for j in stats.quietest(
        [windows[i].steal for i in unwrapped])]
    q = min(stats.tail(latencies[i])[0] for i in bare)
    op_p50 = _window_median(windows, latencies, bare, 50.0)
    op_tail = _window_median(windows, latencies, bare, q)
    rates = [len(latencies[i]) / to_reference_trips(
        windows[i].busy, stats.median(windows[i].trips))
        for i in bare]
    result = RunResult(workload=workload, seed=seed, seconds=seconds,
                       trace=trace, tally=tally)
    result.end_to_end = {
        "setup_s": stats.median([c.reference for c in setups]),
        "op_p50_ms": op_p50 * 1e3,
        "op_tail_ms": op_tail * 1e3,
        "throughput_per_s": stats.median(rates),
        "rounds": rounds,
        "ok_share": tally.ok_share,
        "peak_rss_mib": rss,
    }
    trips = [t for i in bare for t in windows[i].trips]
    noise["probe_trip_us"] = round(stats.median(trips) * 1e6, 3)
    noise["steal_share_by_window"] = [round(w.steal, 3) for w in windows]
    bare_records = [x for i in bare for x in latencies[i]]
    result.notes.update({
        "setup_wall_s": [round(c.wall, 4) for c in setups],
        "samples": len(bare_records),
        "windows": len(bare),
        "tail_percentile": q,
        "wall_op_p50_ms": round(stats.median(bare_records) * 1e3, 4),
        "wall_throughput_per_s": round(len(bare_records) / sum(
            windows[i].end - windows[i].start for i in bare), 1),
        "catalog": [inst.name for inst in base],
        "noise": noise,
        "restarts": snapshot.get("restarts"),
        "counters": _deltas(before, closed),
    })
    if trace:
        layers.update(_stage_layers(records, stamps, answer_batch))
        wrapped = [i for i, w in enumerate(windows) if w.wrapped]
        overhead = (_window_median(windows, latencies, wrapped, 50.0)
                    - _window_median(windows, latencies, unwrapped, 50.0))
        layers["trace.overhead_ms"] = overhead * 1e3
        layers["trace.overhead_share"] = overhead / _window_median(
            windows, latencies, unwrapped, 50.0)
        counters = _deltas(closed, snapshot["totals"])
        layers.update({f"serve.{k}": v for k, v in counters.items()})
        layers.update(_dynamic_layers(phase, mutator, late))
        layers["serve.fresh_share"] = phase_tally.fresh_share
        result.notes["mutation_phase"] = {
            "seconds": phase_s, "bursts": mutator.calls,
            "epoch_bumps": len(mutator.bumps),
            "outcomes": phase_tally.as_dict(), "counters": counters,
            "op_p50_ms": stats.median([r.latency for r in phase]) * 1e3}
        result.per_layer = layers
    return result


def _window_median(windows: List[Window],
                   latencies: Dict[int, List[float]], chosen: List[int],
                   q: float) -> float:
    """Median over the chosen windows of latency percentile ``q`` read
    against the probe's median round trip, in reference-host seconds.
    (The probe's own tail is a handful of steal stalls, not a speed.)"""
    return stats.median([
        to_reference_trips(stats.percentile(latencies[i], q),
                           stats.median(windows[i].trips))
        for i in chosen])


def _deltas(before: Dict[str, int], after: Dict[str, int],
            ) -> Dict[str, int]:
    return {name: after.get(name, 0) - before.get(name, 0)
            for name in spec.SERVE_COUNTERS}


def _stage_layers(records: List[Record], stamps: StageStamps,
                  answer_batch: List[float]) -> Dict[str, float]:
    admit, dispatch, roundtrip, resolve = [], [], [], []
    for r in records:
        if not r.wrapped or r.entered is None or r.answered is None:
            continue
        admit.append(r.admitted - r.submitted)
        dispatch.append(r.entered - r.admitted)
        roundtrip.append(r.answered - r.entered)
        resolve.append(r.resolved - r.answered)
    if not admit:
        raise LostHook("serve.daemon.submit_batch: no request passed "
                       "through the stage stamps")
    if not answer_batch:
        raise LostHook("serve.worker.answer_batch: the workers flushed "
                       "no serve/answer-batch spans")
    worker = stats.median(answer_batch) * 1e6
    roundtrip_us = stats.median(roundtrip) * 1e6
    return {
        "serve.frontend.admit_us": stats.median(admit) * 1e6,
        "serve.frontend.dispatch_us": stats.median(dispatch) * 1e6,
        "serve.daemon.roundtrip_us": roundtrip_us,
        "serve.frontend.resolve_us": stats.median(resolve) * 1e6,
        "serve.daemon.batch_size": (sum(stamps.batch_sizes)
                                    / len(stamps.batch_sizes)),
        "serve.worker.answer_batch_us": worker,
        "serve.daemon.roundtrip_self_us": roundtrip_us - worker,
    }


def _dynamic_layers(records: List[Record], mutator: Mutator,
                    late: List[float]) -> Dict[str, float]:
    windows = []
    for key, _epoch, bumped in mutator.bumps:
        for r in records:
            if (r.query.instance == key and r.submitted >= bumped
                    and r.outcome == "ok" and r.lag == 0):
                windows.append(r.resolved - bumped)
                break
    if not windows:
        raise LostHook("serve.stale_window: no epoch bump of the "
                       "mutation phase was followed by a fresh answer")
    return {
        "dynamic.apply_mutations_ms":
            stats.median(mutator.durations) * 1e3,
        "serve.stale_window_ms": stats.median(windows) * 1e3,
        "loadgen.late_p95_ms": stats.percentile(late, 95) * 1e3,
    }
