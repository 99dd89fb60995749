"""Pipelined sweeps along the given s-t path P.

Several of the paper's subroutines are "sweeps": a token starts at one
vertex of P, walks along consecutive path vertices, combines a carried
value with vertex-local knowledge at every stop, and terminates at a
target vertex (Lemmas 4.4, 5.7, 7.7, 7.8).  Running many sweeps over the
same subpath is made cheap by pipelining: each path link carries one token
per round, FIFO, so T tokens over an L-link subpath cost O(L + T) rounds.

This module provides that engine once, congestion-checked, so every sweep
in the repository shares the same verified schedule.

Positions are indices into the path (0..h_st); a sweep with
``start < end`` walks rightward (toward t), ``start > end`` leftward.
Tokens may also deposit their running value at every vertex they visit;
the deposits come back in walk order.

A task supplies ``combine``, an arbitrary per-visit local update, and
runs on the message engine below.  Lemmas 5.7/5.9 need only one
declarative shape: k sweeps over every segment between consecutive
checkpoints, each taking the running minimum of a local table.
:class:`SegmentSweeps` states that grid once, with its local tables as
path columns of a landmark table, so the vector fabric builds them as
one ``(k, h_st + 1)`` array and runs every sweep as one segmented
running minimum (:func:`repro.congest.kernels.run_path_sweeps_vector`)
with identical results and ledger accounting, while the message engine
expands the grid into tasks on entry.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Hashable, List, Optional, Sequence, Tuple,
)

from .dispatch import dispatch
from .network import CongestNetwork
from .words import clamp_inf

#: combine(position, carried) -> new carried value.  ``position`` is the
#: path index of the vertex the token just arrived at.  The callable runs
#: as *local computation* of that vertex, so it may consult any knowledge
#: that vertex holds.
CombineFn = Callable[[int, object], object]


@dataclass
class SweepTask:
    """One token to route along the path.

    Attributes
    ----------
    key:
        Caller-chosen identifier for reading results back.
    start, end:
        Path positions; the token departs ``start`` carrying ``init`` and
        is combined at every subsequent position up to and including
        ``end``.
    init:
        The value leaving the start vertex (computed locally there).
    combine:
        Per-visit local update.
    deposit:
        When True, the value *after* combining is recorded at every
        visited position (including ``start`` with the raw ``init``).
    """

    key: Hashable
    start: int
    end: int
    init: object
    combine: CombineFn
    deposit: bool = False


@dataclass
class SweepResult:
    """Outcome of one sweep: the final value and, for a depositing
    task, the value after every stop in walk order (``trace[0]`` is
    ``init`` at ``start``, the last entry the value at ``end``)."""

    key: Hashable
    final: object
    trace: List[object] = field(default_factory=list)


@dataclass(frozen=True)
class SegmentSweeps:
    """k declarative sweeps over every segment of the path (Lemmas
    5.7/5.9).

    Segment g runs from ``checkpoints[g]`` to ``checkpoints[g + 1]``.
    Row j's local value at position p is
    ``clamp_inf(offset[p] + table[j][path[p]])`` — knowledge v_p holds
    locally.  Each of a segment's k tokens leaves the segment's left
    end (``rightward``) or right end carrying that end's local value,
    takes the minimum with the local value at every stop, and ends at
    the other checkpoint.  ``table`` has one row per token, indexed by
    vertex (a ``(k, n)`` int64 array, or lists).

    The sweep returns ``(carried, finals)``: ``carried[j][i]`` is the
    value row j's token carries across path edge i (it leaves v_i
    rightward, v_{i+1} leftward), and ``finals[j][g]`` is its value at
    segment g's far end.  ``carried`` is a ``(k, h_st)`` int64 array
    from the vector lane and lists from the message engine; ``finals``
    is lists of Python ints from both.
    """

    checkpoints: Sequence[int]
    offset: Sequence[int]
    table: object
    rightward: bool


def run_path_sweeps(
    net: CongestNetwork,
    path: Sequence[int],
    tasks: Sequence[SweepTask],
    phase: Optional[str] = None,
) -> Dict[Hashable, SweepResult]:
    """Run all sweeps concurrently with per-link FIFO pipelining.

    Rounds consumed: the makespan of the FIFO schedule, which is
    O(max sweep length + max tokens per link); the congestion accounting
    of the network confirms one token (a constant number of words) per
    link per round.
    """
    name = phase if phase is not None else "path-sweeps"
    if not tasks:
        return {}
    hops = len(path) - 1
    for task in tasks:
        if not (0 <= task.start <= hops and 0 <= task.end <= hops):
            raise ValueError(
                f"sweep {task.key!r} leaves the path bounds")

    raw = dispatch("path_sweeps", net, path=path, tasks=tasks,
                   segments=None, name=name)
    return {
        key: SweepResult(key=key, final=final, trace=trace)
        for key, (final, trace) in raw.items()
    }


def run_segment_sweeps(
    net: CongestNetwork,
    path: Sequence[int],
    segments: SegmentSweeps,
    phase: str,
) -> Tuple[object, List[List[object]]]:
    """Run a :class:`SegmentSweeps` grid: ``(carried, finals)``.

    The same pipelined schedule as the equivalent task list (segment
    by segment, row by row), so both lanes charge what
    :func:`run_path_sweeps` would.  An empty grid (no rows or no
    segment) sends nothing and opens no phase.
    """
    k = len(segments.table)
    if not k or len(segments.checkpoints) < 2:
        return [[] for _ in range(k)], [[] for _ in range(k)]
    return dispatch("path_sweeps", net, path=path, tasks=(),
                    segments=segments, name=phase)


def _segment_tasks(path: Sequence[int],
                   segments: SegmentSweeps) -> List[SweepTask]:
    """The grid as depositing tasks keyed ``(g, j)`` (message lane)."""
    offset, table = segments.offset, segments.table
    local_rows = [
        [clamp_inf(offset[pos] + row[v]) for pos, v in enumerate(path)]
        for row in table
    ]
    checkpoints = segments.checkpoints
    tasks = []
    for g in range(len(checkpoints) - 1):
        left, right = checkpoints[g], checkpoints[g + 1]
        start, end = (left, right) if segments.rightward else (right, left)
        for j, local in enumerate(local_rows):
            tasks.append(SweepTask(
                key=(g, j), start=start, end=end, init=local[start],
                combine=lambda pos, value, local=local: min(
                    value, local[pos]),
                deposit=True))
    return tasks


def _segment_results(
    segments: SegmentSweeps,
    results: Dict[Hashable, Tuple[object, List[object]]],
) -> Tuple[List[List[object]], List[List[object]]]:
    """Fold per-task walk traces into ``(carried, finals)`` rows."""
    checkpoints = segments.checkpoints
    k = len(segments.table)
    carried: List[List[object]] = [[] for _ in range(k)]
    finals: List[List[object]] = [[] for _ in range(k)]
    for g in range(len(checkpoints) - 1):
        for j in range(k):
            final, trace = results[(g, j)]
            # Every stop but the far end sends the token on; leftward
            # walks visit their edges right to left.
            stops = trace[:-1]
            carried[j].extend(
                stops if segments.rightward else stops[::-1])
            finals[j].append(final)
    return carried, finals


def _path_sweeps_message(
    net: CongestNetwork,
    path: Sequence[int],
    tasks: Sequence[SweepTask],
    segments: Optional[SegmentSweeps],
    name: str,
):
    """The per-link FIFO round loop (the registry's fallback lane).

    Returns the same raw ``{key: (final, trace)}`` mapping as the
    vector kernel; :func:`run_path_sweeps` wraps both lanes into
    :class:`SweepResult` objects.  A segment grid is expanded into its
    tasks on entry and folded back into ``(carried, finals)``.
    """
    if segments is not None:
        tasks = _segment_tasks(path, segments)
    results: Dict[Hashable, SweepResult] = {}
    with net.ledger.phase(name):
        # Directed link queues keyed by (position, direction); direction
        # +1 moves token from path[p] to path[p+1].  The deterministic
        # (position, direction) service order is maintained
        # incrementally — keys are only ever added — instead of
        # re-sorting the queue table every round.
        queues: Dict[Tuple[int, int], deque] = {}
        key_order: List[Tuple[int, int]] = []
        pending = 0

        def enqueue(task: SweepTask, position: int, value: object) -> None:
            direction = 1 if task.end > task.start else -1
            key = (position, direction)
            queue = queues.get(key)
            if queue is None:
                queue = queues[key] = deque()
                insort(key_order, key)
            queue.append((task, position + direction, value))

        for task in tasks:
            result = SweepResult(key=task.key, final=task.init)
            if task.deposit:
                result.trace.append(task.init)
            results[task.key] = result
            if task.start == task.end:
                continue
            enqueue(task, task.start, task.init)
            pending += 1

        # One message object per distinct carried value, shared across
        # links and rounds (sweeps carry the same value — often INF —
        # over and over): the batched fabric's per-round id-keyed size
        # memo then prices each distinct value once per round instead
        # of once per token.  Unhashable values fall back to a fresh
        # tuple.
        message_of: Dict[object, tuple] = {}

        def message_for(value: object) -> tuple:
            try:
                message = message_of.get(value)
            except TypeError:
                return ("sweep", value)
            if message is None:
                message = message_of[value] = ("sweep", value)
            return message

        while pending:
            outbox: Dict[int, List[Tuple[int, object]]] = {}
            moves: List[Tuple[SweepTask, int, object]] = []
            for key in key_order:
                queue = queues[key]
                if not queue:
                    continue
                task, nxt, value = queue.popleft()
                pending -= 1
                sender = path[key[0]]
                receiver = path[nxt]
                # One token per link per round; a token's wire format is
                # (sweep id, carried value) — a constant number of words.
                outbox.setdefault(sender, []).append(
                    (receiver, message_for(value)))
                moves.append((task, nxt, value))
            net.exchange(outbox)
            for task, position, value in moves:
                value = task.combine(position, value)
                result = results[task.key]
                if task.deposit:
                    result.trace.append(value)
                if position == task.end:
                    result.final = value
                else:
                    enqueue(task, position, value)
                    pending += 1
    raw = {key: (r.final, r.trace) for key, r in results.items()}
    if segments is not None:
        return _segment_results(segments, raw)
    return raw
