"""NumPy array kernels: whole-frontier CONGEST rounds without messages.

``fabric="vector"`` keeps the batched exchange engine for explicit
``exchange`` calls, but routes **every round loop of the Theorem 1
solver** through whole-structure computation over the frozen CSR
arrays (:meth:`~repro.congest.topology.CSRTopology.arrays` /
:meth:`~repro.congest.topology.CSRTopology.send_arrays`): the pruned
hop-BFS of Lemma 4.2, the k-source hop BFS of Lemma 5.5, the
pipelined tree broadcast of Lemma 2.4 (an exact makespan from the
tree's leaves), the Lemma 2.5 path-chain flood, the descending
ζ-round DP pipeline of Lemma 4.4 (with each vertex's local Lemma 4.3
inside it), the segment prefix/suffix sweeps of Lemmas 5.7/5.9 and
their combine and one-hop shift, and the BFS spanning-tree flood
(charged from one BFS's layering).  One synchronous round becomes a
handful of vectorized operations (frontier gathers via CSR range
expansion, or over every CSR slot at once when most vertices send,
delay-shifted scheduling buckets, segmented max/min via
``np.maximum.at``/``np.minimum.at``, the k-source BFS's priority
queues as column minima of rank-major ``d·k + rank`` keys) instead of
one Python tuple per (sender, target) pair — and closed-form
schedules (chain gaps, DP rounds, disjoint sweep groups, broadcast
makespans, the flood's two rounds per BFS level, the repeating tail
of the pruned hop-BFS once its unit-step state reaches a fixed point)
charge whole executions in bulk via
:meth:`~repro.congest.metrics.RoundLedger.charge_rounds` without
walking rounds at all.

The contract, asserted by ``tests/test_kernel_equivalence.py`` and
``tests/test_solver_equivalence.py``, is **bit-identical
observables**: the kernels return exactly the result tables the
message engines return, and charge the
:class:`~repro.congest.metrics.RoundLedger` exactly the same per-phase
rounds, message counts, word totals, per-link maxima, and violation
counts.  The message engines stay the semantic oracles; the
conditions under which a kernel can guarantee parity for a given call
(functional auxiliary words, no ``record_link_totals`` cut analysis,
NumPy present, no key-encoding overflow, a declarative sweep grid) are
declared as per-primitive constraints in the registry of
:mod:`repro.congest.dispatch`, whose :func:`~repro.congest.dispatch.
dispatch` entry point routes every call and falls back to the message
path on the first failing constraint.  (The historical applicability
predicates lived here as deprecated shims for one release; they are
gone — the registry is the only gatekeeper.)

NumPy is imported lazily (module import never touches it), so the
message engines remain importable — and fully functional — without it.

After the hop-BFS, the Theorem 1 stages hand each other one data
format on this fabric: int64 arrays.  The k-source BFS returns
``(k, n)`` tables, which the landmark completion takes as they are and
returns completed; the segment sweeps gather their path columns into
``(k, h_st + 1)`` local rows and return ``(k, h_st)`` running minima;
the combine and shift return the ``(k, h_st)`` M and N tables the
min-sum reduces.  Lemma 4.3 runs inside the DP kernel, on the first
hits of the hop-BFS rows, over the ζ window only.  Dicts and lists
exist only inside the message lanes, which build them once, on entry;
anything that leaves a kernel as a message payload or a returned
length is converted with ``tolist()`` or ``int()`` first
(``words_of`` prices no NumPy scalar).

The topology exports the kernels gather over follow the int32 memory
diet (:class:`~repro.congest.topology.TopologyArrays`): indptr/
indices/steps arrive as int32 whenever the value ranges permit and
are **read-only**.  Kernels treat them as addressing data; any
arithmetic that can outgrow int32 (hop sums against the budget) is
performed in int64, upcasting at the gather site.  Value/distance
arrays (INF sentinels at 2^60) always stay int64, except the k-source
BFS's key tables: its ``d·k + rank`` keys never exceed twice the
call's cap ``(hop_limit + 1)·k``, so they live in the narrowest of
int16, int32 and int64 that holds that (:func:`_key_dtype`), and the
distance table it returns is int64 again.

Ledger parity leans on one structural invariant of the round-loop
kernels: in any round, each directed link carries at most one message,
and all messages of the round have the same word size.  The per-round
charge is therefore ``(M messages, M·size words, max_link = size,
violations = M·[size > bandwidth])`` — exactly what
:func:`~repro.congest.fastpath.exchange_batch` computes message by
message — and aggregating it over a whole schedule is exact because
phase stats only ever hold aggregates.  The broadcast kernel leans on
its own invariant: every item crosses every tree link once, one item
per busy link per round, so its totals follow from the batch and its
makespan, whatever the item sizes.
"""

from __future__ import annotations

import functools
from array import array
from fractions import Fraction
from itertools import chain, groupby
from operator import itemgetter
from typing import (
    Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple,
)

from ..telemetry import trace as _trace
from .errors import BandwidthExceededError
from .words import INF, words_of

Value = Tuple[int, int]
EdgeSet = FrozenSet[Tuple[int, int]]

#: Wire size of the BFS kernel messages.  Both schedules send
#: ``(tag, int, int)`` tuples whose tag is at most 8 characters, so the
#: size is independent of the carried values.
HOP_MESSAGE_WORDS = words_of(("hopv", 0, 0))

#: Magnitude bound for values packed into int64 kernel arrays.
_INT64_SAFE = 1 << 62

_NUMPY = None
_NUMPY_CHECKED = False


def numpy_or_none():
    """NumPy module, or None when unavailable (checked once, lazily)."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        try:
            import numpy
            _NUMPY = numpy
        except ImportError:  # pragma: no cover - numpy is baked in CI
            _NUMPY = None
        _NUMPY_CHECKED = True
    return _NUMPY


def _kernel_span(kernel: str):
    """Wrap a vector kernel in a ``kernel/<name>`` span when tracing.

    When the first argument carries a ledger (the ``net``-taking
    kernels), the span joins it and reports the kernel's own
    rounds/messages/words deltas.  Tracing off costs one boolean.
    """
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _trace._ENABLED:
                return fn(*args, **kwargs)
            with _trace.span("kernel/" + kernel) as sp:
                ledger = getattr(args[0], "ledger", None) if args else None
                if ledger is not None:
                    sp.set_ledger(ledger)
                return fn(*args, **kwargs)
        return wrapper
    return deco


def vector_gate_reason(net) -> Optional[str]:
    """The global-gate fallback reason for ``net``, or None when the
    array kernels may run.

    Requires the vector fabric, NumPy, and no per-link total recording
    (the lower-bound cut analysis wants genuine per-message routing).
    The gates themselves are declared once, as data, in
    :data:`repro.congest.dispatch.GLOBAL_GATES`; the returned strings
    are members of the registry-derived reason set
    (:func:`repro.congest.dispatch.known_reasons`).
    """
    from .dispatch import GLOBAL_GATES
    for gate in GLOBAL_GATES:
        if not gate.check(net, {}):
            return gate.reason
    return None


def vector_enabled(net) -> bool:
    """Should ``net`` route kernel-covered primitives through arrays?"""
    return vector_gate_reason(net) is None


def _fits_int64(value: int) -> bool:
    return -_INT64_SAFE < value < _INT64_SAFE


def _clamped_operands_ok(table) -> bool:
    """May a kernel that clamps its operands at INF before any sum, or
    takes only minima, read ``table`` (an array, or rows of values)?
    An integer array passes on its dtype alone, with no pass over its
    values.  Rows of values must be int64-safe ints, at one C-level
    pass: ``int.bit_length`` takes ints only (a Fraction, float or
    NumPy scalar raises TypeError), and |x| < 2^62 iff
    ``x.bit_length()`` < 63."""
    np = numpy_or_none()
    if np is not None and isinstance(table, np.ndarray):
        return table.dtype.kind == "i"
    try:
        return max(map(int.bit_length, chain.from_iterable(table)),
                   default=0) < _INT64_SAFE.bit_length()
    except TypeError:  # a value that is not an int
        return False


def _key_dtype(np, cap: int):
    """The narrowest of int16, int32 and int64 that holds ``2·cap``."""
    for dtype in (np.int16, np.int32):
        if 2 * cap <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _expand_ranges(np, starts, counts, total: int):
    """Concatenated ``[starts[i], starts[i]+counts[i])`` slot indices."""
    shifts = np.concatenate(
        (np.zeros(1, dtype=np.int64),
         np.cumsum(counts, dtype=np.int64)[:-1]))
    return np.repeat(starts - shifts, counts) + np.arange(
        total, dtype=np.int64)


def charge_uniform_rounds(net, rounds: int, messages: int, size: int,
                          senders: Sequence[int],
                          targets: Sequence[int]) -> None:
    """Bulk-charge a whole schedule of equal-size, distinct-link rounds.

    ``messages`` is the total over all ``rounds``; every message has
    ``size`` words and rides a link of its own, so the aggregate charge
    (``rounds`` rounds, ``messages·size`` words, per-round link max of
    ``size``, one violation per oversized message) is exactly what
    per-round :func:`~repro.congest.fastpath.exchange_batch` calls
    would accumulate.  Under strict mode an oversized message aborts
    the schedule inside its first round, exactly like the message
    engines: the first round is charged alone and the same
    first-overload error raised over the round-1 ``(sender, target)``
    pairs (the callers pass exactly the links of round 1).
    """
    if rounds <= 0:
        return
    ledger = net.ledger
    if messages and size > net.bandwidth_words:
        if net.strict:
            first = len(senders)
            ledger.charge_round(first, first * size, size, first)
            _raise_first_overload(net, senders, targets, size)
        ledger.charge_rounds(rounds, messages, messages * size, size,
                             messages)
    else:
        ledger.charge_rounds(rounds, messages, messages * size,
                             size if messages else 0, 0)


def _charge_uniform_round(net, messages: int, size: int) -> None:
    """Charge one round of equal-size messages on distinct links.

    Mirrors :func:`~repro.congest.fastpath.exchange_batch` for the BFS
    kernels' schedules (at most one message per directed link): the
    ledger is charged *before* a strict-mode overload raises, exactly
    like the message engines, so post-mortem ledgers stay truthful.
    """
    if messages:
        violations = messages if size > net.bandwidth_words else 0
        net.ledger.charge_round(messages, messages * size, size,
                                violations)
    else:
        net.ledger.charge_round(0, 0, 0)


def _raise_first_overload(net, senders, targets, size: int) -> None:
    """Cold path: raise the same first-overload error the fabric would.

    ``exchange_batch`` reports the overloaded link with the smallest
    receiver-major link id; replicate that ordering over the round's
    (sender, target) pairs.
    """
    topology = net.topology
    best = None
    for u, x in zip(senders, targets):
        lid = topology.link_id(int(u), int(x))
        if best is None or lid < best[0]:
            best = (lid, int(u), int(x))
    assert best is not None
    raise BandwidthExceededError(best[1], best[2], size,
                                 net.bandwidth_words)


# -- pruned hop-BFS (Lemma 4.2) ---------------------------------------------


@_kernel_span("hop_bfs")
def pruned_max_hop_bfs_vector(
    net,
    seeds: Mapping[int, Value],
    hop_limit: int,
    avoid_edges: EdgeSet,
    delay: Optional[Callable[[int], int]],
    record_for: Optional[Sequence[int]],
    name: str,
    run_full_budget: bool,
    sense: str,
    select: str,
    plan=None,
) -> Dict[int, List[Optional[Value]]]:
    """Whole-frontier rounds of the pruned hop-BFS (Lemma 4.2).

    Bit-identical to the message path in ``repro.core.hop_bfs``: same
    tables, same ledger.  Per round: one CSR range expansion over the
    frontier, one delay shift into per-arrival-hop buckets, one
    segmented max (or min) per touched bucket.

    With unit steps nothing is ever pending across rounds, so a round's
    settled frontier and indices decide every later round.  Once a
    round settles exactly the state of the round before, every round up
    to ``hop_limit`` repeats it: the remaining rounds are charged in
    one :func:`charge_uniform_rounds` call and the row is repeated in
    the tables.  A strict overload raises inside the first sending
    round, before any repeat can be seen.

    ``plan`` is the prebuilt send-arrays triple the dispatcher's
    prepare hook supplies (built before the phase opens, so a
    pathological delay function overflows before anything is charged
    and the dispatcher falls back); direct callers may omit it.
    """
    np = numpy_or_none()
    n = net.n
    if plan is None:
        direction = "in" if sense == "backward" else "out"
        plan = net.topology.send_arrays(direction, avoid_edges, delay)
    indptr, indices, steps = plan
    # Unit steps (the unweighted Lemma 4.2) collapse the scheduling:
    # everything sent in round d arrives at exact hop d.
    unit_steps = delay is None or bool((steps == 1).all())
    prefer_larger = select == "max"
    reduce_at = np.maximum.at if prefer_larger else np.minimum.at
    sentinel = -_INT64_SAFE if prefer_larger else _INT64_SAFE
    aux_of = {value[0]: value[1] for value in seeds.values()}
    record = (None if record_for is None else set(record_for))
    recorded = None
    if record is not None:
        recorded = np.zeros(n, dtype=bool)
        recorded[[u for u in record if 0 <= u < n]] = True
    size = HOP_MESSAGE_WORDS
    overload = net.strict and size > net.bandwidth_words
    empty = np.zeros(0, dtype=np.int64)

    with net.ledger.phase(name):
        fr_v = np.fromiter(seeds.keys(), dtype=np.int64,
                           count=len(seeds))
        fr_idx = np.fromiter((v[0] for v in seeds.values()),
                             dtype=np.int64, count=len(seeds))
        #: arrival hop -> dense best-index array (lazily allocated; at
        #: most max-delay buckets live at once).
        buckets: Dict[int, object] = {}
        settled: List[Tuple[int, object, object]] = []
        #: Rounds after the last settled row that repeat it.
        repeats = 0

        for d in range(1, hop_limit + 1):
            if not run_full_budget and not fr_v.size and not buckets:
                break
            if fr_v.size:
                counts = indptr[fr_v + 1] - indptr[fr_v]
                total = int(counts.sum())
            else:
                counts = empty
                total = 0
            _charge_uniform_round(net, total, size)
            if total:
                slots = _expand_ranges(np, indptr[fr_v], counts, total)
                if overload:
                    _raise_first_overload(
                        net, np.repeat(fr_v, counts), indices[slots],
                        size)
                if unit_steps:
                    # Every send of round d settles at hop d (<= the
                    # budget, by the loop bound): one segmented reduce.
                    bucket = buckets.get(d)
                    if bucket is None:
                        bucket = buckets[d] = np.full(
                            n, sentinel, dtype=np.int64)
                    reduce_at(bucket, indices[slots],
                              np.repeat(fr_idx, counts))
                else:
                    # Steps may be an int32 diet export; the hop sum
                    # can exceed int32, so upcast at the gather site.
                    arrive = (d - 1) + steps[slots].astype(
                        np.int64, copy=False)
                    keep = arrive <= hop_limit
                    targets = indices[slots][keep]
                    if targets.size:
                        arrive = arrive[keep]
                        idx_e = np.repeat(fr_idx, counts)[keep]
                        for a in np.unique(arrive).tolist():
                            bucket = buckets.get(a)
                            if bucket is None:
                                bucket = buckets[a] = np.full(
                                    n, sentinel, dtype=np.int64)
                            mask = arrive == a
                            reduce_at(bucket, targets[mask],
                                      idx_e[mask])
            bucket = buckets.pop(d, None)
            if bucket is None:
                fr_v = fr_idx = empty
                continue
            new_v = np.nonzero(bucket != sentinel)[0]
            new_idx = bucket[new_v]
            settled.append((d, new_v, new_idx))
            # From round 2 on, a non-empty unit-step frontier is the
            # row settled in round d - 1.
            if (unit_steps and 1 < d < hop_limit
                    and np.array_equal(new_v, fr_v)
                    and np.array_equal(new_idx, fr_idx)):
                repeats = hop_limit - d
                # A strict overload raised in the first sending round,
                # so the round-1 links are never read here.
                charge_uniform_rounds(
                    net, repeats, repeats * total, size, (), ())
                break
            fr_v, fr_idx = new_v, new_idx

        tables: Dict[int, List[Optional[Value]]] = {
            u: [None] * (hop_limit + 1)
            for u in (range(n) if record is None else record)
        }
        for u, value in seeds.items():
            if record is None or u in record:
                tables[u][0] = value
        for d, verts, idxs in settled:
            if recorded is not None:
                mask = recorded[verts]
                verts, idxs = verts[mask], idxs[mask]
            for u, idx in zip(verts.tolist(), idxs.tolist()):
                tables[u][d] = (idx, aux_of[idx])
        if repeats:
            # ``d`` and ``verts`` still name the last, repeating row.
            for u in verts.tolist():
                row = tables[u]
                row[d + 1:] = [row[d]] * repeats
        return tables


# -- k-source hop BFS (Lemma 5.5) -------------------------------------------


@_kernel_span("multisource")
def multi_source_hop_bfs_vector(
    net,
    sources: Sequence[int],
    hop_limit: int,
    direction: str,
    avoid_edges: EdgeSet,
    delay: Optional[Callable[[int], int]],
    name: str,
    plan=None,
):
    """Whole-CSR rounds of the k-source hop BFS (Lemma 5.5).

    The per-vertex priority queue of the message path is equivalent to
    "announce the lexicographically smallest (distance, rank) pair not
    yet announced": stale heap entries can never become valid again,
    so the queue's valid entries are exactly the un-announced current
    distances.  The kernel keys each pair ``d·k + rank`` in two
    rank-major ``(k, n)`` matrices: ``best``, the key of the current
    distance (the cap ``(hop_limit + 1)·k`` while there is none), and
    ``pending``, that key while it is un-announced and the cap once it
    is.  A vertex's next announcement is then the minimum of its
    column, over k contiguous rows.

    One loop serves unit and delayed steps: a slot's candidate key is
    its sender's announced key plus ``k·min(step, hop_limit + 1)``,
    kept iff below the cap, i.e. iff ``d + step <= hop_limit``.  The
    clamp keeps every sum at most twice the cap, so keys, candidates
    and advances live in :func:`_key_dtype`'s width for the call (int16
    for the floods of an n ≈ 2000 solve); flat ``(rank, vertex)``
    indices stay int64.  The rank rides in the key, so keys compare as
    distances within a row.

    A round where more than half the vertices announce reads every
    column and gathers every CSR slot's sender key and row offset
    through a per-call slot -> sender array; a sparser round expands
    only its senders' slots.  Both are exact: a vertex that announces
    nothing has the cap as its column minimum, so none of its slots is
    kept or lowers a distance, and neither the message count, the
    per-pair minimum nor the first overloaded link depends on the
    order of the candidates.  After a dense round every column
    recomputes its minimum; after a sparse one an improved pair lowers
    its column's minimum in place and the senders' columns are
    recomputed, except where a per-vertex count of pending pairs says
    none is left.  That count lives only until the first dense round
    (its upkeep would cost each dense round a few passes).  Returns
    the C-contiguous ``(k, n)`` int64 distance table, which the
    landmark completion takes as it is;
    :func:`~repro.congest.multisource.multi_source_hop_bfs` lists it.
    """
    np = numpy_or_none()
    n = net.n
    k = len(sources)
    if k == 0:
        with net.ledger.phase(name):
            return []
    if plan is None:
        plan = net.topology.send_arrays(direction, avoid_edges, delay)
    indptr, indices, steps = plan
    size = HOP_MESSAGE_WORDS
    overload = net.strict and size > net.bandwidth_words
    cap = (hop_limit + 1) * k
    key_dtype = _key_dtype(np, cap)
    advance = (np.minimum(steps.astype(np.int64), hop_limit + 1)
               * k).astype(key_dtype)
    degree = np.diff(indptr)
    columns = np.arange(n)
    slot_sender = slot_target = None

    with net.ledger.phase(name):
        best = np.full((k, n), cap, dtype=key_dtype)
        ranks = np.arange(k)
        sources = np.asarray(sources, dtype=np.int64)
        best[ranks, sources] = ranks
        pending = best.copy()
        best_flat = best.reshape(-1)
        pending_flat = pending.reshape(-1)
        announce = pending.min(axis=0)
        #: At least each vertex's number of pending pairs (a pair two
        #: senders reach in one round counts twice), so a zero is exact.
        npend = np.bincount(sources, minlength=n)

        while True:
            live = announce < cap
            count = int(np.count_nonzero(live))
            if not count:
                break
            dense = 2 * count > n
            if dense:
                if slot_sender is None:
                    slot_sender = np.repeat(columns, degree)
                    slot_target = indices.astype(np.int64)
                # A silent vertex's cap names row 0 (k divides the
                # cap), whose pending entry is the cap already, and its
                # candidates fail every test below.
                rows = (announce - announce // k * k).astype(np.int64) * n
                pending_flat[rows + columns] = cap
                send_v, targets = slot_sender, indices
                cand = announce.take(slot_sender) + advance
                flat = rows.take(slot_sender) + slot_target
                npend = None
            else:
                senders = np.flatnonzero(live)
                keys = announce[senders]
                rows = (keys - keys // k * k).astype(np.int64) * n
                pending_flat[rows + senders] = cap
                counts = degree[senders]
                slots = _expand_ranges(np, indptr[senders], counts,
                                       int(counts.sum()))
                send_v = np.repeat(senders, counts) if overload else None
                cand = np.repeat(keys, counts) + advance[slots]
                targets = indices[slots]
                flat = np.repeat(rows, counts) + targets
            keep = cand < cap
            sent = int(np.count_nonzero(keep))
            _charge_uniform_round(net, sent, size)
            if sent and overload:
                _raise_first_overload(net, send_v[keep], targets[keep],
                                      size)
            # Only a candidate below the pre-round distance can lower
            # it, and it re-enters its vertex's queue.  Duplicate
            # (vertex, rank) hits in one round all pass this test when
            # any does, exactly like the sequential heap pushes — the
            # stale larger pushes are unobservable there, and keying
            # the pair by its reduced distance makes them unobservable
            # here.  A candidate that was not sent is at least the cap,
            # which no distance key exceeds: it fails the test too.
            # (Positions, not a mask: few candidates improve, and a
            # masked gather walks every candidate.)
            imp = np.flatnonzero(cand < best_flat.take(flat))
            flat, lower = flat.take(imp), cand.take(imp)
            np.minimum.at(best_flat, flat, lower)
            if dense:
                pending_flat[flat] = best_flat.take(flat)
                announce = pending.min(axis=0)
                continue
            hit = targets.take(imp)
            fresh = hit[pending_flat.take(flat) == cap]
            pending_flat[flat] = best_flat.take(flat)
            # An improved pair can only lower its vertex's minimum; a
            # sender's column lost its announced pair.  An improved
            # pair that was not pending is now, and a sender with no
            # pair left (so no improved one either) falls silent.
            np.minimum.at(announce, hit, lower)
            if npend is not None:
                npend[senders] -= 1
                np.add.at(npend, fresh, 1)
                idle = npend[senders] == 0
                announce[senders[idle]] = cap
                senders = senders[~idle]
            announce[senders] = pending[:, senders].min(axis=0)
        dist = np.floor_divide(best, k, dtype=np.int64)
        dist[dist > hop_limit] = INF
        return dist


# -- pipelined tree broadcast (Lemma 2.4) -----------------------------------

#: Payload field types whose word size the type alone fixes.
_FIXED_SIZE_FIELDS = frozenset((type(None), bool, int, float, Fraction))

#: Cells of the (origin, vertex) and (stem, origin) tables one chunk
#: of the broadcast makespan builds at a time.
_TOUR_CHUNK = 1 << 20


def _uniform_layout_size(items) -> Optional[int]:
    """The word size every ``(int origin, payload)`` item shares, when
    the payloads are tuples of one length and each field column holds
    one fixed-size type (strings: one length); else None."""
    payloads = list(map(itemgetter(1), items))
    if set(map(type, payloads)) != {tuple}:
        return None
    widths = set(map(len, payloads))
    if len(widths) != 1:
        return None
    size = 1  # the origin
    for field in range(widths.pop()):
        column = list(map(itemgetter(field), payloads))
        kinds = set(map(type, column))
        if len(kinds) != 1:
            return None
        kind = kinds.pop()
        if kind is str:
            if len(set(map(len, column))) != 1:
                return None
        elif kind not in _FIXED_SIZE_FIELDS:
            return None
        size += words_of(column[0])
    return size


def _broadcast_size_counts(items) -> Dict[int, int]:
    """Item count per word size of ``(int origin, payload)`` items.

    A batch of one shared layout is sized once, column by column
    (:func:`_uniform_layout_size`); any other batch is sized once per
    payload layout (field types, string fields keyed by length) where
    the layout fixes the size, else per item."""
    items = list(items)
    size = _uniform_layout_size(items) if items else None
    if size is not None:
        return {size: len(items)}
    sized: Dict[tuple, int] = {}
    counts: Dict[int, int] = {}
    for item in items:
        layout = (tuple([len(f) if type(f) is str else type(f)
                         for f in item[1]])
                  if type(item[1]) is tuple else None)
        size = sized.get(layout)
        if size is None:
            size = words_of(item)
            if layout is not None and all(
                    type(f) is int or f in _FIXED_SIZE_FIELDS
                    for f in layout):
                sized[layout] = size
        counts[size] = counts.get(size, 0) + 1
    return counts


def _tree_tour(np, tree):
    """``(tin, tout, depth, stems, first, leaves)`` of ``tree``, kept on
    the tree: v's subtree holds preorder positions ``[tin[v], tout[v])``;
    the leaves (tree degree 1, so the root when it has one child) come
    grouped by stem, their one neighbour, from ``first[g]`` for the
    ``g``-th stem in preorder."""
    if tree._tour is None:
        children, parent, root = tree.children, tree.parent, tree.root
        n = len(children)
        tin, tout = [0] * n, [0] * n
        clock, stack, leaves, stems = 0, [root], [], []
        while stack:
            v = stack.pop()
            if v < 0:
                tout[~v] = clock
                continue
            tin[v] = clock
            clock += 1
            if len(children[v]) == (v == root):
                leaves.append(v)
                stems.append(children[v][0] if v == root else parent[v])
            stack.append(~v)
            stack += children[v]
        tin = np.array(tin)
        stems = np.array(stems, dtype=np.int64)
        order = np.argsort(tin[stems], kind="stable")
        stems = stems[order]
        first = np.flatnonzero(np.diff(stems, prepend=-1))
        tree._tour = (tin, np.array(tout), np.array(tree.depth),
                      stems[first], first,
                      np.array(leaves, dtype=np.int64)[order])
    return tree._tour


def _broadcast_schedule(tree, item_counts: Sequence[int]) -> Tuple[int, int]:
    """Rounds and link crossings of the FIFO tree broadcast.

    Every item crosses each of the n − 1 tree links once.  The makespan
    is the maximum, over the leaves ℓ and σ ≥ 1, of σ − 1 plus the
    number of items whose origin lies at tree distance ≥ σ from ℓ:

    (a) The links upstream of a link (v→u) form an in-tree that carries
        only (v→u)'s own items, one per busy link per round.  So
        (v→u) idles in round t only when every item still to cross it
        started at least t hops from v, and its last departure is the
        maximum over τ of τ + #items on v's side at distance ≥ τ from
        v.
    (b) A non-backtracking step (v→u) → (u→w) raises that value by at
        least 1 (u's side holds v's, one hop further), so the maximum
        sits on a link into a leaf ℓ, from ℓ's stem s (its one tree
        neighbour): over τ = σ − 1 ≥ 0, τ + #items at distance ≥ τ
        from s, less ℓ's own items while τ ≤ 1.  Of the leaves of one
        stem, the one with the fewest own items bounds them all: one
        row per stem.

    The ancestors o shares with a stem are o's Euler-tour intervals
    ``tin[a] <= tin[o] < tout[a]`` that hold the stem's position: one
    cumulative sum per origin row.  Per stem, origins sorted by
    distance give running item counts; the last count of a tie is its
    largest, so ties need no order.
    """
    n = len(item_counts)
    items = sum(item_counts)
    if n < 2 or not items:
        return 0, 0
    np = numpy_or_none()
    tin, tout, depth, stems, first, leaves = _tree_tour(np, tree)
    at_stem = tin[stems]
    counts = np.asarray(item_counts, dtype=np.int64)
    spare = np.minimum.reduceat(counts[leaves], first)
    origins = np.flatnonzero(counts)
    weights = counts[origins]
    width = stems.size + 1
    dist = np.empty((stems.size, origins.size), dtype=np.int64)
    step = max(1, _TOUR_CHUNK // n)
    for lo in range(0, origins.size, step):
        chunk = origins[lo:lo + step]
        at = tin[chunk, None]
        rows, anc = np.nonzero((tin <= at) & (at < tout))
        rows *= width
        cells = chunk.size * width
        marks = (np.bincount(rows + np.searchsorted(at_stem, tin[anc]),
                             minlength=cells)
                 - np.bincount(rows + np.searchsorted(at_stem, tout[anc]),
                               minlength=cells))
        shared = marks.reshape(chunk.size, width).cumsum(axis=1)[:, :-1]
        dist[:, lo:lo + chunk.size] = (depth[stems, None] + depth[chunk]
                                       + 2 - 2 * shared.T)
    rounds = 0
    step = max(1, _TOUR_CHUNK // origins.size)
    for lo in range(0, stems.size, step):
        block = dist[lo:lo + step]
        order = np.argsort(-block, axis=1)
        far = np.take_along_axis(block, order, axis=1)
        ends = (far + weights[order].cumsum(axis=1)
                - spare[lo:lo + step, None] * (far <= 1))
        rounds = max(rounds, int(ends.max()))
    return rounds, items * (n - 1)


@_kernel_span("broadcast")
def broadcast_messages_vector(net, tree, messages, name: str):
    """The pipelined broadcast (Lemma 2.4), charged from its makespan.

    Each item crosses each of the n − 1 tree links once, and a busy
    link sends one item per round whatever its size, so the result and
    every ledger total but the makespan are fixed by the batch alone;
    the makespan is a maximum over the tree's leaves
    (:func:`_broadcast_schedule`).  (Strict batches with an oversized
    item take the message lane.)
    """
    with net.ledger.phase(name):
        all_messages = [(origin, payload) for origin in sorted(messages)
                        for payload in messages[origin]]
        item_counts = [0] * net.n
        for origin, payloads in messages.items():
            item_counts[origin] = len(payloads)
        sizes = _broadcast_size_counts(all_messages)
        rounds, crossings = _broadcast_schedule(tree, item_counts)
        links = net.n - 1
        net.ledger.charge_rounds(
            rounds, crossings,
            links * sum(size * count for size, count in sizes.items()),
            max(sizes, default=0),
            links * sum(count for size, count in sizes.items()
                        if size > net.bandwidth_words))
        return sorted(all_messages)


# -- local landmark closure and completion (Lemmas 5.4/5.6) -----------------


@_kernel_span("landmark_completion")
def landmark_completion_vector(net, pair_hops, from_len, to_len,
                               hop_limit=None):
    """Vectorized closure and completion of Lemmas 5.4/5.6 (local).

    The broadcast pair hops close under min-plus in k vectorized
    relaxations (Floyd–Warshall by pivot: row and column ``mid`` do not
    move while ``mid`` relaxes, because the diagonal is 0); then every
    vertex stitches its hop-bounded landmark distances with the
    closure, one row at a time.  With a ``hop_limit``, only *open* rows
    join: rows holding a finite entry at or above the limit.  Any other
    row of a unit-step hop table is already exact (its BFS ran out
    before the limit, so no closure sum is shorter) and comes back
    clamped as it went in; without one, every row is open.  The tables
    may be the k-source kernel's ``(k, n)`` arrays or lists of rows.

    This is ledger-free local work, so the only contract is value
    equality with ``repro.core.landmark_distances``.  The operands are
    lengths (non-negative), clamped at the INF sentinel (2^60) before
    any sum, so int64 sums are exact whatever integer table arrives.
    Returns the closure as lists (k × k words every vertex holds) and
    the two completed tables as ``(k, n)`` int64 arrays.  ``net`` is
    unused beyond the uniform dispatch signature (and the span join).
    """
    np = numpy_or_none()
    k = len(pair_hops)
    closure = np.minimum(np.asarray(pair_hops, dtype=np.int64), INF)
    np.fill_diagonal(closure, 0)
    for mid in range(k):
        np.minimum(closure, closure[:, mid, None] + closure[mid],
                   out=closure)
    completed = []
    # Row a of the from table joins closure row a; row a of the to
    # table joins closure column a.
    for table, pivots in ((from_len, closure), (to_len, closure.T)):
        lengths = np.minimum(np.asarray(table, dtype=np.int64), INF)
        if hop_limit is None:
            rows = range(k)
        else:
            rows = np.flatnonzero(((lengths >= hop_limit)
                                   & (lengths < INF)).any(axis=1)).tolist()
        # pivots[a][a] == 0, so the min-plus row already includes the
        # direct hop-bounded distance.  Every open row is joined before
        # any is written back, so each reads the table as it came.
        joined = [(a, (pivots[a][:, None] + lengths).min(axis=0))
                  for a in rows]
        for a, row in joined:
            np.minimum(row, INF, out=lengths[a])
        completed.append(lengths)
    return (closure.tolist(), *completed)


@_kernel_span("pairwise_min_sum")
def pairwise_min_sum_vector(net, m_rows, n_rows) -> List[int]:
    """``out[i] = clamp_inf(min_j m_rows[j][i] + n_rows[j][i])``.

    The Proposition 5.1 finish (ledger-free local computation) over the
    ``(k, h)`` tables the segment combine returns; the operands
    (non-negative lengths) are clamped at INF = 2^60 before the sum, so
    int64 sums are exact.  ``net`` is unused beyond the uniform dispatch
    signature (and the span join).
    """
    np = numpy_or_none()
    best = np.minimum(np.asarray(m_rows, dtype=np.int64), INF)
    best += np.minimum(np.asarray(n_rows, dtype=np.int64), INF)
    return np.minimum(best.min(axis=0), INF).tolist()


# -- Lemma 2.5 path-chain flood ----------------------------------------------

#: Wire size of the chain tokens: ("chain", origin, hops, dist).
CHAIN_MESSAGE_WORDS = words_of(("chain", 0, 0, 0))

#: Wire size of the Lemma 5.9 shift tokens: ("Nshift", j, value).
N_SHIFT_MESSAGE_WORDS = words_of(("Nshift", 0, 0))


@_kernel_span("chain_flood")
def chain_flood_vector(
    net,
    path: Sequence[int],
    sampled: Sequence[int],
    prefix: Sequence[int],
) -> Dict[int, tuple]:
    """The Lemma 2.5 step-2 flood, computed from gap arithmetic.

    Charges within the caller's open phase (``knowledge(L2.5)``), like
    the inline round loop it replaces.  Tokens advance in lockstep, one
    per path link, so round ``r`` carries one ``CHAIN_MESSAGE_WORDS``
    message per sampled gap of length ≥ r; the records every position
    learns are pure prefix-weight differences.  Sampled positions are
    O(√n) w.h.p., so this is cheap scalar arithmetic — the point is
    skipping the O(max gap) per-token exchange rounds, not NumPy.
    """
    gaps = [b - a for a, b in zip(sampled, sampled[1:])]
    rounds = max(gaps, default=0)
    total = sum(gaps)
    senders = [path[a] for a in sampled[:-1]]
    targets = [path[a + 1] for a in sampled[:-1]]
    charge_uniform_rounds(net, rounds, total, CHAIN_MESSAGE_WORDS,
                           senders, targets)
    from_left: Dict[int, tuple] = {}
    for a, b in zip(sampled, sampled[1:]):
        origin = path[a]
        base = prefix[a]
        for pos in range(a + 1, b + 1):
            from_left[pos] = (origin, pos - a, prefix[pos] - base)
    return from_left


# -- Lemmas 4.3/4.4 descending DP pipeline (Prop 4.1 Stages 2-3) ------------

#: Wire size of the Stage-3 tokens: ("dp", X value).
DP_MESSAGE_WORDS = words_of(("dp", 0))


@_kernel_span("dp_sweep")
def dp_sweep_vector(
    net,
    path: Sequence[int],
    tables: Sequence[List[Optional[Value]]],
    hop_count: int,
    zeta: int,
    name: str,
) -> List[int]:
    """Lemma 4.3 and the ζ−1 descending rounds of Lemma 4.4 as arrays.

    Each row's first hit on each later index j ≤ h_st within ζ hops is
    one candidate: row i, offset min(j − i, ζ) (a hit beyond the ζ
    window counts for every X[i, ≥ i+d] the DP reads, d ≤ ζ), value
    h_st − (j − i) + d.  As d descends from ζ, one ``np.minimum.at``
    folds the offset-d candidates into the running column
    X[·, ≥ ·+d], and the prefix-closed recurrence
    X[≤ i, ≥ i+d−1] = min(X[≤ i−1, ≥ i+d], X[i, ≥ i+d−1]) is one
    shifted minimum: memory is O(h_st + candidates).  Every round
    moves exactly ``hop_count`` two-word tokens, one per P-edge, so
    the whole schedule bulk-charges.
    """
    np = numpy_or_none()
    h = hop_count
    rows: List[int] = []
    hits: List[int] = []
    hops: List[int] = []
    for i, row in enumerate(tables):
        top = min(zeta, len(row) - 1)
        if top < 1 or row.count(None) + (row[0] is not None) >= len(row):
            continue
        first = set()
        d = 1
        for entry, run in groupby(row[1:top + 1]):
            if entry is not None:
                j = entry[0]
                if i < j <= h and j not in first:
                    first.add(j)
                    rows.append(i)
                    hits.append(j)
                    hops.append(d)
            d += len(list(run))
    row_a = np.array(rows, dtype=np.int64)
    gap = np.array(hits, dtype=np.int64) - row_a
    offset = np.minimum(gap, zeta)
    order = np.argsort(offset, kind="stable")
    offset, row_a = offset[order], row_a[order]
    value = (h - gap + np.array(hops, dtype=np.int64))[order]
    # bounds[d]:bounds[d + 1] slices the offset-d candidates.
    bounds = np.searchsorted(offset, np.arange(min(zeta, h) + 2))

    running = np.full(h + 1, INF, dtype=np.int64)

    def fold(d: int) -> None:
        if d < bounds.size - 1 and bounds[d] < bounds[d + 1]:
            lo, hi = bounds[d], bounds[d + 1]
            np.minimum.at(running, row_a[lo:hi], value[lo:hi])

    with net.ledger.phase(name):
        rounds = max(0, zeta - 1)
        charge_uniform_rounds(net, rounds, rounds * h, DP_MESSAGE_WORDS,
                               path[:h], path[1:h + 1])
        fold(zeta)
        best = running.copy()
        for d in range(zeta, 1, -1):
            fold(d - 1)
            np.minimum(best[:-1], running[1:], out=best[1:])
            best[0] = running[0]
        return best.tolist()


# -- pipelined segment sweeps (Lemmas 5.7/5.9) -------------------------------

#: Wire size of a sweep token: ("sweep", carried int).
SWEEP_MESSAGE_WORDS = words_of(("sweep", 0))


@_kernel_span("path_sweeps")
def run_path_sweeps_vector(net, path, tasks, segments, name: str):
    """The Lemma 5.7/5.9 segment grid, charged in bulk.

    Returns ``(carried, finals)`` (see
    :class:`~repro.congest.pipeline.SegmentSweeps`; ``tasks`` is empty
    here).  The FIFO pipeline of one segment is closed-form (its token
    j crosses the segment's link m in round j + 1 + m), so the ledger
    bulk-charges the makespan and total token-hops.  The values are
    one running minimum per segment over the ``(k, h_st + 1)`` local
    rows, built from the table's path columns.  The operands (the
    table's lengths and the path offsets, non-negative) are clamped at
    INF before the sum, so int64 sums are exact whatever integer table
    arrives.
    """
    np = numpy_or_none()
    checkpoints = segments.checkpoints
    rightward = segments.rightward
    # The table is the completion's (k, n) int64 array: asarray copies
    # nothing, and only the h_st + 1 path columns are gathered.
    local = np.asarray(segments.table, dtype=np.int64)[:, path]
    np.minimum(local, INF, out=local)
    local += np.minimum(np.asarray(segments.offset, dtype=np.int64), INF)
    np.minimum(local, INF, out=local)
    k, positions = local.shape
    num_segments = len(checkpoints) - 1
    starts = checkpoints[:-1] if rightward else checkpoints[1:]
    step = 1 if rightward else -1
    with net.ledger.phase(name):
        charge_uniform_rounds(
            net, k - 1 + max(np.diff(checkpoints).tolist()),
            k * (checkpoints[-1] - checkpoints[0]), SWEEP_MESSAGE_WORDS,
            [path[p] for p in starts], [path[p + step] for p in starts])
        carried = np.empty((k, positions - 1), dtype=np.int64)
        finals = np.empty((k, num_segments), dtype=np.int64)
        for g in range(num_segments):
            left, right = checkpoints[g], checkpoints[g + 1]
            block = local[:, left:right + 1]
            if rightward:
                run = np.minimum.accumulate(block, axis=1)
                carried[:, left:right] = run[:, :-1]
                finals[:, g] = run[:, -1]
            else:
                # Suffix minima: position p's entry is the token's
                # value on leaving v_p, i.e. crossing edge p - 1.
                run = np.minimum.accumulate(block[:, ::-1], axis=1)[:, ::-1]
                carried[:, left:right] = run[:, 1:]
                finals[:, g] = run[:, 0]
        return carried, finals.tolist()


# -- BFS spanning-tree flood -------------------------------------------------

#: Wire size of the flood control messages: ("offer",) / ("adopt",).
TREE_MESSAGE_WORDS = words_of(("offer",))

#: Frontier size from which a BFS level steps as one CSR gather.
#: Every level of solve-longpath's path-like graph is narrower, and an
#: expander(2048)'s are wider from depth 3 on.
_WIDE_FRONTIER = 64


@_kernel_span("spanning_tree")
def spanning_tree_flood_vector(net, root: int, name: str):
    """The BFS spanning-tree flood, charged from the BFS layering.

    Opens phase ``name`` and returns ``(parent, depth)`` lists (``-1``
    marks unreached vertices; the caller raises the disconnection
    error and assembles the tree).  Each level of the message lane
    costs an offers round (one 1-word message per link from a frontier
    vertex to an unreached neighbour, one level deeper) and a
    confirmation round (one per adopted vertex), and a vertex adopts
    its smallest offering neighbour.  So one BFS gives the whole
    charge, and one pass over the receiver-major link slots (senders
    ascending) the parents.  A level steps in Python over list copies
    of the exported neighbour arrays while its frontier is narrower
    than ``_WIDE_FRONTIER``, else as one CSR gather; both share one
    depth buffer.  (The copies cost one ``tolist`` per call, where the
    topology's ``nbr_lists`` view costs a pass over every edge.)
    """
    np = numpy_or_none()
    arr = net.topology.arrays()
    indptr, indices = arr.nbr_indptr, arr.nbr_indices
    ptr, nbrs = indptr.tolist(), indices.tolist()
    depth_of = array("q", [-1]) * net.n
    depth = np.frombuffer(depth_of, dtype=np.int64)
    depth_of[root] = 0
    frontier, level, adopted = [root], 0, 0
    while len(frontier):
        level += 1
        if type(frontier) is list:
            found = {v for u in frontier for v in nbrs[ptr[u]:ptr[u + 1]]
                     if depth_of[v] < 0}
            for v in found:
                depth_of[v] = level
            frontier = (list(found) if len(found) < _WIDE_FRONTIER
                        else np.fromiter(found, np.int64, len(found)))
        else:
            counts = indptr[frontier + 1] - indptr[frontier]
            targets = indices[_expand_ranges(
                np, indptr[frontier], counts, int(counts.sum()))]
            found = np.sort(targets[depth[targets] < 0])
            found = found[np.diff(found, prepend=-1) != 0]
            depth[found] = level
            frontier = (found.tolist() if found.size < _WIDE_FRONTIER
                        else found)
        adopted += len(frontier)
    # Link slot i runs indices[i] -> link_receiver[i].  An unreached
    # sender (depth -1) neighbours no reached vertex: it offers nothing.
    receivers = arr.link_receiver
    offers = np.flatnonzero(depth[receivers] == depth[indices] + 1)
    offered = receivers[offers]
    first = np.diff(offered, prepend=-1) != 0
    parent = np.full(net.n, -1, dtype=np.int64)
    parent[offered[first]] = indices[offers[first]]
    parent[root] = root
    with net.ledger.phase(name):
        charge_uniform_rounds(net, 2 * (level - 1), offers.size + adopted,
                              TREE_MESSAGE_WORDS,
                              [root] * (ptr[root + 1] - ptr[root]),
                              nbrs[ptr[root]:ptr[root + 1]])
    return parent.tolist(), depth.tolist()


@_kernel_span("n_shift")
def n_shift_vector(net, path: Sequence[int], hop_count: int,
                   checkpoints: Sequence[int], prefix, suffix, m_seg,
                   n_seg):
    """The Lemma 5.8/5.9 combine and one-hop shift as array operations.

    Charges within the caller's open phase (``N-shift``).  Each edge's
    running minima meet the exclusive prefix (M) or suffix (N) minimum
    of the broadcast segment summaries, repeated over the segment's
    edges.  Every shift round moves exactly ``hop_count`` three-word
    tokens one hop leftward and the shifted row is already local
    knowledge, so the whole k-round schedule bulk-charges and N needs
    no move at all: it is indexed by edge.  Only minima are taken, so
    any int64 operand is exact.  Returns ``(M, N)`` as ``(k, h_st)``
    int64 arrays.
    """
    np = numpy_or_none()
    h = hop_count
    prefix = np.asarray(prefix, dtype=np.int64)
    suffix = np.asarray(suffix, dtype=np.int64)
    k = prefix.shape[0]
    charge_uniform_rounds(net, k, k * h, N_SHIFT_MESSAGE_WORDS,
                          path[1:h + 1], path[:h])
    lengths = np.diff(checkpoints)
    inf_row = np.full((1, k), INF, dtype=np.int64)
    m_seg = np.asarray(m_seg, dtype=np.int64).reshape(-1, k)
    n_seg = np.asarray(n_seg, dtype=np.int64).reshape(-1, k)
    # Row g: the minimum over the segments before (after) segment g.
    before = np.concatenate(
        (inf_row, np.minimum.accumulate(m_seg, axis=0)))[:-1]
    after = np.concatenate(
        (np.minimum.accumulate(n_seg[::-1], axis=0)[::-1], inf_row))[1:]
    m_final = np.minimum(prefix, np.repeat(before.T, lengths, axis=1))
    n_final = np.minimum(suffix, np.repeat(after.T, lengths, axis=1))
    return m_final, n_final
