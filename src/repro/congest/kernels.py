"""NumPy array kernels: whole-frontier CONGEST rounds without messages.

``fabric="vector"`` keeps the batched exchange engine for explicit
``exchange`` calls, but routes **every round loop of the Theorem 1
solver** through whole-structure computation over the frozen CSR
arrays (:meth:`~repro.congest.topology.CSRTopology.arrays` /
:meth:`~repro.congest.topology.CSRTopology.send_arrays`): the pruned
hop-BFS of Lemma 4.2, the k-source hop BFS of Lemma 5.5, the
pipelined tree broadcast of Lemma 2.4 (an exact makespan from each tree
link's busy periods), the Lemma 2.5 path-chain flood, the descending
ζ-round DP pipeline of Lemma 4.4, the segment prefix/suffix sweeps of
Lemmas 5.7/5.9 and their one-hop shift, and the BFS spanning-tree
flood.  One synchronous round becomes a handful of vectorized
operations (frontier gathers via CSR range expansion, delay-shifted
scheduling buckets, segmented max/min via
``np.maximum.at``/``np.minimum.at``) instead of one Python tuple per
(sender, target) pair — and closed-form schedules (chain gaps, DP
rounds, disjoint sweep groups, broadcast makespans, the repeating
tail of the pruned hop-BFS once its unit-step state reaches a fixed
point) charge whole executions in bulk via
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
NumPy present, no key-encoding overflow, declarative sweep tasks) are
declared as per-primitive constraints in the registry of
:mod:`repro.congest.dispatch`, whose :func:`~repro.congest.dispatch.
dispatch` entry point routes every call and falls back to the message
path on the first failing constraint.  (The historical applicability
predicates lived here as deprecated shims for one release; they are
gone — the registry is the only gatekeeper.)

NumPy is imported lazily (module import never touches it), so the
message engines remain importable — and fully functional — without it.

The topology exports the kernels gather over follow the int32 memory
diet (:class:`~repro.congest.topology.TopologyArrays`): indptr/
indices/steps arrive as int32 whenever the value ranges permit and
are **read-only**.  Kernels treat them as addressing data; any
arithmetic that can outgrow int32 (hop sums against the budget, key
encodings ``d·k + rank``) is performed in int64, upcasting at the
gather site.  Value/distance arrays (INF sentinels at 2^60) always
stay int64.

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
from fractions import Fraction
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
) -> List[List[int]]:
    """Whole-frontier rounds of the k-source hop BFS (Lemma 5.5).

    The per-vertex priority queue of the message path is equivalent to
    "announce the lexicographically smallest (distance, rank) pair not
    yet announced": stale heap entries can never become valid again,
    so the queue's valid entries are exactly the un-announced current
    distances.  The kernel keeps vertex-major ``(n, k)`` matrices: the
    distances, and a key matrix holding ``d·k + rank`` while the pair
    is un-announced and the cap ``(hop_limit + 1)·k`` once it is, so a
    vertex's next announcement is the minimum of one contiguous row.
    After each round only the rows it touched (senders and improved
    targets) recompute that minimum — or the whole matrix does, when
    the round touched more than half the rows.
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
    unit_steps = delay is None or bool((steps == 1).all())
    # Valid queue entries all have distance <= hop_limit, so
    # (hop_limit + 1)·k is a safe (non-overflowing) key cap.
    key_cap = (hop_limit + 1) * k

    with net.ledger.phase(name):
        dist = np.full((n, k), INF, dtype=np.int64)
        key = np.full((n, k), key_cap, dtype=np.int64)
        ranks = np.arange(k, dtype=np.int64)
        src = np.asarray(sources, dtype=np.int64)
        dist[src, ranks] = 0
        key[src, ranks] = ranks  # d == 0: the key is the rank
        dist_flat = dist.reshape(-1)
        key_flat = key.reshape(-1)
        best_key = key.min(axis=1)

        while True:
            senders = np.nonzero(best_key < key_cap)[0]
            if not senders.size:
                break
            best = best_key[senders]
            d_s = best // k
            rank_s = best % k
            key_flat[senders * k + rank_s] = key_cap  # announced

            if unit_steps:
                # The hop-budget prune is per sender, not per edge:
                # filter before the CSR expansion.
                ok = d_s < hop_limit
                send_v = senders[ok]
                counts = indptr[send_v + 1] - indptr[send_v]
                sent = int(counts.sum())
                if sent:
                    slots = _expand_ranges(np, indptr[send_v], counts,
                                           sent)
                    target_e = indices[slots]
                    cand = np.repeat(d_s[ok] + 1, counts)
                    rank_e = np.repeat(rank_s[ok], counts)
            else:
                counts = indptr[senders + 1] - indptr[senders]
                total = int(counts.sum())
                if total:
                    slots = _expand_ranges(np, indptr[senders], counts,
                                           total)
                    cand = np.repeat(d_s, counts) + steps[slots]
                    keep = cand <= hop_limit
                    sent = int(keep.sum())
                    if sent:
                        send_v = np.repeat(senders, counts)[keep]
                        target_e = indices[slots][keep]
                        cand = cand[keep]
                        rank_e = np.repeat(rank_s, counts)[keep]
                else:
                    sent = 0
            _charge_uniform_round(net, sent, size)
            if sent and overload:
                _raise_first_overload(
                    net,
                    np.repeat(send_v, counts) if unit_steps else send_v,
                    target_e, size)
            touched = senders
            if sent:
                flat = target_e * k + rank_e
                before = dist_flat[flat]
                np.minimum.at(dist_flat, flat, cand)
                # A candidate below the pre-round distance re-enters
                # its vertex's queue.  Duplicate (vertex, rank) hits in
                # one round all pass this test when any does, exactly
                # like the sequential heap pushes — the stale larger
                # pushes are unobservable there, and keying the pair
                # by its reduced distance makes them unobservable here.
                imp = cand < before
                fi = flat[imp]
                if fi.size:
                    key_flat[fi] = dist_flat[fi] * k + rank_e[imp]
                    touched = np.concatenate((senders, target_e[imp]))
            if 2 * touched.size > n:
                best_key = key.min(axis=1)
            else:
                best_key[touched] = key[touched].min(axis=1)
        return dist.T.tolist()


# -- pipelined tree broadcast (Lemma 2.4) -----------------------------------

#: Payload field types whose word size the type alone fixes.
_FIXED_SIZE_FIELDS = frozenset((type(None), bool, int, float, Fraction))

#: A directed tree link's departures ``(shift, periods, items)``: busy
#: in rounds ``[first + shift, last + shift]`` for each pair of the flat
#: ``periods = [first, last, ...]``, ``items`` in all; None when idle.
Link = Optional[Tuple[int, List[int], int]]


def _broadcast_size_counts(items) -> Dict[int, int]:
    """Item count per word size of ``(int origin, payload)`` items,
    sized once per payload layout (field types, string fields keyed by
    length) where the layout fixes the size, else per item."""
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


def _arrivals(feeds: List[Link]) -> List[int]:
    """Sorted arrival-rate events of what the busy ``feeds`` deliver.

    A departure in round r is forwarded from round r + 1 on: a busy
    period ``[first, last]`` adds one item per round from round
    ``first + 1`` (event ``2(first + 1) + 1``) until round ``last + 2``
    (event ``2(last + 2)``).  ``event ^ 1`` negates an event.
    """
    events: List[int] = []
    for shift, periods, _ in feeds:
        fed = [2 * (r + shift) + 3 for r in periods]
        fed[1::2] = [e + 1 for e in fed[1::2]]
        events += fed
    return sorted(events)


def _link(queued: int, feeds: List[Link], events=None) -> Link:
    """Departures of a unit-rate FIFO link holding ``queued`` items in
    round 1, fed by ``feeds`` (or by the arrival ``events``).  Between
    rate changes the Lindley recursion is closed-form: a positive rate
    keeps the link busy and grows its queue by ``rate - 1`` per round,
    a zero rate drains it."""
    if events is None:
        if not feeds:
            return (0, [1, queued], queued) if queued else None
        if len(feeds) == 1 and not queued:  # each item leaves next round
            shift, periods, items = feeds[0]
            return shift + 1, periods, items
        events = _arrivals(feeds)
    periods: List[int] = []
    t, rate, items = 1, 0, 0
    for event in events + [1 << 64]:
        time = event >> 1
        if time > t:
            busy = time - t if rate or queued > time - t else queued
            queued += rate * (time - t) - busy
            if busy:
                items += busy
                if periods and periods[-1] == t - 1:
                    periods[-1] = t + busy - 1
                else:
                    periods += (t, t + busy - 1)
            t = time
        rate += 1 if event & 1 else -1
    return (0, periods, items) if periods else None


def _broadcast_schedule(tree, item_counts: Sequence[int]) -> Tuple[int, int]:
    """Rounds and link crossings of the FIFO tree broadcast.

    Link (v→u) serves v's own items from round 1 and each departure of
    (w→v), w ≠ u, one round later.  No link feeds its own reverse, so
    upward links resolve leaves first, downward links root first.  A
    vertex's downward links share its merged arrivals less the reverse
    link's, so a hub costs one merge per busy child, not deg².
    """
    children = tree.children
    order = [tree.root]
    for v in order:
        order.extend(children[v])
    up: List[Link] = [None] * len(order)  # up[v]: (v → parent)
    down: List[Link] = [None] * len(order)  # down[v]: (parent → v)
    for v in reversed(order[1:]):
        up[v] = _link(item_counts[v], [up[c] for c in children[v] if up[c]])
    for p in order:
        feeds = [up[c] for c in children[p] if up[c]]
        if down[p]:
            feeds.append(down[p])
        merged = idle = None
        for c in children[p]:
            own = up[c]
            if not own:
                if idle is None:
                    idle = _link(item_counts[p], feeds)
                down[c] = idle
            elif len(feeds) <= 2:
                down[c] = _link(item_counts[p],
                                [f for f in feeds if f is not own])
            else:
                if merged is None:
                    merged = _arrivals(feeds)
                withheld = [e ^ 1 for e in _arrivals([own])]
                down[c] = _link(item_counts[p], [],
                                sorted(merged + withheld))
    links = [link for link in up + down if link]
    return (max((s + periods[-1] for s, periods, _ in links), default=0),
            sum(link[2] for link in links))


@_kernel_span("broadcast")
def broadcast_messages_vector(net, tree, messages, name: str):
    """The pipelined broadcast (Lemma 2.4), charged from its makespan.

    Each item crosses each of the n − 1 tree links once, and a busy
    link sends one item per round whatever its size, so the result and
    every ledger total but the makespan are fixed by the batch alone.
    (Strict batches with an oversized item take the message lane.)
    """
    with net.ledger.phase(name):
        all_messages = [(origin, payload) for origin in sorted(messages)
                        for payload in messages[origin]]
        item_counts = [0] * net.n
        for origin, _ in all_messages:
            item_counts[origin] += 1
        sizes = _broadcast_size_counts(all_messages)
        rounds, crossings = _broadcast_schedule(tree, item_counts)
        links = net.n - 1
        assert crossings == len(all_messages) * links, \
            "broadcast schedule lost items"
        net.ledger.charge_rounds(
            rounds, crossings,
            links * sum(size * count for size, count in sizes.items()),
            max(sizes, default=0),
            links * sum(count for size, count in sizes.items()
                        if size > net.bandwidth_words))
        return sorted(all_messages)


# -- local landmark completion (Lemma 5.6) ----------------------------------


@_kernel_span("landmark_completion")
def landmark_completion_vector(net, closure, from_len, to_len):
    """Vectorized min-plus completion of Lemma 5.6 (local computation).

    Every vertex stitches its hop-bounded landmark distances with the
    broadcast closure; this is ledger-free local work, so the only
    contract is value equality with the scalar loops in
    ``repro.core.landmark_distances``.  All operands are bounded by
    the INF sentinel (2^60), so int64 sums are exact.  ``net`` is
    unused beyond the uniform dispatch signature (and the span join).
    """
    np = numpy_or_none()
    k = len(closure)
    closure_m = np.asarray(closure, dtype=np.int64)
    from_m = np.asarray(from_len, dtype=np.int64)
    to_m = np.asarray(to_len, dtype=np.int64)
    from_out = []
    to_out = []
    for a in range(k):
        # closure[a][a] == 0, so the min-plus row already includes the
        # direct hop-bounded distance the scalar loops seed with.
        best_f = (closure_m[a][:, None] + from_m).min(axis=0)
        best_t = (closure_m[:, a][:, None] + to_m).min(axis=0)
        from_out.append(np.where(best_f >= INF, INF, best_f).tolist())
        to_out.append(np.where(best_t >= INF, INF, best_t).tolist())
    return from_out, to_out


@_kernel_span("pairwise_min_sum")
def pairwise_min_sum_vector(net, m_rows, n_rows) -> List[int]:
    """``out[i] = clamp_inf(min_j m_rows[j][i] + n_rows[j][i])``.

    The Proposition 5.1 finish (ledger-free local computation); operands
    are clamped at INF = 2^60, so int64 sums are exact.  ``net`` is
    unused beyond the uniform dispatch signature (and the span join).
    """
    np = numpy_or_none()
    best = (np.asarray(m_rows, dtype=np.int64)
            + np.asarray(n_rows, dtype=np.int64)).min(axis=0)
    return np.where(best >= INF, INF, best).tolist()


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


# -- Lemma 4.4 descending DP pipeline (Prop 4.1 Stage 3) ---------------------

#: Wire size of the Stage-3 tokens: ("dp", X value).
DP_MESSAGE_WORDS = words_of(("dp", 0))


@_kernel_span("dp_sweep")
def dp_sweep_vector(
    net,
    path: Sequence[int],
    x_geq: Sequence[Dict[int, int]],
    hop_count: int,
    zeta: int,
    name: str,
) -> List[int]:
    """The ζ−1 descending rounds of Lemma 4.4 as array shifts.

    Every round moves exactly ``hop_count`` two-word tokens, one per
    P-edge, so the whole schedule bulk-charges; the prefix-closed
    recurrence X[≤ i, ≥ i+d−1] = min(X[≤ i−1, ≥ i+d], X[i, ≥ i+d−1])
    is one shifted elementwise minimum per descending d.
    """
    np = numpy_or_none()
    h = hop_count

    def column(d: int):
        return np.fromiter(
            ((x_geq[i].get(i + d, INF) if i + d <= h else INF)
             for i in range(h + 1)),
            dtype=np.int64, count=h + 1)

    with net.ledger.phase(name):
        rounds = max(0, zeta - 1)
        charge_uniform_rounds(net, rounds, rounds * h, DP_MESSAGE_WORDS,
                               path[:h], path[1:h + 1])
        best = column(zeta)
        inf_head = np.full(1, INF, dtype=np.int64)
        for d in range(zeta, 1, -1):
            shifted = np.concatenate((inf_head, best[:-1]))
            best = np.minimum(shifted, column(d - 1))
        return best.tolist()


# -- pipelined path sweeps (Lemmas 4.4/5.7/5.9 engine) -----------------------

#: Wire size of a sweep token: ("sweep", carried int).
SWEEP_MESSAGE_WORDS = words_of(("sweep", 0))


@_kernel_span("path_sweeps")
def run_path_sweeps_vector(net, path, tasks, name: str) -> Dict:
    """Whole-schedule sweeps: returns ``{key: (final, trace)}``.

    The FIFO pipeline of one start-group is closed-form (token j
    crosses link m in round j + 1 + m), so the ledger bulk-charges the
    makespan and total token-hops; values are running minima of each
    task's ``local_min`` table along the visited positions — one
    ``np.minimum.accumulate`` per task.
    """
    np = numpy_or_none()
    with net.ledger.phase(name):
        out: Dict = {}
        groups: Dict[Tuple[int, int], List] = {}
        for task in tasks:
            if task.start == task.end:
                trace = {task.start: task.init} if task.deposit else {}
                out[task.key] = (task.init, trace)
                continue
            direction = 1 if task.end > task.start else -1
            groups.setdefault((task.start, direction), []).append(task)

        rounds = 0
        total = 0
        first_senders: List[int] = []
        first_targets: List[int] = []
        for (start, direction), members in groups.items():
            for j, task in enumerate(members):
                length = abs(task.end - task.start)
                total += length
                if j + length > rounds:
                    rounds = j + length
            first_senders.append(path[start])
            first_targets.append(path[start + direction])
        charge_uniform_rounds(net, rounds, total, SWEEP_MESSAGE_WORDS,
                               first_senders, first_targets)

        tables: Dict[int, object] = {}
        for (start, direction), members in groups.items():
            for task in members:
                table = tables.get(id(task.local_min))
                if table is None:
                    table = tables[id(task.local_min)] = np.asarray(
                        task.local_min, dtype=np.int64)
                if direction == 1:
                    seg = table[start + 1: task.end + 1]
                else:
                    seg = table[task.end: start][::-1]
                values = np.minimum(
                    task.init, np.minimum.accumulate(seg)).tolist()
                trace = {}
                if task.deposit:
                    trace[start] = task.init
                    pos = start
                    for value in values:
                        pos += direction
                        trace[pos] = value
                out[task.key] = (values[-1], trace)
        return out


# -- BFS spanning-tree flood -------------------------------------------------

#: Wire size of the flood control messages: ("offer",) / ("adopt",).
TREE_MESSAGE_WORDS = words_of(("offer",))


@_kernel_span("spanning_tree")
def spanning_tree_flood_vector(net, root: int, name: str):
    """Whole-frontier rounds of the BFS spanning-tree flood.

    Opens phase ``name`` and returns ``(parent, depth)`` lists (``-1``
    marks unreached vertices; the caller raises the disconnection
    error and assembles the tree).  Each level costs two rounds
    exactly like the message path: an offers round (one 1-word message
    per (frontier vertex, unreached neighbor) link) and a confirmation
    round (one per adopted vertex); adoption picks the smallest
    offering neighbor via a segmented minimum.
    """
    np = numpy_or_none()
    n = net.n
    arr = net.topology.arrays()
    indptr, indices = arr.nbr_indptr, arr.nbr_indices
    size = TREE_MESSAGE_WORDS
    overload = net.strict and size > net.bandwidth_words
    with net.ledger.phase(name):
        depth = np.full(n, -1, dtype=np.int64)
        parent = np.full(n, -1, dtype=np.int64)
        depth[root] = 0
        parent[root] = root
        #: per-vertex smallest offering neighbor (n = "no offer yet").
        chosen = np.full(n, n, dtype=np.int64)
        frontier = np.asarray([root], dtype=np.int64)
        level = 0
        while frontier.size:
            counts = indptr[frontier + 1] - indptr[frontier]
            total = int(counts.sum())
            if not total:
                break
            slots = _expand_ranges(np, indptr[frontier], counts, total)
            targets = indices[slots]
            unreached = depth[targets] < 0
            offer_targets = targets[unreached]
            if not offer_targets.size:
                break
            offer_senders = np.repeat(frontier, counts)[unreached]
            _charge_uniform_round(net, int(offer_targets.size), size)
            if overload:
                _raise_first_overload(net, offer_senders, offer_targets,
                                      size)
            np.minimum.at(chosen, offer_targets, offer_senders)
            adopted = np.unique(offer_targets)
            parent[adopted] = chosen[adopted]
            depth[adopted] = level + 1
            _charge_uniform_round(net, int(adopted.size), size)
            frontier = adopted
            level += 1
        return parent.tolist(), depth.tolist()


@_kernel_span("n_shift")
def n_shift_vector(net, path: Sequence[int], rows,
                   hop_count: int) -> List[List[int]]:
    """The Lemma 5.9 one-hop leftward shift, charged in bulk.

    Charges within the caller's open phase (``N-shift``).  Every round
    moves exactly ``hop_count`` three-word tokens one hop leftward and
    the shifted row is already local knowledge, so the whole k-round
    schedule bulk-charges and the result is pure slicing.
    """
    h = hop_count
    k = len(rows)
    charge_uniform_rounds(net, k, k * h, N_SHIFT_MESSAGE_WORDS,
                          path[1:h + 1], path[:h])
    return [list(row[1:h + 1]) for row in rows]
