"""Batched CONGEST message delivery over flat per-link buffers.

:func:`exchange_batch` is the fabric behind
:meth:`~repro.congest.network.CongestNetwork.exchange`.  One call
executes one synchronous round:

* every message is routed to its *directed link id* with a single
  int-keyed dict probe (no tuple allocation, no tuple hashing);
* payloads accumulate in per-link buffers allocated **once** in
  :class:`FabricState` and recycled every round — the pre-fabric
  engine rebuilt tuple-keyed dicts per round, which dominated the
  profile on message-heavy schedules;
* word counts accumulate in a flat ``int`` array indexed by link id;
* delivery sorts the *touched link ids* (a C-speed int sort).  Link
  ids are receiver-major with senders ascending
  (see :class:`~repro.congest.topology.CSRTopology`), so the resulting
  inbox lists replicate the validated engine's deterministic
  sorted-sender order without ever sorting messages.

Validation rides the link-index probe instead of a per-message check
of the model: algorithms address only topology neighbors by
construction, so the probe almost always hits.  A failed probe raises
the proper :class:`~repro.congest.errors.UnknownVertexError` /
:class:`~repro.congest.errors.NotALinkError` through a cold diagnostic
branch.  The probe key ``sender * n + receiver`` is unique only for an
in-range receiver (``1 * 3 + 3`` is also ``2 * 3 + 0``), so a hit
costs one range comparison more; an in-range receiver makes any
out-of-range sender miss.  Model violations therefore never pass
silently and never land on another link.

The fabric is byte-identical to the reference engine in delivered
inboxes, word counts, and ledger contents — asserted by
``tests/test_fabric_equivalence.py`` and benchmarked by
``benchmarks/bench_fabric.py``.

:func:`exchange_reference` preserves the pre-fabric per-message engine
verbatim.  It is the semantic oracle for the equivalence suite and the
baseline the perf-regression CI gate measures speedups against.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .errors import BandwidthExceededError, NotALinkError, UnknownVertexError
from .metrics import RoundLedger
from .topology import CSRTopology
from .words import words_of

Inbox = Dict[int, List[Tuple[int, object]]]


class FabricState:
    """Per-network exchange buffers, allocated once and recycled.

    Hoisting these out of ``exchange`` is what lets the batched fabric
    stop paying per-round allocation: buffers are cleared
    link-by-link after delivery (only links actually touched), so an
    idle round costs nothing and a busy round costs O(messages).
    """

    __slots__ = ("link_payloads", "link_words")

    def __init__(self, topology: CSRTopology) -> None:
        self.link_payloads: List[List[object]] = [
            [] for _ in range(topology.num_dirlinks)
        ]
        self.link_words: List[int] = [0] * topology.num_dirlinks


def _payload_words(payload: object) -> int:
    """Inlined fast path of :func:`~repro.congest.words.words_of`.

    Specializes the overwhelmingly common wire shapes (possibly nested
    tuples of ints and short strings, bare ints) with exact-type
    dispatch — ``words_of`` pays an abstract-class ``isinstance`` probe
    per field — and defers anything else to the canonical recursive
    sizer, so accounting stays byte-identical.
    """
    t = type(payload)
    if t is tuple:
        total = 0
        for item in payload:
            ti = type(item)
            if ti is int:
                total += 1
            elif ti is str:
                length = len(item)
                total += 1 if length <= 8 else (length + 7) // 8
            elif ti is tuple:
                total += _payload_words(item)
            else:
                total += words_of(item)
        return total
    if t is int:
        return 1
    return words_of(payload)


def _diagnose_bad_message(topology: CSRTopology, sender: int,
                          receiver: int) -> None:
    """Cold branch: raise the precise model error for a failed probe."""
    n = topology.n
    if not (isinstance(sender, int) and 0 <= sender < n):
        raise UnknownVertexError(sender)
    if not (isinstance(receiver, int) and 0 <= receiver < n):
        raise UnknownVertexError(receiver)
    raise NotALinkError(sender, receiver)


def _route_messages(topology, outbox, link_index_get, payloads,
                    words_acc, touched_append, size_memo_get, size_memo):
    """Route one round's outboxes into the per-link buffers.

    Returns ``(total_messages, total_words)``.  May raise on invalid
    messages; the caller unwinds the partially-filled buffers.
    """
    n = topology.n
    total_messages = 0
    total_words = 0
    for sender, sends in outbox.items():
        base = sender * n
        for receiver, payload in sends:
            lid = link_index_get(base + receiver)
            if lid is None or not 0 <= receiver < n:
                _diagnose_bad_message(topology, sender, receiver)
            pid = id(payload)
            size = size_memo_get(pid)
            if size is None:
                size = size_memo[pid] = _payload_words(payload)
            bucket = payloads[lid]
            if not bucket:
                touched_append(lid)
            bucket.append((sender, payload))
            words_acc[lid] += size
            total_messages += 1
            total_words += size
    return total_messages, total_words


def exchange_batch(
    topology: CSRTopology,
    state: FabricState,
    outbox,
    ledger: RoundLedger,
    bandwidth_words: int,
    raise_on_overload: bool,
    link_totals: Optional[Dict[Tuple[int, int], int]] = None,
) -> Inbox:
    """Execute one synchronous round through the batched fabric.

    Returns the inbox mapping receivers to ``(sender, payload)`` lists
    in deterministic (sender-ascending) order; charges the ledger
    exactly like the reference engine.
    """
    link_index_get = topology._link_index.get
    payloads = state.link_payloads
    words_acc = state.link_words
    touched: List[int] = []
    touched_append = touched.append
    # Per-round payload-size memo keyed by object identity.  Safe: every
    # key's object is referenced by the outbox for the duration of this
    # call, so ids cannot be recycled; and very effective, because the
    # batch-friendly algorithms share one message object across all of a
    # sender's targets (and broadcast forwards one object over many
    # links).
    size_memo: Dict[int, int] = {}
    size_memo_get = size_memo.get

    try:
        total_messages, total_words = _route_messages(
            topology, outbox, link_index_get, payloads,
            words_acc, touched_append, size_memo_get, size_memo)
    except BaseException:
        # A validation (or sizing) error aborted routing mid-way: drop
        # everything buffered this round so the recycled state stays
        # clean for subsequent exchanges.  Every non-empty bucket's lid
        # is in ``touched`` (appended before the first payload lands).
        for lid in touched:
            payloads[lid].clear()
            words_acc[lid] = 0
        raise
    # Receiver-major link ids: sorting touched ids delivers inboxes
    # grouped by receiver with senders ascending.  Buckets already hold
    # ready-made (sender, payload) pairs, so delivery per link is one
    # C-speed list copy/extend.
    touched.sort()
    receivers = topology.link_receiver
    inbox: Inbox = {}
    max_link = 0
    violations = 0
    first_overload = None
    current_receiver = -1
    box: List[Tuple[int, object]] = []
    for lid in touched:
        loaded = words_acc[lid]
        receiver = receivers[lid]
        bucket = payloads[lid]
        if loaded > max_link:
            max_link = loaded
        if loaded > bandwidth_words:
            violations += 1
            if first_overload is None:
                first_overload = (bucket[0][0], receiver, loaded)
        if link_totals is not None:
            key = (bucket[0][0], receiver)
            link_totals[key] = link_totals.get(key, 0) + loaded
        if receiver != current_receiver:
            current_receiver = receiver
            box = bucket[:]
            inbox[receiver] = box
        else:
            box.extend(bucket)
        bucket.clear()
        words_acc[lid] = 0

    # The round happened on the wire either way: charge it before
    # raising so post-mortem ledgers stay truthful.
    ledger.charge_round(total_messages, total_words, max_link, violations)
    if raise_on_overload and first_overload is not None:
        sender, receiver, loaded = first_overload
        raise BandwidthExceededError(sender, receiver, loaded,
                                     bandwidth_words)
    return inbox


def exchange_reference(
    topology: CSRTopology,
    ledger: RoundLedger,
    outbox,
    bandwidth_words: int,
    raise_on_overload: bool,
    link_totals: Optional[Dict[Tuple[int, int], int]] = None,
) -> Inbox:
    """The pre-fabric per-message engine, preserved verbatim.

    Semantics oracle for the equivalence tests and the baseline for the
    fabric benchmarks / CI perf gate.  Deliberately un-optimized: every
    message pays tuple hashing, recursive word sizing, and per-round
    dict allocation, exactly as the historical ``exchange`` did.
    """
    n = topology.n
    link_set = topology.link_pairs()
    inbox: Inbox = {}
    link_words: Dict[Tuple[int, int], int] = {}
    total_messages = 0
    total_words = 0

    for sender in sorted(outbox):
        if not (0 <= sender < n):
            raise UnknownVertexError(sender)
        for receiver, payload in outbox[sender]:
            if not (0 <= receiver < n):
                raise UnknownVertexError(receiver)
            if (sender, receiver) not in link_set:
                raise NotALinkError(sender, receiver)
            size = words_of(payload)
            key = (sender, receiver)
            link_words[key] = link_words.get(key, 0) + size
            total_messages += 1
            total_words += size
            inbox.setdefault(receiver, []).append((sender, payload))

    if link_totals is not None:
        for key, size in link_words.items():
            link_totals[key] = link_totals.get(key, 0) + size

    max_link = max(link_words.values()) if link_words else 0
    violations = 0
    first_overload = None
    for (u, v), loaded in link_words.items():
        if loaded > bandwidth_words:
            violations += 1
            if first_overload is None:
                first_overload = (u, v, loaded)

    ledger.charge_round(total_messages, total_words, max_link, violations)
    if raise_on_overload and first_overload is not None:
        u, v, loaded = first_overload
        raise BandwidthExceededError(u, v, loaded, bandwidth_words)
    return inbox
