"""Admission state machine: :class:`ServeFrontend` over a scripted daemon.

Hypothesis drives submits, answers, failures and close in any order
against a fake daemon that records each batch it is sent and answers
only when a rule says so.  The invariants are checked after every
step, with no sleeps:

* every request resolves exactly once, to a declared outcome, and
  until then is either held at admission or out in a batch — also
  when its client stops waiting first and its answer comes late;
* no shard ever has more than ``max_inflight`` queries out;
* no more than ``max_queue`` requests are held;
* the per-outcome admission counters move by exactly the outcomes the
  requests resolved to;
* a request that arrives already expired, or whose client stopped
  waiting while it was held, is never sent.
"""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.serve import Query, ServeFrontend
from repro.telemetry.counters import registry
from repro.telemetry.schema import SERVE_ADMISSION

SHARDS = 2
MAX_INFLIGHT = 2
MAX_QUEUE = 3
OUTCOMES = SERVE_ADMISSION.legal("outcome")


class FakeDaemon:
    """What the front-end uses of :class:`ServeDaemon`: routing and
    batches, answered only when the test says."""

    def __init__(self) -> None:
        #: (shard, queries, callback) of every unanswered batch.
        self.batches = []
        #: Request ids (``Query.s``) of every query ever sent.
        self.sent = set()
        #: shard -> error a send to it calls back with at once, as the
        #: daemon does for a failed worker or while it stops.
        self.refusing = {}
        self.out = Counter()
        self.peak = 0

    def shard_for_key(self, instance_key):
        return int(instance_key.rsplit("-", 1)[1]) % SHARDS

    def submit_batch(self, queries, callback, shard_id=None,
                     staleness=None):
        queries = tuple(queries)
        assert queries and len(staleness) == len(queries)
        assert all(self.shard_for_key(q.instance) == shard_id
                   for q in queries)
        self.sent.update(q.s for q in queries)
        if shard_id in self.refusing:
            callback(None, None, None, self.refusing[shard_id])
            return
        self.out[shard_id] += len(queries)
        self.peak = max(self.peak, self.out[shard_id])
        self.batches.append((shard_id, queries, callback))

    def take(self, index):
        shard_id, queries, callback = self.batches.pop(index)
        self.out[shard_id] -= len(queries)
        return queries, callback


def _admitted():
    return {outcome: registry.value(SERVE_ADMISSION.name,
                                    outcome=outcome)
            for outcome in OUTCOMES}


class AdmissionMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.daemon = FakeDaemon()
        self.frontend = ServeFrontend(
            self.daemon, max_queue=MAX_QUEUE, max_inflight=MAX_INFLIGHT,
            default_timeout=3600.0)
        #: (query, pending, arrived expired) per submit, in order.
        self.requests = []
        #: Request ids whose client stopped waiting, and those of them
        #: not yet sent at the time.
        self.gave_up = set()
        self.gave_up_unsent = set()
        self.before = _admitted()

    @rule(shard=st.integers(0, SHARDS - 1), count=st.integers(1, 3),
          expired=st.booleans(), staleness=st.integers(0, 2))
    def submit(self, shard, count, expired, staleness):
        for _ in range(count):
            query = Query(s=len(self.requests), t=0, edge=(0, 1),
                          instance=f"inst-{shard}")
            pending = self.frontend.submit(
                query, timeout=0.0 if expired else None,
                max_staleness=staleness)
            self.requests.append((query, pending, expired))

    @precondition(lambda self: self.daemon.batches)
    @rule(data=st.data(), stale=st.booleans())
    def answer(self, data, stale):
        index = data.draw(st.integers(0, len(self.daemon.batches) - 1))
        queries, callback = self.daemon.take(index)
        count = len(queries)
        callback([q.s for q in queries], ["hit"] * count,
                 [int(stale)] * count, "")

    @precondition(lambda self: self.daemon.batches)
    @rule(data=st.data(),
          error=st.sampled_from(["worker-lost", "ValueError: boom"]))
    def fail(self, data, error):
        index = data.draw(st.integers(0, len(self.daemon.batches) - 1))
        _queries, callback = self.daemon.take(index)
        callback(None, None, None, error)

    @precondition(lambda self: any(not p.done
                                   for _, p, _ in self.requests))
    @rule(data=st.data())
    def give_up(self, data):
        query, pending, _ = data.draw(st.sampled_from(
            [r for r in self.requests if not r[1].done]))
        assert pending.result(timeout=0).outcome == "timeout"
        self.gave_up.add(query.s)
        if query.s not in self.daemon.sent:
            self.gave_up_unsent.add(query.s)

    # Refusing and closing only once something is held: drawn at once,
    # either leaves nothing to hold for the rest of the run.
    @precondition(lambda self: self.frontend.queue_depth())
    @rule(shard=st.integers(0, SHARDS - 1),
          error=st.sampled_from(["worker-lost", "shutdown"]))
    def refuse(self, shard, error):
        self.daemon.refusing[shard] = error

    @precondition(lambda self: self.frontend.queue_depth())
    @rule()
    def close(self):
        self.frontend.close()

    @invariant()
    def every_request_is_resolved_held_or_out(self):
        unresolved = {q.s for q, p, _ in self.requests if not p.done}
        out = {q.s for _, queries, _ in self.daemon.batches
               for q in queries}
        # Only a client that stopped waiting resolves a request out.
        assert out - self.gave_up <= unresolved
        # The rest are held, beside held requests whose client stopped
        # waiting, until a flush drops them.
        extra = self.frontend.queue_depth() - len(unresolved - out)
        assert 0 <= extra <= len(self.gave_up_unsent)

    @invariant()
    def outcomes_are_declared_and_counted(self):
        seen = Counter(p.outcome for _, p, _ in self.requests if p.done)
        assert set(seen) <= OUTCOMES
        now = _admitted()
        assert {o: now[o] - self.before[o] for o in OUTCOMES} == {
            o: seen[o] for o in OUTCOMES}

    @invariant()
    def bounds_hold(self):
        assert self.daemon.peak <= MAX_INFLIGHT
        assert self.frontend.queue_depth() <= MAX_QUEUE

    @invariant()
    def resolved_before_sending_means_never_sent(self):
        for query, pending, expired in self.requests:
            if expired:
                assert pending.outcome in ("timeout", "shutdown")
                assert query.s not in self.daemon.sent
        assert self.gave_up_unsent.isdisjoint(self.daemon.sent)

    def teardown(self):
        # Answer whatever is out until nothing is: every request must
        # then have resolved, the held ones included.
        while self.daemon.batches:
            queries, callback = self.daemon.take(0)
            callback([q.s for q in queries], ["hit"] * len(queries),
                     [0] * len(queries), "")
        assert all(p.done for _, p, _ in self.requests)
        assert self.frontend.queue_depth() == 0


AdmissionMachine.TestCase.settings = settings(
    max_examples=75, stateful_step_count=25, deadline=None)
TestAdmission = AdmissionMachine.TestCase


def test_failed_shard_drains_a_deep_backlog_without_recursion():
    """Every batch the backlog sends into a failed worker calls back
    inside ``submit_batch``; the flush must loop, not recurse."""
    daemon = FakeDaemon()
    frontend = ServeFrontend(daemon, max_queue=5000, max_inflight=1,
                             default_timeout=3600.0)
    pendings = [frontend.submit(Query(s=k, t=0, edge=(0, 1),
                                      instance="inst-0"))
                for k in range(5001)]
    assert frontend.queue_depth() == 5000
    daemon.refusing[0] = "worker-lost"
    _queries, callback = daemon.take(0)
    callback(None, None, None, "worker-lost")
    assert all(p.outcome == "worker-lost" for p in pendings)
    assert frontend.queue_depth() == 0
