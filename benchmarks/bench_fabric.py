"""Fabric throughput: batched exchange and vector kernels vs. baselines.

Two measurement modes share this bench:

**Replayed schedules** (message engines).  Records a realistic message
schedule per instance family (BFS both ways, k-source BFS, spanning
tree + pipelined broadcast — the exact primitives every catalog
scenario funnels through), then replays the identical schedule through
each message engine and reports rounds/sec:

* ``reference`` — the pre-PR-2 per-message engine (tuple hashing,
  recursive word sizing, per-round dict allocation), preserved in
  :func:`repro.congest.fastpath.exchange_reference`;
* ``fast`` — batched flat-buffer delivery, validated by the link-index
  probe instead of a per-message model check.

**Kernel workloads** (vector fabric).  The vector fabric replaces
whole round loops, so it cannot replay a recorded outbox schedule;
instead the ``vector-*`` families run the kernel-covered primitives
(k-source hop BFS of Lemma 5.5, pruned hop-BFS of Lemma 4.2) end to
end on ``fast`` vs. ``vector`` at n >= 2000 and report rounds/sec from
each engine's own ledger.

Timing (``_util.interleave``): one untimed warm-up run per engine,
whose ledgers (and kernel results) must be identical, then
:data:`PASSES` passes, each engine once on a fresh network, rotating
which goes first; a speedup is the median per-pass ratio.

Gates (declared in :data:`BENCH`, run by the ``perf-gate`` CI job
through ``benchmarks/_util.py``)::

    python benchmarks/bench_fabric.py --json BENCH_fabric.json \
        --compare benchmarks/BENCH_fabric.json

* the ``scaling-expander`` replay family must hold a >= 3x
  fast-vs-reference speedup, and every replay family more than 1x;
* every ``vector-*`` kernel family must hold a >= 5x
  vector-vs-fast speedup;
* any family's measured speedup more than the tolerance below its
  committed baseline ratio fails the gate (the noise-prone
  memory-bound vector families get double tolerance — a busy
  neighbour slows the array kernels far more than the
  interpreter-bound message loops; their absolute floor does the
  heavy lifting);
* every family's workload (``n``, ``m``, ``rounds``, ``messages``,
  ``words``) must equal the committed one exactly, so a ratio is only
  ever compared on the workload it was recorded on.

The committed baseline stores *speedup ratios* (same-machine), which
are stable across runner hardware, unlike absolute rounds/sec; the
JSON also records the interpreter, NumPy version, platform and CPU
count so a baseline refresh is attributable to the machine that
produced it.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from _util import (
    Bench,
    Check,
    hard_instance,
    interleave,
    main,
    run_entry,
    spread,
)

from repro.congest import (
    CongestNetwork,
    bfs_distances,
    broadcast_messages,
    build_spanning_tree,
    multi_source_hop_bfs,
)
from repro.core.hop_bfs import pruned_max_hop_bfs
from repro.graphs import (
    expander_instance,
    power_law_instance,
)

GATE_FAMILY = "scaling-expander"
REPLAY_FAMILIES = ("expander", "power-law", "hard-instance", GATE_FAMILY)
VECTOR_FAMILIES = ("vector-expander", "vector-hard")

#: Timed passes per family, after one warm-up call per engine.
PASSES = 5

Schedule = List[Dict[int, list]]


class _RecordingNetwork(CongestNetwork):
    """Capture every outbox so the schedule can be replayed verbatim."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.schedule: Schedule = []

    def exchange(self, outbox):
        concrete = {u: list(sends) for u, sends in outbox.items()}
        self.schedule.append(concrete)
        return super().exchange(concrete)


def _workload(net: CongestNetwork, instance) -> None:
    """The primitive mix every scenario funnels through the fabric."""
    bfs_distances(net, instance.s, direction="out")
    bfs_distances(net, instance.t, direction="in")
    step = max(1, instance.n // 8)
    sources = list(range(0, instance.n, step))[:8]
    multi_source_hop_bfs(net, sources, hop_limit=12)
    tree = build_spanning_tree(net)
    messages = {v: [("tok", v, i) for i in range(2)]
                for v in range(0, instance.n, max(1, instance.n // 24))}
    broadcast_messages(net, tree, messages)


def _families():
    yield ("expander", expander_instance(160, degree=4, seed=1))
    yield ("power-law", power_law_instance(160, attach=3, seed=2))
    yield ("hard-instance", hard_instance(3, 2, 2))
    yield (GATE_FAMILY, expander_instance(320, degree=4, seed=3))


def _ledger_digest(net: CongestNetwork):
    ledger = net.ledger
    return (ledger.rounds, ledger.messages, ledger.words,
            ledger.max_link_words, ledger.violations)


def _vector_families():
    """n >= 2000 kernel-workload families: (name, instance, hop, k)."""
    yield ("vector-expander",
           expander_instance(2048, degree=4, seed=9), 16, 8)
    yield ("vector-hard", hard_instance(14, 3, 2), 96, 16)


def _kernel_workload(instance, hop: int, k: int, net: CongestNetwork):
    """The kernel-covered primitive mix (Lemma 5.5 + Lemma 4.2).

    Returns the algorithm outputs and the ledger digest, so the
    harness can assert the engines agree on results, not just on
    ledgers.
    """
    step = max(1, instance.n // k)
    sources = list(range(0, instance.n, step))[:k]
    dist = multi_source_hop_bfs(net, sources, hop)
    seeds = {v: (i, i) for i, v in enumerate(instance.path)}
    tables = pruned_max_hop_bfs(net, seeds, hop_limit=hop,
                                avoid_edges=instance.path_edge_set(),
                                record_for=instance.path)
    return (dist, tables), _ledger_digest(net)


def _replay(schedule: Schedule, net: CongestNetwork):
    exchange = net.exchange
    for outbox in schedule:
        exchange(outbox)
    return None, _ledger_digest(net)


def _race(name: str, instance, fabrics, work) -> dict:
    """One family's row: ``work(net)`` timed on a fresh network per
    engine and call, after the engines agreed on its results and
    ledger digest."""
    timing = interleave(
        {fabric: lambda _item, fabric=fabric: partial(
            work, instance.build_network(fabric=fabric))
         for fabric in fabrics}, PASSES)
    _results, digest = timing.agreed(name)[0]
    rounds, messages, words = digest[:3]
    old, new = fabrics
    return {
        "n": instance.n,
        "m": instance.m,
        "rounds": rounds,
        "messages": messages,
        "words": words,
        "passes": PASSES,
        **{f"{fabric}_rps": round(rounds / timing.median(fabric), 1)
           for fabric in fabrics},
        **spread(f"speedup_{new}", timing.ratio(old, new)),
    }


def measure(quick: bool) -> Dict[str, dict]:
    """Every replay family, then every kernel-workload family."""
    report: Dict[str, dict] = {}
    for name, instance in _families():
        # Record on the message lanes (fabric="fast"), as the
        # committed baseline did: on the default vector fabric the
        # kernels bypass exchange() and the schedule loses their rounds.
        recorder = _RecordingNetwork(instance.n, instance.edges,
                                     fabric="fast")
        _workload(recorder, instance)
        report[name] = _race(name, instance, ("reference", "fast"),
                             partial(_replay, recorder.schedule))
    for name, instance, hop, k in _vector_families():
        report[name] = _race(name, instance, ("fast", "vector"),
                             partial(_kernel_workload, instance, hop, k))
    return report


BENCH = Bench(
    name="fabric",
    measure=measure,
    title="fabric throughput — batched exchange vs. reference engine "
          "(replayed schedules) and vector kernels vs. batched engine "
          "(kernel workloads), median of interleaved passes",
    columns=("n", "rounds", "messages", "reference_rps", "fast_rps",
             "vector_rps", "speedup_fast", "speedup_vector"),
    checks=(
        Check("floor", (GATE_FAMILY,), "speedup_fast", 3.0),
        # speedup_fast carries 3 decimals: >= 1.001 is "beats 1x".
        Check("floor", REPLAY_FAMILIES, "speedup_fast", 1.001),
        Check("higher", REPLAY_FAMILIES, "speedup_fast"),
        Check("floor", VECTOR_FAMILIES, "speedup_vector", 5.0),
        Check("higher", VECTOR_FAMILIES, "speedup_vector", doubled=True),
    ) + tuple(Check("same", REPLAY_FAMILIES + VECTOR_FAMILIES, key)
              for key in ("n", "m", "rounds", "messages", "words")),
)


def bench_fabric_throughput(benchmark):
    """Replayed-schedule and kernel-workload rounds/sec (module doc)."""
    run_entry(benchmark, BENCH)


if __name__ == "__main__":
    raise SystemExit(main(BENCH))
