"""Scale-out gate: int32 memory diet + shared-topology fan-out.

PR 8's tentpole is about *n*, not rounds/sec: push one solve to
n ≥ 65536 and keep it honest.  Three families measure the three
mechanisms that make that size workable:

* ``diet-32768`` / ``diet-65536`` — the int32 memory diet.  Every
  :class:`TopologyArrays` export picks the narrowest dtype its value
  range permits; the family reports the exported bytes against the
  int64-equivalent layout the pre-diet code shipped.  At n = 32768
  every group (indices, keys, weights) fits int32, so the ratio is a
  deterministic 2x; at n = 65536 the ``tail·n + head`` keys exceed
  int32 and promote, leaving ~1.69x.  Both ratios are byte arithmetic,
  not timing — the gate tolerance catches code drift, not noise.
* ``solve-expander-65536`` — one full ``solve_rpaths`` at the target
  size (landmark_c = 0.05 keeps |L|² pair broadcasts within a CI
  budget), timed serially, then run again with ``parallel=2``.  The
  family *asserts* bit-equal lengths and per-phase ledgers — the
  fan-out's core contract.  The parallel run is not timed: whichever
  solve runs second inherits the first one's warm caches, and the two
  orders disagreed by more than the difference being measured, so
  ``fanout-kbfs-32768`` measures the fan-out instead.
* ``fanout-kbfs-32768`` — the fan-out mechanism in isolation: eight
  independent 32-source kBFS chunks, run serially and then over
  ``pool_map`` with workers attaching the shared-memory topology
  zero-copy.  The fan-out asks for width 4 and runs at most
  ``max(2, cpus)`` wide; the row reports the width that ran.  Tables
  and merged ledgers are asserted bit-equal; the speedup gate is
  CPU-conditional (a 1-core host *cannot* win — the measured ~0.5x
  there is pool overhead, which is why the knob defaults off) — ≥ 2x
  with 4+ cores, ≥ 1.2x with 2-3, report-only below that.

The run also exports its peak RSS (``resource.getrusage``) through
:data:`repro.telemetry.schema.PEAK_RSS_BYTES`, so a traced run shows
the high-water mark in ``repro trace summary``, and gates it against
an absolute ceiling — the memory diet's end-to-end "does n = 65536
still fit" check.

Gates (declared in :data:`BENCH`; the CI ``perf-gate`` job runs
``--quick``, which is the same full run — the scale gate *is* the
n = 65536 run)::

    python benchmarks/bench_scale.py --quick --json BENCH_scale.json \
        --compare benchmarks/BENCH_scale.json

* diet ratios must hold the absolute floors (1.9x / 1.5x) and stay
  within the plain tolerance of the committed baseline;
* the fan-out speedup must hold its CPU-tier floor, and is compared
  against the baseline only when both runs had >= 2 CPUs;
* peak RSS must stay under 3072 MiB (the committed run peaked at
  1961 MiB: the ceiling is the "still fits a laptop" line, not a
  tight bound);
* every bit-identity assertion fails the run outright.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from typing import Dict, List

from _util import Bench, Check, main, quiet_gc, run_entry

from repro.congest.multisource import multi_source_hop_bfs
from repro.congest.topology import TopologyArrays
from repro.core.rpaths import solve_rpaths
from repro.graphs import expander_instance

SOLVE_FAMILY = "solve-expander-65536"
FANOUT_FAMILY = "fanout-kbfs-32768"

#: Fan-out worker width (the "≥ 2 workers" of the acceptance gate).
FANOUT_WIDTH = 4


def _phases(ledger) -> List[dict]:
    return [stats.as_dict() for stats in ledger.phases()]


# -- families -----------------------------------------------------------------


def measure_diet(instance) -> dict:
    """Exported bytes vs the int64-equivalent layout (deterministic)."""
    arr = instance.build_network(fabric="vector").topology.arrays()
    diet = arr.nbytes()
    int64_eq = sum(getattr(arr, field).size * 8
                   for field, _role in TopologyArrays.FIELDS)
    import numpy as np
    return {
        "n": instance.n,
        "m": instance.m,
        "diet_bytes": diet,
        "int64_bytes": int64_eq,
        "ratio": round(int64_eq / diet, 3),
        "index_dtype": np.dtype(arr.index_dtype).name,
        "key_dtype": np.dtype(arr.key_dtype).name,
        "weight_dtype": np.dtype(arr.weight_dtype).name,
    }


def measure_solve(instance) -> dict:
    """Whole solve at n=65536, timed serially, then again with
    parallel=2 for the bit-identity contract (untimed: see the module
    doc)."""
    with quiet_gc():
        start = time.perf_counter()
        serial = solve_rpaths(instance, seed=7, fabric="vector",
                              landmark_c=0.05)
        serial_s = time.perf_counter() - start
    # Untimed, but under the same collector guard as before, so the
    # gated peak RSS of the run is what it was.
    with quiet_gc():
        fanned = solve_rpaths(instance, seed=7, fabric="vector",
                              landmark_c=0.05, parallel=2)
    if fanned.lengths != serial.lengths:
        raise AssertionError(f"{SOLVE_FAMILY}: parallel lengths differ")
    if _phases(fanned.ledger) != _phases(serial.ledger):
        raise AssertionError(f"{SOLVE_FAMILY}: parallel ledger differs")
    return {
        "n": instance.n,
        "m": instance.m,
        "rounds": serial.rounds,
        "landmark_c": 0.05,
        "workers": 2,
        "serial_seconds": round(serial_s, 3),
        "identical": True,
    }


def _fanout_widths() -> float:
    """Sum of the ``serve-batch`` fan-out widths recorded so far."""
    from repro.telemetry.counters import registry
    summaries = registry.snapshot()["summaries"]
    key = 'repro_parallel_fanout_width{site="serve-batch"}'
    return summaries.get(key, {"sum": 0})["sum"]


def measure_fanout(instance, chunks: int = 8, chunk_size: int = 32,
                   hop_limit: int = 48) -> dict:
    """The fan-out mechanism in isolation: independent kBFS chunks,
    serial loop vs shared-memory pool, bit-identity asserted."""
    from repro.runtime import sharedmem

    topo = instance.build_network(fabric="vector").topology
    sources = [list(range(c * chunk_size, (c + 1) * chunk_size))
               for c in range(chunks)]

    serial_net = instance.build_network(fabric="vector")
    with quiet_gc():
        start = time.perf_counter()
        serial = [multi_source_hop_bfs(serial_net, chunk,
                                       hop_limit=hop_limit,
                                       phase="scale-fanout")
                  for chunk in sources]
        serial_s = time.perf_counter() - start

    fanned_net = instance.build_network(fabric="vector")
    widths_before = _fanout_widths()
    with sharedmem.publish_topology(topo) as pub:
        with quiet_gc():
            start = time.perf_counter()
            fanned = sharedmem.fanout_kbfs(
                fanned_net, pub, FANOUT_WIDTH,
                [dict(sources=chunk, hop_limit=hop_limit,
                      phase="scale-fanout") for chunk in sources],
                site="serve-batch")
            fanout_s = time.perf_counter() - start
    if fanned != serial:
        raise AssertionError(f"{FANOUT_FAMILY}: pooled tables differ")
    if _phases(fanned_net.ledger) != _phases(serial_net.ledger):
        raise AssertionError(f"{FANOUT_FAMILY}: merged ledger differs")
    return {
        "n": instance.n,
        "chunks": chunks,
        "chunk_size": chunk_size,
        "hop_limit": hop_limit,
        "width": int(_fanout_widths() - widths_before),
        "cpus": os.cpu_count() or 1,
        "serial_seconds": round(serial_s, 3),
        "fanout_seconds": round(fanout_s, 3),
        "speedup_fanout": round(serial_s / fanout_s, 3),
        "identical": True,
    }


def measure_families() -> Dict[str, dict]:
    families: Dict[str, dict] = {}
    mid = expander_instance(32768, degree=4, seed=5)
    families["diet-32768"] = measure_diet(mid)
    families[FANOUT_FAMILY] = measure_fanout(mid)
    del mid
    gc.collect()
    big = expander_instance(65536, degree=4, seed=3)
    families["diet-65536"] = measure_diet(big)
    families[SOLVE_FAMILY] = measure_solve(big)
    return families


def measure_peak_rss() -> dict:
    """Peak RSS of this process + its pool children, exported as the
    :data:`repro.telemetry.schema.PEAK_RSS_BYTES` gauge (``ru_maxrss`` is
    KiB on Linux)."""
    import resource

    from repro.telemetry.schema import PEAK_RSS_BYTES

    unit = 1024 if sys.platform != "darwin" else 1
    self_b = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit
    child_b = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               * unit)
    PEAK_RSS_BYTES.set(self_b)
    return {
        "self_mib": round(self_b / (1 << 20), 1),
        "children_mib": round(child_b / (1 << 20), 1),
    }


BENCH = Bench(
    name="scale",
    measure=lambda quick: {**measure_families(),
                           "peak-rss": measure_peak_rss()},
    title="scale-out — int32 diet bytes vs int64 layout, whole solve "
          "at n=65536, shared-memory fan-out, peak RSS",
    columns=("n", "m", "ratio", "key_dtype", "rounds", "chunks", "cpus",
             "serial_seconds", "fanout_seconds", "speedup_fanout",
             "self_mib", "children_mib"),
    checks=(
        # Every group fits int32 up to n=32768 (the pytest entry's
        # diet-16384 too); at n=65536 the keys promote to int64.
        Check("floor", ("diet-16384", "diet-32768"), "ratio", 1.9),
        Check("floor", ("diet-65536",), "ratio", 1.5),
        # Byte ratios are deterministic: plain tolerance.
        Check("higher", ("diet-32768", "diet-65536"), "ratio"),
        # A 1-core host cannot win (the ~0.5x there is pool overhead,
        # which is why the knob defaults off): report-only below 2.
        Check("floor", (FANOUT_FAMILY,), "speedup_fanout", 2.0,
              when=lambda row: row["cpus"] >= 4),
        Check("floor", (FANOUT_FAMILY,), "speedup_fanout", 1.2,
              when=lambda row: 2 <= row["cpus"] < 4),
        # Compared only when both runs could overlap work.
        Check("higher", (FANOUT_FAMILY,), "speedup_fanout", doubled=True,
              when=lambda row: row.get("cpus", 1) >= 2),
        Check("ceiling", ("peak-rss",), "self_mib", 3072),
    ),
)


def bench_scale_memory_diet(benchmark):
    """Diet ratio at a size every CI shard can afford (the command
    line runs the full gate; n=16384 keeps keys int32, so 2x exactly)."""
    instance = expander_instance(16384, degree=4, seed=5)
    run_entry(benchmark, BENCH,
                lambda: {"diet-16384": measure_diet(instance)})


if __name__ == "__main__":
    raise SystemExit(main(BENCH))
