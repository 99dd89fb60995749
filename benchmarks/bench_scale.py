"""Scale gate: int32 memory diet + one whole solve at n = 65536.

Two families measure what makes that size workable:

* ``diet-32768`` / ``diet-65536`` — the int32 memory diet.  Every
  :class:`TopologyArrays` export picks the narrowest dtype its value
  range permits; the family reports the exported bytes against the
  int64-equivalent layout the pre-diet code shipped.  At n = 32768
  every group (indices, keys, weights) fits int32, so the ratio is a
  deterministic 2x; at n = 65536 the ``tail·n + head`` keys exceed
  int32 and promote, leaving ~1.69x.  Both ratios are byte arithmetic,
  not timing — the gate tolerance catches code drift, not noise.
* ``solve-expander-65536`` — one full serial ``solve_rpaths`` at the
  target size (landmark_c = 0.05 keeps |L|² pair broadcasts within a
  CI budget).  Its round count must equal the committed one, so a
  kernel change that moves the n = 65536 ledger fails by name.

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
* the n = 65536 solve's ``rounds`` must equal the committed baseline's;
* peak RSS must stay under 3072 MiB (the "still fits a laptop" line,
  not a tight bound).
"""

from __future__ import annotations

import gc
import sys
import time
from typing import Dict

from _util import Bench, Check, main, quiet_gc, run_entry

from repro.congest.topology import TopologyArrays
from repro.core.rpaths import solve_rpaths
from repro.graphs import expander_instance

SOLVE_FAMILY = "solve-expander-65536"


# -- families -----------------------------------------------------------------


def measure_diet(instance) -> dict:
    """Exported bytes vs the int64-equivalent layout (deterministic)."""
    arr = instance.build_network(fabric="vector").topology.arrays()
    diet = arr.nbytes()
    int64_eq = sum(getattr(arr, field).size * 8
                   for field in TopologyArrays.FIELDS)
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
    """Whole serial solve at n=65536."""
    with quiet_gc():
        start = time.perf_counter()
        report = solve_rpaths(instance, seed=7, fabric="vector",
                              landmark_c=0.05)
        seconds = time.perf_counter() - start
    return {
        "n": instance.n,
        "m": instance.m,
        "rounds": report.rounds,
        "landmark_c": 0.05,
        "serial_seconds": round(seconds, 3),
    }


def measure_families() -> Dict[str, dict]:
    families: Dict[str, dict] = {}
    mid = expander_instance(32768, degree=4, seed=5)
    families["diet-32768"] = measure_diet(mid)
    del mid
    gc.collect()
    big = expander_instance(65536, degree=4, seed=3)
    families["diet-65536"] = measure_diet(big)
    families[SOLVE_FAMILY] = measure_solve(big)
    return families


def measure_peak_rss() -> dict:
    """Peak RSS of this process, exported as the
    :data:`repro.telemetry.schema.PEAK_RSS_BYTES` gauge (``ru_maxrss`` is
    KiB on Linux)."""
    import resource

    from repro.telemetry.schema import PEAK_RSS_BYTES

    unit = 1024 if sys.platform != "darwin" else 1
    self_b = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit
    PEAK_RSS_BYTES.set(self_b)
    return {"self_mib": round(self_b / (1 << 20), 1)}


BENCH = Bench(
    name="scale",
    measure=lambda quick: {**measure_families(),
                           "peak-rss": measure_peak_rss()},
    title="scale — int32 diet bytes vs int64 layout, whole solve at "
          "n=65536, peak RSS",
    columns=("n", "m", "ratio", "key_dtype", "rounds", "serial_seconds",
             "self_mib"),
    checks=(
        # Every group fits int32 up to n=32768 (the pytest entry's
        # diet-16384 too); at n=65536 the keys promote to int64.
        Check("floor", ("diet-16384", "diet-32768"), "ratio", 1.9),
        Check("floor", ("diet-65536",), "ratio", 1.5),
        # Byte ratios are deterministic: plain tolerance.
        Check("higher", ("diet-32768", "diet-65536"), "ratio"),
        Check("same", (SOLVE_FAMILY,), "rounds"),
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
