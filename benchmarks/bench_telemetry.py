"""Microbench — the disabled-tracing overhead gate.

The telemetry design promise is "disabled is free": every instrumented
hot site (``RoundLedger.phase``, the solver entry points, the kernel
dispatch predicates) pays one module-global check when tracing is off.
This bench quantifies that check against a *bypassed* baseline — the
same solve with ``RoundLedger.phase`` monkeypatched back to its
pre-instrumentation body — and gates the relative overhead at
:data:`MAX_OVERHEAD` (< 2%, the committed acceptance bound).

Timing (``_util.interleave``): one untimed warm-up solve per side,
whose round counts must agree, then passes that run both sides once on
an identical deterministic workload, rotating which goes first; the
gated overhead is the median per-pass ratio, less one.

Usage (the CI gate; declared in :data:`BENCH`, :data:`PASSES`
passes)::

    python benchmarks/bench_telemetry.py [--json FILE]

``tests/test_telemetry.py`` runs :func:`measure_overhead` with the same
workload and asserts the bound, and pins the disabled path's call
counts into each hot site, which no neighbour's load can move.
"""

from __future__ import annotations

import contextlib
from functools import partial
from typing import Dict

from _util import Bench, Check, interleave, main, spread

from repro.congest.metrics import PhaseStats, RoundLedger
from repro.core.rpaths import solve_rpaths
from repro.graphs.generators import grid_instance
from repro.telemetry import trace as _trace

#: Committed acceptance bound on (instrumented-disabled / bypassed) - 1.
MAX_OVERHEAD = 0.02

#: Timed passes of the command-line gate, after one warm-up per side.
PASSES = 101


@contextlib.contextmanager
def _bare_phase(self, name):
    """``RoundLedger.phase`` as it was before telemetry existed."""
    stats = self._stats.get(name)
    if stats is None:
        stats = PhaseStats(name)
        self._stats[name] = stats
        self._order.append(name)
    self._stack.append(name)
    try:
        yield stats
    finally:
        popped = self._stack.pop()
        assert popped == name, "phase stack corrupted"


def _workload(rows: int, cols: int):
    """One deterministic solve: every instrumented layer on the path."""
    instance = grid_instance(rows, cols)
    return solve_rpaths(instance, fabric="fast").rounds


def _bypassed(rows: int, cols: int):
    """The workload with ``RoundLedger.phase`` patched bare."""
    original_phase = RoundLedger.phase
    RoundLedger.phase = _bare_phase
    try:
        return _workload(rows, cols)
    finally:
        RoundLedger.phase = original_phase


def measure_overhead(passes: int = PASSES, rows: int = 4,
                     cols: int = 12) -> Dict[str, float]:
    """Instrumented-vs-bypassed solve timings over interleaved passes.

    Returns the median seconds of each side and ``overhead``, the
    median over passes of instrumented / bypassed - 1, with its
    quartiles.  Tracing is forced off for both sides (the disabled
    guard is exactly what is being measured); the registry stays live
    on both, as it does in production.
    """
    was_enabled = _trace._ENABLED
    _trace.disable_tracing()
    try:
        timing = interleave({
            "instrumented": lambda _item: partial(_workload, rows, cols),
            "bypassed": lambda _item: partial(_bypassed, rows, cols),
        }, passes)
    finally:
        if was_enabled:
            _trace.enable_tracing()
    timing.agreed("disabled-overhead")
    return {
        "passes": passes,
        "instrumented": timing.median("instrumented"),
        "bypassed": timing.median("bypassed"),
        **spread("overhead", [ratio - 1.0 for ratio in timing.ratio(
            "instrumented", "bypassed")], 4),
    }


BENCH = Bench(
    name="telemetry",
    measure=lambda quick: {"disabled-overhead": measure_overhead()},
    title="disabled-tracing overhead — instrumented vs. bypassed "
          "RoundLedger.phase, median of interleaved passes",
    columns=("instrumented", "bypassed", "overhead"),
    checks=(Check("ceiling", ("disabled-overhead",), "overhead",
                  MAX_OVERHEAD),),
)


if __name__ == "__main__":
    raise SystemExit(main(BENCH))
