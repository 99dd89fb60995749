"""``repro.dynamic`` — dynamic graphs under fault storms.

The serve tier answers replacement-path queries against *live*
instances; this package makes those instances move:

* :mod:`~repro.dynamic.stream` — seedable mutation streams
  (edge-weight changes, failure arrivals / healings, correlated
  regional fault storms, rolling maintenance windows) applied through
  :func:`~repro.dynamic.stream.apply_mutations`, which bumps the
  instance's ``topology_version`` epoch and re-derives P.
* :mod:`~repro.dynamic.chaos` — the chaos harness: concurrent worker
  SIGKILLs, worker stalls, and mutation bursts against a live
  :class:`~repro.serve.daemon.ServeDaemon`, followed by a quiesce and
  a bit-identical convergence check against from-scratch solves.
* :mod:`~repro.dynamic.scenarios` — the ``dynamic-*`` scenario
  families (fault-storm / regional-failure / maintenance-window) in
  the suite catalog.

The dynamic-graph metrics (mutation kinds, skip reasons,
invalidation scopes, the epoch-lag gauge) are declared in
:mod:`repro.telemetry.schema`.
"""

from .stream import (  # noqa: F401
    AppliedMutation,
    Mutation,
    MutationResult,
    MutationStream,
    PROFILES,
    apply_mutations,
)
# The chaos harness imports the serve tier, and the serve daemon
# imports ``dynamic.stream`` — loading ``chaos`` eagerly here would
# close that cycle mid-initialization.  PEP 562 lazy attributes keep
# ``from repro.dynamic import run_chaos`` working without the cycle.
_CHAOS_EXPORTS = ("ChaosReport", "run_chaos")


def __getattr__(name: str):
    if name in _CHAOS_EXPORTS:
        from . import chaos
        return getattr(chaos, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AppliedMutation",
    "ChaosReport",
    "Mutation",
    "MutationResult",
    "MutationStream",
    "PROFILES",
    "apply_mutations",
    "run_chaos",
]
