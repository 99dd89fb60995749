"""Per-layer timing for traced runs, from wrappers the benchmark installs.

The program is not instrumented for this: a traced run swaps each
layer's public function for a timing wrapper, runs, and puts the
original back.  :class:`LayerClock` keeps a per-thread stack of open
layers, so every layer gets its call count, its wall time and its self
time (wall time minus the wall time of wrapped layers it called).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from unittest import mock


class LayerClock:
    """Call counts, wall time and self time per layer name."""

    def __init__(self) -> None:
        #: name -> [calls, wall seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: name -> per-call wall seconds, for layers asked to keep them
        self.samples: Dict[str, List[float]] = {}
        #: name -> per-call self seconds, for the same layers
        self.self_samples: Dict[str, List[float]] = {}
        self._local = threading.local()
        self._keep: set = set()

    def keep_samples(self, *names: str) -> None:
        self._keep.update(names)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = clock._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += wall
                clock.record(name, wall, wall - child)

        return timed

    def record(self, name: str, wall: float, self_time: float) -> None:
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += wall
        entry[2] += self_time
        if name in self._keep:
            self.samples.setdefault(name, []).append(wall)
            self.self_samples.setdefault(name, []).append(self_time)

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def wall(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def require(self, names: Sequence[str]) -> None:
        """Raise :class:`LostHook` unless every layer was called: a
        hooked name the program stopped calling would read 0."""
        idle = [name for name in names if not self.calls(name)]
        if idle:
            raise LostHook(f"hooked but never called: {', '.join(idle)}")


class LostHook(RuntimeError):
    """A layer the traced run times is no longer where the benchmark
    hooks it (renamed, moved or removed): its metric would read 0."""


class Hooks:
    """``unittest.mock`` patchers applied and undone together; a traced
    run may apply and undo them many times."""

    def __init__(self, patchers: Sequence) -> None:
        self._patchers = list(patchers)
        self._stack: Optional[ExitStack] = None

    @property
    def active(self) -> bool:
        return self._stack is not None

    def apply(self) -> None:
        if self._stack is None:
            self._stack = ExitStack()
            for patcher in self._patchers:
                self._stack.enter_context(patcher)

    def restore(self) -> None:
        if self._stack is not None:
            stack, self._stack = self._stack, None
            stack.close()

    def __enter__(self) -> "Hooks":
        self.apply()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _wrap_attr(clock: LayerClock, layer: str, owner, attr: str):
    fn = vars(owner).get(attr) if owner is not None else None
    if not callable(fn):
        raise LostHook(f"{layer}: no callable {attr!r} on {owner!r}")
    return mock.patch.object(owner, attr, clock.wrap(layer, fn))


#: (layer, module, class or None, attribute) of the solve ladder.
SOLVE_HOOKS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("graphs.build_network", "repro.graphs.instance", "RPathsInstance",
     "build_network"),
    ("core.spanning_tree", "repro.core.rpaths", None,
     "build_spanning_tree"),
    ("core.knowledge", "repro.core.rpaths", None,
     "acquire_path_knowledge"),
    ("core.short_detour", "repro.core.rpaths", None,
     "short_detour_lengths"),
    ("core.long_detour", "repro.core.rpaths", None,
     "long_detour_lengths"),
    ("core.landmark_distances", "repro.core.long_detour", None,
     "compute_landmark_distances"),
)

#: Layer name every message-lane (fallback) call is charged to.
FALLBACK_LAYER = "kernel.fallback"


def solve_ladder(clock: LayerClock, kernels: Sequence[str]) -> Hooks:
    """Wrappers for the CSR export, the paper phases and every
    registered kernel lane (vector lanes by primitive name, message
    lanes together as the fallback layer).

    Raises :class:`LostHook` when a hooked name is gone or the kernel
    registry no longer holds exactly ``kernels``.
    """
    patchers = []
    for layer, module_name, cls, attr in SOLVE_HOOKS:
        module = importlib.import_module(module_name)
        owner = getattr(module, cls, None) if cls else module
        patchers.append(_wrap_attr(clock, layer, owner, attr))
    from repro.congest.dispatch import REGISTRY
    if set(REGISTRY) != set(kernels):
        raise LostHook(f"kernel registry holds {sorted(REGISTRY)}, "
                       f"the benchmark times {sorted(kernels)}")
    for name, prim in sorted(REGISTRY.items()):
        cache = getattr(prim, "_cache", None)
        if not isinstance(cache, dict):
            raise LostHook(f"kernel.{name}: no resolved-lane cache")
        for lane, layer in (("vector", f"kernel.{name}"),
                            ("message", FALLBACK_LAYER)):
            fn = prim.resolve(lane)
            patchers.append(mock.patch.dict(
                cache, {lane: clock.wrap(layer, fn)}))
    return Hooks(patchers)


def oracle_query_hook(clock: LayerClock) -> Hooks:
    """Wrapper for ``ReplacementPathOracle.query`` (the ladder's floor)."""
    from repro.serve import ReplacementPathOracle
    return Hooks([_wrap_attr(clock, "serve.oracle.query",
                             ReplacementPathOracle, "query")])


class StageStamps:
    """Per-request stage timestamps across the front-end and daemon.

    Wraps ``ServeDaemon.submit_batch`` on one daemon instance: entry is
    stamped for every query in the batch, and the answer callback is
    wrapped so its invocation is stamped too.  Queries are keyed by
    object identity, which the front-end preserves from ``submit`` to
    ``submit_batch``.
    """

    def __init__(self, daemon) -> None:
        self.daemon = daemon
        self.entered: Dict[int, float] = {}
        self.answered: Dict[int, float] = {}
        self.batch_sizes: List[int] = []
        original = daemon.submit_batch
        stamps = self

        @functools.wraps(original)
        def submit_batch(queries, callback, *args, **kwargs):
            entered = time.perf_counter()
            queries = tuple(queries)
            stamps.batch_sizes.append(len(queries))
            for q in queries:
                stamps.entered[id(q)] = entered

            def answered(*cb_args):
                stamp = time.perf_counter()
                for q in queries:
                    stamps.answered[id(q)] = stamp
                return callback(*cb_args)

            return original(queries, answered, *args, **kwargs)

        self.hooks = Hooks([mock.patch.object(daemon, "submit_batch",
                                              submit_batch)])

    def take(self, query) -> Tuple[Optional[float], Optional[float]]:
        """(entered submit_batch, answer callback) for one request."""
        key = id(query)
        return self.entered.pop(key, None), self.answered.pop(key, None)
