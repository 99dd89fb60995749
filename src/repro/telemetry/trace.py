"""Hierarchical wall-clock spans, joined with ledger deltas.

The tracer answers the question the :class:`~repro.congest.metrics.
RoundLedger` cannot: *where does the wall time go*?  Every span records
its wall-clock duration, and — when it is handed a ledger — the delta
of rounds / messages / words / violations charged while it was open,
so the logical CONGEST cost and the physical cost land in one tree.

Design constraints, in order:

1. **Disabled is free.**  Tracing is off by default; ``span(...)`` on
   the disabled path is one module-global check returning a shared
   no-op context manager — no allocation, no clock read.  The
   committed microbench (``benchmarks/bench_telemetry.py``) gates the
   end-to-end overhead of the disabled guard at < 2%.
2. **Results are untouched.**  Spans observe; they never feed back
   into the algorithms.  ``tests/test_telemetry.py`` asserts traced
   runs are bit-identical (outputs *and* ledgers) to untraced runs on
   every fabric.
3. **Fork-safe.**  ``run_cells`` workers inherit the module state on
   fork; the tracer and its span buffer are keyed by pid, so a worker
   starts from an empty buffer instead of re-flushing the parent's
   spans.  Workers opt in via ``$REPRO_TRACE_DIR`` (set by
   :func:`enable_tracing` in the parent) and flush their own
   per-pid JSONL file.

The span stack lives in a :mod:`contextvars` context variable, so
nesting survives generators/async scheduling and never leaks across
threads.
"""

from __future__ import annotations

import contextvars
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Environment variable that propagates tracing into worker processes:
#: when set, workers enable tracing and flush spans into the named
#: directory (one ``trace-<pid>.jsonl`` file per process).
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Module-global fast-path guard.  Read directly (one dict lookup) by
#: the instrumented hot paths; mutated only via enable/disable below.
_ENABLED = False

#: Ambient span stack (indices into the tracer's span list).
_STACK: contextvars.ContextVar = contextvars.ContextVar(
    "repro-span-stack", default=())


@dataclass
class Span:
    """One finished (or in-flight) traced region."""

    name: str
    span_id: int
    parent_id: int  # -1 for roots
    depth: int
    start: float  # time.time(), for cross-process ordering
    wall: float = 0.0
    #: Ledger deltas over the span (zeros when no ledger was attached).
    rounds: int = 0
    messages: int = 0
    words: int = 0
    violations: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    # -- runtime-only fields (not serialized) --
    _perf_start: float = 0.0
    _ledger: Optional[object] = None
    _base: tuple = (0, 0, 0, 0)

    def set_ledger(self, ledger, fresh: bool = False) -> None:
        """Attach a ledger; deltas are measured from this moment.

        ``fresh=True`` claims the ledger from zero instead — for spans
        that logically cover a ledger created (and already charged)
        inside the span before it could be attached.
        """
        self._ledger = ledger
        if fresh:
            self._base = (0, 0, 0, 0)
            return
        root = ledger[ledger.ROOT]
        self._base = (root.rounds, root.messages, root.words,
                      root.violations)

    def set_attrs(self, **attrs) -> None:
        self.attrs.update(attrs)

    def _close(self) -> None:
        self.wall = time.perf_counter() - self._perf_start
        if self._ledger is not None:
            root = self._ledger[self._ledger.ROOT]
            b = self._base
            self.rounds = root.rounds - b[0]
            self.messages = root.messages - b[1]
            self.words = root.words - b[2]
            self.violations = root.violations - b[3]
            self._ledger = None

    def as_event(self) -> Dict[str, object]:
        """JSON-safe trace event (the sink's wire format)."""
        out: Dict[str, object] = {
            "kind": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "start": round(self.start, 6),
            "wall": round(self.wall, 9),
        }
        if self.rounds or self.messages or self.words:
            out["rounds"] = self.rounds
            out["messages"] = self.messages
            out["words"] = self.words
        if self.violations:
            out["violations"] = self.violations
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class _NoopSpan:
    """Shared disabled-path context manager: everything is a no-op."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set_ledger(self, ledger, fresh: bool = False) -> None:
        pass

    def set_attrs(self, **attrs) -> None:
        pass


_NOOP = _NoopSpan()


class _ActiveSpan:
    """Context manager recording one span into the process tracer."""

    __slots__ = ("span",)

    def __init__(self, span: Span) -> None:
        self.span = span

    def __enter__(self) -> Span:
        _STACK.set(_STACK.get() + (self.span.span_id,))
        return self.span

    def __exit__(self, *exc) -> bool:
        stack = _STACK.get()
        # Tolerate tracing being toggled mid-span: only pop our own id.
        if stack and stack[-1] == self.span.span_id:
            _STACK.set(stack[:-1])
        self.span._close()
        return False


class Tracer:
    """Per-process span buffer (pid-keyed: resets itself after fork)."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self.spans: List[Span] = []
        self._next_id = 0

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self.spans = []
            self._next_id = 0
            _STACK.set(())

    def open(self, name: str, ledger=None, **attrs) -> _ActiveSpan:
        self._check_fork()
        stack = _STACK.get()
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=stack[-1] if stack else -1,
            depth=len(stack),
            start=time.time(),
            attrs=dict(attrs),
        )
        span._perf_start = time.perf_counter()
        self._next_id += 1
        self.spans.append(span)
        if ledger is not None:
            span.set_ledger(ledger)
        return _ActiveSpan(span)

    def drain(self) -> List[Span]:
        """Remove and return the buffered spans (flush support)."""
        self._check_fork()
        done, live = [], []
        open_ids = set(_STACK.get())
        for span in self.spans:
            (live if span.span_id in open_ids else done).append(span)
        self.spans = live
        return done


#: The process tracer.  One per process; fork-guarded.
_TRACER = Tracer()


def span(name: str, ledger=None, **attrs):
    """Open a traced region (the instrumentation entry point).

    Disabled path: returns a shared no-op context manager.  Enabled
    path: records wall time, nesting, and — when ``ledger`` is given
    (or attached later via ``set_ledger``) — the ledger's root-phase
    deltas over the region.
    """
    if not _ENABLED:
        return _NOOP
    return _TRACER.open(name, ledger=ledger, **attrs)


def tracing_enabled() -> bool:
    return _ENABLED


def trace_dir() -> Optional[str]:
    """The sink directory tracing flushes into (None when unset)."""
    return os.environ.get(TRACE_DIR_ENV) or None


def enable_tracing(sink_dir: Optional[str] = None) -> None:
    """Turn span recording on, optionally rooting the JSONL sink.

    ``sink_dir`` is exported as ``$REPRO_TRACE_DIR`` so that worker
    processes spawned afterwards (``run_cells``) inherit it, enable
    tracing themselves, and flush their own per-pid files next to the
    parent's.
    """
    global _ENABLED
    if sink_dir is not None:
        os.environ[TRACE_DIR_ENV] = str(sink_dir)
    _ENABLED = True


def disable_tracing() -> None:
    global _ENABLED
    _ENABLED = False
    os.environ.pop(TRACE_DIR_ENV, None)


def maybe_enable_from_env() -> bool:
    """Enable tracing if ``$REPRO_TRACE_DIR`` is set (worker entry)."""
    global _ENABLED
    if os.environ.get(TRACE_DIR_ENV):
        _ENABLED = True
    return _ENABLED


def drain_spans() -> List[Span]:
    """Remove and return this process's finished spans."""
    return _TRACER.drain()


def flush(directory: Optional[str] = None) -> Optional[str]:
    """Append buffered spans (+ a counters snapshot) to the sink.

    Writes ``trace-<pid>.jsonl`` under ``directory`` (default: the
    ``$REPRO_TRACE_DIR`` sink) and returns the file path, or None when
    there is nowhere to write.  Safe to call repeatedly: spans flush
    once, and counters events carry a sequence number so readers keep
    only the freshest snapshot per process.
    """
    directory = directory or trace_dir()
    if directory is None:
        return None
    from .sink import flush_process_events
    return flush_process_events(directory)
