"""The metric table: every metric the repo records, declared once.

Each :class:`Metric` below carries its Prometheus name, type, help
text and label enums, and everything else derives from it:

* recording goes through the declaration
  (``SERVE_ADMISSION.inc(outcome="ok")``, ``bind()`` for hot paths);
* :func:`exposition` takes each family's ``# HELP`` and ``# TYPE``
  lines from it;
* :func:`unknown_labels` checks a registry snapshot against it — the
  gate behind ``repro trace summary --check-reasons`` and ``repro
  serve load --check-telemetry``.  It runs on snapshots, never on the
  recording path, so recording costs one registry write;
* :func:`markdown_table` renders DESIGN.md's metric table.

Label enums are closed tuples, except that ``kernel`` and ``reason``
derive lazily from the primitive registry
(:mod:`repro.congest.dispatch`, which records through this table, so
a module-level import would cycle), ``stat`` derives from
:class:`repro.serve.shard.ShardStats` the same way, and labels
declared :data:`OPEN` take any value.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .counters import BoundCounter, MetricsRegistry, parse_series
from .counters import registry, series_name

#: Label enum marker: any value is legal (scenario names, shard ids).
OPEN = None


def _derived(module: str, attr: str) -> Callable[[], frozenset]:
    """A label enum read on use from the module that owns it."""
    def enum() -> frozenset:
        return frozenset(getattr(importlib.import_module(module), attr)())
    enum.__doc__ = f"{module}.{attr}()"
    return enum


class Metric:
    """One declared metric: name, Prometheus type, help, label enums."""

    __slots__ = ("kind", "name", "help", "labels", "optional")

    def __init__(self, kind: str, name: str, help: str,
                 labels: Mapping[str, object],
                 optional: Tuple[str, ...] = ()) -> None:
        self.kind = kind
        self.name = name
        self.help = help
        self.labels = dict(labels)
        self.optional = frozenset(optional)

    def inc(self, amount: float = 1, **labels) -> None:
        registry.inc(self.name, amount, **labels)

    def set(self, value: float, **labels) -> None:
        registry.set_gauge(self.name, value, **labels)

    def observe(self, value: float, **labels) -> None:
        registry.observe(self.name, value, **labels)

    def bind(self, **labels) -> BoundCounter:
        """One pre-resolved counter series (per-query hot paths)."""
        return BoundCounter(registry, self.name, labels)

    def legal(self, label: str) -> Optional[frozenset]:
        """The label's legal values; None when it is open."""
        enum = self.labels[label]
        if enum is OPEN:
            return None
        return enum() if callable(enum) else frozenset(enum)


#: Every declared metric, by name.
METRICS: Dict[str, Metric] = {}


def _declare(kind: str):
    def declare(name: str, help: str, optional: Tuple[str, ...] = (),
                **labels) -> Metric:
        assert name not in METRICS, name
        METRICS[name] = metric = Metric(kind, name, help, labels,
                                        optional)
        return metric
    return declare


counter, gauge, summary = (_declare("counter"), _declare("gauge"),
                           _declare("summary"))

# -- kernel dispatch (repro.congest.dispatch) --------------------------------

KERNEL_DISPATCH = counter(
    "repro_kernel_dispatch_total",
    "Kernel dispatch decisions; a fallback names the first failing "
    "registered constraint.",
    kernel=_derived("repro.congest.dispatch", "known_kernels"),
    outcome=("vector", "fallback"),
    reason=_derived("repro.congest.dispatch", "known_reasons"),
    optional=("reason",))

# -- scale-out (topology exports, send plans) --------------------------------

TOPOLOGY_EXPORT = counter(
    "repro_topology_export_total",
    "Topology array groups exported, by the dtype chosen.",
    array=("indices", "keys", "weights", "steps"),
    dtype=("int32", "int64"))
SENDPLAN_CACHE = counter(
    "repro_sendplan_cache_total",
    "Send-plan requests; bypass means a delay callable with no stable "
    "cache key.",
    outcome=("hit", "build", "bypass"))
PEAK_RSS_BYTES = gauge(
    "repro_peak_rss_bytes",
    "Peak resident set size in bytes (max across processes).")

# -- runtime (executor, pool, result store) ----------------------------------

EXECUTOR_CELLS = counter(
    "repro_executor_cells_total",
    "Suite cells executed, by final status.",
    scenario=OPEN, status=("ok", "error", "timeout"))
EXECUTOR_CELL_SECONDS = summary(
    "repro_executor_cell_seconds",
    "Wall seconds per executed cell.",
    scenario=OPEN)
POOL_ITEMS = counter(
    "repro_pool_items_total",
    "pool_map items, by outcome.",
    outcome=("ok", "timeout", "cancelled", "error"))
POOL_WAIT_SECONDS = summary(
    "repro_pool_wait_seconds",
    "Parent-side wait per pool_map item in seconds.")
STORE_LOOKUPS = counter(
    "repro_store_lookups_total",
    "Result-store lookups; a corrupt object is dropped as a miss.",
    outcome=("hit", "miss", "corrupt"))
STORE_PUTS = counter(
    "repro_store_puts_total",
    "Result-store objects written.")
STORE_GC = counter(
    "repro_store_gc_total",
    "Result-store objects pruned by repro store gc.",
    reason=("corrupt", "superseded_code", "superseded_topology"))

# -- serving: oracle, shard, daemon, front-end, client -----------------------

SERVE_ORACLE_ANSWERS = counter(
    "repro_serve_oracle_answers_total",
    "Oracle answers, by cost class.",
    kind=("hit-path-edge", "hit-off-path", "fallback-solve",
          "fallback-cached"))
SERVE_SHARD_TOTAL = counter(
    "repro_serve_shard_total",
    "Per-shard lifetime serving counts, read from the shard's "
    "ShardStats at the scrape.",
    shard=OPEN, stat=_derived("repro.serve.shard", "stat_names"))
SERVE_HOT_ORACLES = gauge(
    "repro_serve_hot_oracles",
    "Oracles in a shard's hot LRU at the scrape.",
    shard=OPEN)
SERVE_DAEMON_EVENTS = counter(
    "repro_serve_daemon_events_total",
    "Daemon and worker lifecycle transitions.",
    event=("start", "stop", "drain", "worker-start", "worker-ready",
           "worker-exit", "worker-dead", "worker-restart", "resubmit"))
SERVE_ADMISSION = counter(
    "repro_serve_admission_total",
    "Front-end requests, by final outcome; ok and stale carry an "
    "answer.",
    outcome=("ok", "stale", "overloaded", "timeout", "error",
             "shutdown", "worker-lost"))
SERVE_RETRIES = counter(
    "repro_serve_retries_total",
    "Client retries, by the transient outcome that triggered them.",
    outcome=("overloaded", "worker-lost"))
SERVE_QUEUE_DEPTH = gauge(
    "repro_serve_queue_depth",
    "Requests held at admission while their shard is at its "
    "in-flight cap.")
SERVE_INFLIGHT = gauge(
    "repro_serve_inflight",
    "Queries dispatched to a shard's worker and not yet answered, at "
    "the scrape.",
    shard=OPEN)
SERVE_WORKERS_ALIVE = gauge(
    "repro_serve_workers_alive",
    "Live, heartbeating worker processes.")
SERVE_REQUEST_SECONDS = summary(
    "repro_serve_request_seconds",
    "Front-end request latency, submit to resolve, in seconds.")

# -- dynamic graphs -----------------------------------------------------------

DYNAMIC_MUTATIONS = counter(
    "repro_dynamic_mutations_total",
    "Applied topology mutations, by kind.",
    kind=("weight", "fail", "heal"))
DYNAMIC_SKIPPED = counter(
    "repro_dynamic_skipped_total",
    "Mutations refused, by reason.",
    reason=("unknown-edge", "duplicate-edge", "disconnects",
            "unweighted", "invalid", "noop"))
DYNAMIC_INVALIDATIONS = counter(
    "repro_dynamic_invalidations_total",
    "Serve-tier invalidation actions, by scope.",
    scope=("memo-dropped", "spill-stale"))
DYNAMIC_EPOCH_LAG = gauge(
    "repro_dynamic_epoch_lag",
    "Epochs behind the current topology of the last answer served.")

# -- derived surfaces ---------------------------------------------------------

_SECTIONS = (("counters", "counter"), ("gauges", "gauge"),
             ("summaries", "summary"))


def unknown_labels(snapshot: Mapping[str, object]) -> List[str]:
    """Everything in a registry snapshot the table does not declare.

    ``snapshot`` has :meth:`~repro.telemetry.counters.MetricsRegistry.
    snapshot`'s ``counters`` / ``gauges`` / ``summaries`` sections (any
    may be absent).  Flags undeclared metrics, metrics recorded as the
    wrong type, undeclared label keys, missing required labels, and
    values outside a closed enum.  An empty list passes the gate.
    """
    bad = set()
    for section, kind in _SECTIONS:
        for key in snapshot.get(section) or {}:
            name, labels = parse_series(key)
            metric = METRICS.get(name)
            if metric is None:
                bad.add(f"undeclared:{name}")
                continue
            if metric.kind != kind:
                bad.add(f"{name}:recorded as {kind}")
            for label in sorted(set(labels) - set(metric.labels)):
                bad.add(f"{name}:{label}:<undeclared label>")
            for label in metric.labels:
                value = labels.get(label)
                if value is None:
                    if label not in metric.optional:
                        bad.add(f"{name}:{label}:<missing>")
                    continue
                legal = metric.legal(label)
                if legal is not None and value not in legal:
                    bad.add(f"{name}:{label}:{value}")
    return sorted(bad)


def _number(value: float) -> str:
    return f"{value:.9g}" if isinstance(value, float) else str(value)


def exposition(reg: MetricsRegistry = registry) -> str:
    """Prometheus text format: per family one ``# HELP`` and one
    ``# TYPE`` line, then its samples; a summary is one family of
    ``_sum`` and ``_count`` samples."""
    lines: List[str] = []
    for kind, name, series in reg.families():
        metric = METRICS.get(name)
        lines.append(f"# HELP {name} "
                     + (metric.help if metric else "Undeclared metric."))
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in series:
            if kind == "summary":
                count, total = value[0], value[1]
                lines.append(f"{series_name(name + '_sum', labels)} "
                             f"{_number(total)}")
                lines.append(f"{series_name(name + '_count', labels)} "
                             f"{_number(count)}")
            else:
                lines.append(f"{series_name(name, labels)} "
                             f"{_number(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def markdown_table() -> str:
    """DESIGN.md's metric table, one row per declaration."""
    rows = ["| metric | type | labels | help |", "|---|---|---|---|"]
    for metric in METRICS.values():
        labels = []
        for label, enum in metric.labels.items():
            if enum is OPEN:
                values = "any"
            elif callable(enum):
                values = f"`{enum.__doc__}`"
            else:
                values = ", ".join(enum)
            optional = " (optional)" if label in metric.optional else ""
            labels.append(f"`{label}`{optional}: {values}")
        rows.append(f"| `{metric.name}` | {metric.kind} | "
                    f"{'; '.join(labels) or '-'} | {metric.help} |")
    return "\n".join(rows)
