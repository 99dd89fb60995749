"""``repro.telemetry`` — spans, counters, and trace tooling.

A zero-dependency observability layer threaded through every tier of
the repo (solver cores, fabric kernels, runtime executor/store, serve
shards):

* :mod:`~repro.telemetry.trace` — contextvar-based hierarchical spans
  recording wall time joined with :class:`~repro.congest.metrics.
  RoundLedger` deltas; off by default, no-op guard when disabled.
* :mod:`~repro.telemetry.counters` — thread- and fork-safe
  process-local registry of labeled counters/gauges/summaries.
* :mod:`~repro.telemetry.schema` — the metric table: each metric's
  name, type, help text and label enums, declared once; the
  Prometheus exposition and the :func:`unknown_labels` gate derive
  from it.
* :mod:`~repro.telemetry.sink` — append-only JSONL trace files, one
  per process, schema-versioned.
* :mod:`~repro.telemetry.tooling` — the ``repro trace summary`` /
  ``repro trace diff`` aggregation and rendering.

Quickstart::

    from repro import telemetry
    telemetry.enable_tracing("/tmp/trace")
    ...  # any solver / suite / serve work
    telemetry.flush()

    python -m repro trace summary /tmp/trace
"""

from .counters import (  # noqa: F401
    MetricsRegistry,
    merge_counter_snapshots,
    registry,
    snapshot_counters,
)
from .schema import exposition, unknown_labels  # noqa: F401
from .sink import (  # noqa: F401
    SCHEMA,
    latest_trace_dir,
    read_trace,
    write_meta,
)
from .tooling import (  # noqa: F401
    TraceDiff,
    TraceSummary,
    diff_summaries,
    format_diff,
    format_summary,
    load_summary,
    summarize,
)
from .trace import (  # noqa: F401
    TRACE_DIR_ENV,
    Span,
    disable_tracing,
    drain_spans,
    enable_tracing,
    flush,
    maybe_enable_from_env,
    span,
    trace_dir,
    tracing_enabled,
)
