"""JSONL trace sink: schema, per-process files, and the reader.

A *trace directory* holds one ``trace-<pid>.jsonl`` file per process
that participated in a run (the suite parent plus every ``run_cells``
worker).  Files are append-only JSONL; every line is one event stamped
with the schema version:

``{"v": "repro-trace/1", "kind": "span", "pid": ..., ...}``
    One finished span (see :meth:`repro.telemetry.trace.Span.as_event`).
``{"v": "repro-trace/1", "kind": "counters", "pid": ..., "seq": ...,
"data": {...}}``
    A registry snapshot.  Snapshots are cumulative per process, so the
    reader keeps only the highest-``seq`` event per pid and sums across
    pids.
``{"v": "repro-trace/1", "kind": "meta", ...}``
    Free-form run metadata (label, argv, code version).

Directories under the result store's ``traces/`` root are the
convention (`ResultStore.new_trace_dir`), but any directory — or a
single ``.jsonl`` file — can be read back with :func:`read_trace`.

Schema evolution: bump :data:`SCHEMA` when an event's meaning changes;
the reader accepts any ``repro-trace/*`` version and surfaces unknown
majors in the summary header instead of guessing.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, Iterable, List, Optional, Tuple

SCHEMA = "repro-trace/1"
SCHEMA_PREFIX = "repro-trace/"

#: Per-process monotonically increasing counters-snapshot sequence.
_counters_seq = 0
_seq_pid = os.getpid()


def trace_file(directory) -> pathlib.Path:
    """This process's file inside the trace directory."""
    return pathlib.Path(directory) / f"trace-{os.getpid()}.jsonl"


def append_events(path, events: Iterable[Dict[str, object]]) -> None:
    """Append events as JSONL (one line each, schema-stamped)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    pid = os.getpid()
    with path.open("a") as fh:
        for event in events:
            event.setdefault("v", SCHEMA)
            event.setdefault("pid", pid)
            fh.write(json.dumps(event, sort_keys=True,
                                default=str) + "\n")


def flush_process_events(directory) -> str:
    """Flush this process's spans + a counters snapshot to its file.

    Called by :func:`repro.telemetry.trace.flush`; returns the file
    path written.  Spans drain (each is written once); the counters
    snapshot is cumulative and carries a sequence number so repeated
    flushes from one process do not double-count.
    """
    global _counters_seq, _seq_pid
    from .counters import snapshot_counters
    from .trace import drain_spans
    if os.getpid() != _seq_pid:  # fork guard for the sequence number
        _seq_pid = os.getpid()
        _counters_seq = 0
    path = trace_file(directory)
    events: List[Dict[str, object]] = [
        span.as_event() for span in drain_spans()
    ]
    _counters_seq += 1
    events.append({
        "kind": "counters",
        "seq": _counters_seq,
        "data": snapshot_counters(),
    })
    append_events(path, events)
    return str(path)


def write_meta(directory, **meta) -> None:
    """Record run metadata into this process's trace file."""
    event: Dict[str, object] = {"kind": "meta"}
    event.update(meta)
    append_events(trace_file(directory), [event])


def _iter_files(path: pathlib.Path) -> List[pathlib.Path]:
    if path.is_dir():
        return sorted(path.glob("*.jsonl"))
    return [path]


def read_trace(path) -> Tuple[List[Dict[str, object]],
                              Dict[str, float],
                              Dict[str, object]]:
    """Load a trace directory (or single file).

    Returns ``(spans, counters, info)``:

    * ``spans`` — every span event, in file order;
    * ``counters`` — the merged counter values (freshest snapshot per
      pid, summed across pids);
    * ``info`` — reader diagnostics: files read, bad lines skipped,
      unknown schema versions encountered, any ``meta`` events,
      ``gauges`` (freshest snapshot per pid, max across pids — the
      high-water-mark merge, e.g. peak RSS) and ``summaries`` (the
      summary series keys of every pid's freshest snapshot).
    """
    from .counters import merge_counter_snapshots, merge_gauge_snapshots
    root = pathlib.Path(path)
    if not root.exists():
        raise FileNotFoundError(f"no trace at {root}")
    spans: List[Dict[str, object]] = []
    latest: Dict[object, Tuple[int, Dict[str, object]]] = {}
    meta: List[Dict[str, object]] = []
    bad_lines = 0
    versions = set()
    files = _iter_files(root)
    for file in files:
        for line in file.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                bad_lines += 1
                continue
            if not isinstance(event, dict):
                bad_lines += 1
                continue
            version = str(event.get("v", ""))
            if not version.startswith(SCHEMA_PREFIX):
                bad_lines += 1
                continue
            versions.add(version)
            kind = event.get("kind")
            if kind == "span":
                spans.append(event)
            elif kind == "counters":
                pid = event.get("pid", 0)
                seq = int(event.get("seq", 0))
                old = latest.get(pid)
                if old is None or seq >= old[0]:
                    latest[pid] = (seq, event.get("data", {}))
            elif kind == "meta":
                meta.append(event)
    counters = merge_counter_snapshots(
        data for _seq, data in latest.values())
    gauges = merge_gauge_snapshots(
        data for _seq, data in latest.values())
    summaries = sorted({
        key for _seq, data in latest.values()
        if isinstance(data, dict) and isinstance(data.get("summaries"),
                                                 dict)
        for key in data["summaries"]})
    info: Dict[str, object] = {
        "files": len(files),
        "processes": len(latest) or len({s.get("pid") for s in spans}),
        "spans": len(spans),
        "bad_lines": bad_lines,
        "versions": sorted(versions),
        "meta": meta,
        "gauges": gauges,
        "summaries": summaries,
    }
    unknown = [v for v in versions if v != SCHEMA]
    if unknown:
        info["unknown_versions"] = unknown
    return spans, counters, info


def latest_trace_dir(store_root) -> Optional[pathlib.Path]:
    """Most recently created trace directory under a store root."""
    traces = pathlib.Path(store_root) / "traces"
    if not traces.is_dir():
        return None
    dirs = [p for p in traces.iterdir() if p.is_dir()]
    return max(dirs, key=lambda p: p.name, default=None)
