"""Trace analysis: per-phase summaries and run-to-run diffs.

Backs the ``repro trace summary`` / ``repro trace diff`` CLI verbs.
The unit of aggregation is the span *name* (``phase/<ledger phase>``,
``solve/rpaths``, ``cell/<scenario>``, ``serve/...``), which joins the
wall-clock story with the ledger story: a phase row shows both the
seconds it burned and the rounds/messages/words it charged, so a BENCH
regression becomes attributable to a phase instead of a whole solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .counters import parse_series
from .schema import KERNEL_DISPATCH, PEAK_RSS_BYTES, unknown_labels


def dispatch_rows(counters: Dict[str, float],
                  ) -> List[Tuple[str, str, str, float]]:
    """``(kernel, outcome, reason, count)`` per kernel-dispatch series
    in a merged counters mapping (reason is ``""`` for vector hits)."""
    rows: List[Tuple[str, str, str, float]] = []
    for key, value in sorted(counters.items()):
        name, labels = parse_series(key)
        if name == KERNEL_DISPATCH.name:
            rows.append((labels.get("kernel", "?"),
                         labels.get("outcome", "?"),
                         labels.get("reason", ""), value))
    return rows


@dataclass
class SpanAggregate:
    """All spans of one name, rolled up."""

    name: str
    count: int = 0
    wall: float = 0.0
    wall_max: float = 0.0
    rounds: int = 0
    messages: int = 0
    words: int = 0
    violations: int = 0

    def add(self, event: Dict[str, object]) -> None:
        wall = float(event.get("wall", 0.0))
        self.count += 1
        self.wall += wall
        if wall > self.wall_max:
            self.wall_max = wall
        self.rounds += int(event.get("rounds", 0))
        self.messages += int(event.get("messages", 0))
        self.words += int(event.get("words", 0))
        self.violations += int(event.get("violations", 0))


@dataclass
class TraceSummary:
    """Aggregated view of one trace (the ``summary`` verb's model)."""

    aggregates: Dict[str, SpanAggregate] = field(default_factory=dict)
    slowest: List[Dict[str, object]] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    #: Max-merged gauge levels (e.g. ``repro_peak_rss_bytes``).
    gauges: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def span_count(self) -> int:
        return sum(agg.count for agg in self.aggregates.values())

    def fallback_rows(self) -> List[Tuple[str, str, str, float]]:
        """Kernel dispatch rows: (kernel, outcome, reason, count)."""
        return dispatch_rows(self.counters)

    def unknown_labels(self) -> List[str]:
        """Counters, gauges and summaries outside the metric table."""
        return unknown_labels({"counters": self.counters,
                               "gauges": self.gauges,
                               "summaries": self.info.get("summaries")})

    def as_json(self) -> Dict[str, object]:
        return {
            "phases": {
                name: {
                    "count": agg.count,
                    "wall": round(agg.wall, 6),
                    "wall_max": round(agg.wall_max, 6),
                    "rounds": agg.rounds,
                    "messages": agg.messages,
                    "words": agg.words,
                    "violations": agg.violations,
                }
                for name, agg in sorted(self.aggregates.items())
            },
            "slowest": self.slowest,
            "fallbacks": [
                {"kernel": k, "outcome": o, "reason": r, "count": c}
                for k, o, r, c in self.fallback_rows()
            ],
            "unknown_labels": self.unknown_labels(),
            "counters": self.counters,
            "gauges": self.gauges,
            "info": {k: v for k, v in self.info.items()
                     if k not in ("meta", "gauges")},
        }


def summarize(spans: List[Dict[str, object]],
              counters: Dict[str, float],
              info: Optional[Dict[str, object]] = None,
              top: int = 10) -> TraceSummary:
    """Roll a trace up into per-name aggregates + top-N slowest spans."""
    info = dict(info or {})
    gauges = info.get("gauges")
    summary = TraceSummary(
        counters=dict(counters),
        gauges=dict(gauges) if isinstance(gauges, dict) else {},
        info=info)
    for event in spans:
        name = str(event.get("name", "?"))
        agg = summary.aggregates.get(name)
        if agg is None:
            agg = summary.aggregates[name] = SpanAggregate(name)
        agg.add(event)
    slowest = sorted(spans, key=lambda e: -float(e.get("wall", 0.0)))
    summary.slowest = [
        {
            "name": e.get("name"),
            "wall": float(e.get("wall", 0.0)),
            "rounds": int(e.get("rounds", 0)),
            "pid": e.get("pid"),
            "depth": e.get("depth", 0),
            "attrs": e.get("attrs", {}),
        }
        for e in slowest[:max(0, top)]
    ]
    return summary


def load_summary(path, top: int = 10) -> TraceSummary:
    """Read a trace directory/file and summarize it."""
    from .sink import read_trace
    spans, counters, info = read_trace(path)
    return summarize(spans, counters, info=info, top=top)


def format_summary(summary: TraceSummary, title: str = "") -> str:
    """Rendered tables: phases, slowest spans, fallback histogram."""
    from ..analysis.tables import format_table

    blocks: List[str] = []
    info = summary.info
    header = (f"trace: {summary.span_count} spans, "
              f"{info.get('processes', '?')} process(es), "
              f"{info.get('files', '?')} file(s)")
    if info.get("unknown_versions"):
        header += (" [unknown schema versions: "
                   f"{', '.join(info['unknown_versions'])}]")
    blocks.append((title + "\n" if title else "") + header)

    rows = []
    for agg in sorted(summary.aggregates.values(),
                      key=lambda a: -a.wall):
        rows.append([
            agg.name, agg.count, f"{agg.wall:.4f}s",
            f"{agg.wall_max:.4f}s", agg.rounds, agg.messages,
            agg.words,
        ])
    if rows:
        blocks.append(format_table(
            ["span", "count", "wall", "max", "rounds", "messages",
             "words"],
            rows, title="per-phase wall time x ledger"))

    if summary.slowest:
        rows = [
            [i + 1, s["name"], f"{s['wall']:.4f}s", s["rounds"],
             s.get("pid", "-")]
            for i, s in enumerate(summary.slowest)
        ]
        blocks.append(format_table(
            ["#", "span", "wall", "rounds", "pid"], rows,
            title=f"top {len(rows)} slowest spans"))

    fb = summary.fallback_rows()
    if fb:
        rows = [[k, o, r or "-", int(c)] for k, o, r, c in fb]
        blocks.append(format_table(
            ["kernel", "outcome", "reason", "count"], rows,
            title="kernel dispatch (vector hits vs fallbacks)"))

    if summary.gauges:
        rows = []
        for series, value in sorted(summary.gauges.items()):
            shown = (f"{value / (1 << 20):.1f} MiB"
                     if series.startswith(PEAK_RSS_BYTES.name)
                     else f"{value:.6g}")
            rows.append([series, shown])
        blocks.append(format_table(
            ["gauge", "level"], rows,
            title="gauges (max across processes)"))
    unknown = summary.unknown_labels()
    if unknown:
        blocks.append("UNDECLARED metrics/labels: " + ", ".join(unknown))
    return "\n\n".join(blocks)


# -- diffs -------------------------------------------------------------------

@dataclass
class PhaseDelta:
    """One span name's change between two traces."""

    name: str
    wall_old: float
    wall_new: float
    rounds_old: int
    rounds_new: int

    @property
    def wall_delta(self) -> float:
        return self.wall_new - self.wall_old

    @property
    def wall_ratio(self) -> Optional[float]:
        if self.wall_old <= 0:
            return None
        return self.wall_new / self.wall_old

    @property
    def rounds_delta(self) -> int:
        return self.rounds_new - self.rounds_old


@dataclass
class TraceDiff:
    """Phase-level comparison of two traces (old vs new)."""

    deltas: List[PhaseDelta] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)

    def regressions(self, threshold: float) -> List[PhaseDelta]:
        """Phases whose wall grew by more than ``threshold`` (frac)."""
        out = []
        for delta in self.deltas:
            ratio = delta.wall_ratio
            if ratio is not None and ratio > 1.0 + threshold:
                out.append(delta)
        return out

    def as_json(self) -> Dict[str, object]:
        return {
            "phases": [
                {
                    "name": d.name,
                    "wall_old": round(d.wall_old, 6),
                    "wall_new": round(d.wall_new, 6),
                    "wall_ratio": (None if d.wall_ratio is None
                                   else round(d.wall_ratio, 4)),
                    "rounds_old": d.rounds_old,
                    "rounds_new": d.rounds_new,
                }
                for d in self.deltas
            ],
            "added": self.added,
            "removed": self.removed,
        }


def diff_summaries(old: TraceSummary, new: TraceSummary) -> TraceDiff:
    """Join two summaries on span name."""
    diff = TraceDiff()
    names = set(old.aggregates) | set(new.aggregates)
    for name in sorted(names):
        a = old.aggregates.get(name)
        b = new.aggregates.get(name)
        if a is None:
            diff.added.append(name)
            continue
        if b is None:
            diff.removed.append(name)
            continue
        diff.deltas.append(PhaseDelta(
            name=name, wall_old=a.wall, wall_new=b.wall,
            rounds_old=a.rounds, rounds_new=b.rounds))
    diff.deltas.sort(key=lambda d: -abs(d.wall_delta))
    return diff


def format_diff(diff: TraceDiff, threshold: float = 0.25) -> str:
    """Rendered phase-delta table + regression verdict lines."""
    from ..analysis.tables import format_table

    rows = []
    for d in diff.deltas:
        ratio = d.wall_ratio
        rows.append([
            d.name,
            f"{d.wall_old:.4f}s",
            f"{d.wall_new:.4f}s",
            "-" if ratio is None else f"{ratio:.2f}x",
            d.rounds_old,
            d.rounds_new,
            f"{d.rounds_delta:+d}" if d.rounds_delta else "=",
        ])
    blocks = []
    if rows:
        blocks.append(format_table(
            ["span", "wall old", "wall new", "ratio", "rounds old",
             "rounds new", "Δrounds"],
            rows, title="phase-level wall + rounds (old -> new)"))
    for name in diff.added:
        blocks.append(f"  added:   {name}")
    for name in diff.removed:
        blocks.append(f"  removed: {name}")
    regress = diff.regressions(threshold)
    if regress:
        lines = [f"REGRESSION {d.name}: wall {d.wall_old:.4f}s -> "
                 f"{d.wall_new:.4f}s ({d.wall_ratio:.2f}x)"
                 for d in regress]
        blocks.append("\n".join(lines))
    else:
        blocks.append(f"no wall regressions beyond "
                      f"{threshold * 100:.0f}%")
    return "\n\n".join(blocks)
