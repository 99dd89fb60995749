"""Percentiles, the sample-count rule, rates, quiet windows and outcome
shares."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise it would be the run's maximum in disguise.
MIN_BEYOND = 10

#: Tail percentiles tried from the highest down.
TAIL_LADDER = (95.0, 90.0, 75.0)

#: Outcomes that carry an answer (fresh, or stale within budget).
ANSWERED = frozenset(("ok", "stale"))


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(samples)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def supports(count: int, q: float) -> bool:
    """The sample-count rule: ``q`` needs MIN_BEYOND samples past it."""
    return count * (100.0 - q) / 100.0 >= MIN_BEYOND


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)`` for the highest ladder percentile the sample count
    supports; the median when none does."""
    for q in TAIL_LADDER:
        if supports(len(samples), q):
            return q, percentile(samples, q)
    return 50.0, median(samples)


def chunk_rates(durations: Sequence[float], size: int) -> list:
    """Ops per second over consecutive chunks of ``size`` op durations;
    a trailing partial chunk is dropped."""
    if size < 1:
        raise ValueError("chunk size must be positive")
    rates = []
    for lo in range(0, len(durations) - size + 1, size):
        span = sum(durations[lo:lo + size])
        if span > 0:
            rates.append(size / span)
    return rates


#: Share of a run's windows, ranked by CPU steal, that measure it at
#: the least.
QUIET_SHARE = 1 / 3

#: Steal share of a window that still counts as quiet: a tick or two of
#: the host's clock.
QUIET_STEAL = 0.02


def quietest(steals: Sequence[float]) -> list:
    """Indices of the windows whose CPU steal share is at most
    QUIET_STEAL or that of the window ranked at QUIET_SHARE: every quiet
    window when at least that share is quiet, the least disturbed ones
    otherwise."""
    if not steals:
        return []
    limit = max(QUIET_STEAL, percentile(steals, 100.0 * QUIET_SHARE))
    return [i for i, s in enumerate(steals) if s <= limit]


@dataclass
class Tally:
    """Outcome accounting over the ops a run attempted.

    An op is ``ok`` when it was answered and the answer matched the
    reference; ``fresh`` when it is ok with epoch lag 0.  Refused,
    timed-out and errored ops count as attempted and failed, not wrong.
    """

    attempted: int = 0
    ok: int = 0
    fresh: int = 0
    wrong: int = 0
    outcomes: Counter = field(default_factory=Counter)
    mismatches: list = field(default_factory=list)

    def add(self, outcome: str, correct: Optional[bool] = None,
            lag: int = 0, label: str = "") -> None:
        self.attempted += 1
        self.outcomes[outcome] += 1
        if outcome not in ANSWERED:
            return
        if not correct:
            self.wrong += 1
            if len(self.mismatches) < 5:
                self.mismatches.append(label or outcome)
            return
        self.ok += 1
        if lag == 0:
            self.fresh += 1

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def ok_share(self) -> float:
        return self.ok / self.attempted if self.attempted else 0.0

    @property
    def fresh_share(self) -> float:
        return self.fresh / self.attempted if self.attempted else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"attempted": self.attempted, "ok": self.ok,
                "fresh": self.fresh, "wrong": self.wrong,
                "outcomes": dict(sorted(self.outcomes.items()))}
